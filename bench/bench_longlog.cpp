/**
 * @file
 * Long-log read scaling curve: cold-miss page materialization cost
 * as the un-checkpointed log grows from 10 to 10,000 frames per
 * page (DESIGN.md §14). Two scenarios; every read is a cold
 * materialization:
 *
 *  - `pinned.N`: one full-page frame, a pinned snapshot right
 *    behind it, then N trailing committed diffs. Every readPageAt()
 *    at the pinned horizon must locate "newest frame <= horizon" in
 *    a chain of N+1 frames -- a backward scan pays O(N); the radix
 *    frame index pays one root-to-leaf descent.
 *
 *  - `adaptive.N`: a mixed workload (mostly small diffs, every 16th
 *    commit dirties most of the page) with no pins. The adaptive
 *    granularity decision ships the heavy commits as full-page
 *    frames, each of which becomes a replay anchor, so a cold tail
 *    read replays at most the frames since the last full frame no
 *    matter how long the log is.
 *
 * The gated observable is `wal.frame_scan_steps` per read (descent
 * nodes + leaves visited + frames applied): deterministic, so the
 * CI bound (baselines/longlog_bounds.json) cannot flake on host
 * noise. The `flatness` record pins the headline claim directly:
 * steps per read at N=10,000 stay within 2x of N=10. Host and
 * simulated per-read times ride along informationally.
 *
 * `--json <path>` exports the curve; `--smoke` only trims the read
 * count (the commit counts are the curve itself and stay).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/nvwal_log.hpp"
#include "pager/db_file.hpp"

using namespace nvwal;
using namespace nvwal::bench;

namespace
{

constexpr PageNo kPageNo = 3;
constexpr std::uint32_t kPageSize = 4096;

struct ReadProfile
{
    double stepsPerRead = 0.0;
    double simNsPerRead = 0.0;
    double hostNsPerRead = 0.0;
    std::uint64_t indexNodes = 0;
    std::uint64_t fullFramesAdaptive = 0;
    std::uint64_t diffFrames = 0;
};

struct LogRig
{
    Env env;
    DbFile file;
    NvwalLog log;

    explicit
    LogRig(const EnvConfig &env_config)
        : env(env_config), file(env.fs, "longlog.db", kPageSize),
          log(env.heap, env.pmem, file, kPageSize, 24,
              NvwalConfig{} /* UH+LS+Diff defaults */, env.stats)
    {
        NVWAL_CHECK_OK(file.open());
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log.recover(&db_size));
    }
};

EnvConfig
longlogEnvConfig()
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    env_config.nvramBytes = 128ull << 20;  // 10k-frame chains fit
    return env_config;
}

void
commitDiff(NvwalLog &log, ByteBuffer &page, int i)
{
    const std::uint32_t off =
        static_cast<std::uint32_t>(64 * (i % 60));
    page[off] = static_cast<std::uint8_t>(i);
    DirtyRanges diff;
    diff.mark(off, off + 8);
    std::vector<FrameWrite> w{FrameWrite{
        kPageNo, ConstByteSpan(page.data(), page.size()), &diff}};
    NVWAL_CHECK_OK(log.writeFrameGroup({{w, kPageNo + 1}}));
}

void
commitHeavy(NvwalLog &log, ByteBuffer &page, int i)
{
    // Dirty ~75% of the page: the adaptive decision (default
    // threshold 50%) ships it as one full-page frame.
    for (std::uint32_t off = 0; off < 3 * kPageSize / 4; off += 64)
        page[off] = static_cast<std::uint8_t>(i * 7);
    DirtyRanges heavy;
    heavy.mark(0, 3 * kPageSize / 4);
    std::vector<FrameWrite> w{FrameWrite{
        kPageNo, ConstByteSpan(page.data(), page.size()), &heavy}};
    NVWAL_CHECK_OK(log.writeFrameGroup({{w, kPageNo + 1}}));
}

ReadProfile
measureReads(LogRig &rig, CommitSeq horizon, int reads)
{
    ByteBuffer out(kPageSize);
    const StatsSnapshot before = rig.env.stats.snapshot();
    const SimTime sim_start = rig.env.clock.now();
    const auto host_start = std::chrono::steady_clock::now();
    for (int r = 0; r < reads; ++r) {
        if (horizon == kNoPin) {
            NVWAL_CHECK_OK(rig.log.readPage(
                kPageNo, ByteSpan(out.data(), out.size())));
        } else {
            NVWAL_CHECK_OK(rig.log.readPageAt(
                kPageNo, ByteSpan(out.data(), out.size()), horizon));
        }
    }
    const auto host_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_start)
            .count();
    const StatsSnapshot delta = MetricsRegistry::delta(
        before, rig.env.stats.snapshot());
    auto stat = [&delta](const char *name) -> std::uint64_t {
        auto it = delta.find(name);
        return it == delta.end() ? 0 : it->second;
    };

    ReadProfile p;
    p.stepsPerRead =
        static_cast<double>(stat(stats::kWalFrameScanSteps)) / reads;
    p.simNsPerRead =
        static_cast<double>(rig.env.clock.now() - sim_start) / reads;
    p.hostNsPerRead = static_cast<double>(host_ns) / reads;
    p.indexNodes = rig.log.frameIndexNodes();
    return p;
}

/** One full-page frame, a pin right behind it, N trailing diffs. */
ReadProfile
runPinned(int frames, int reads)
{
    LogRig rig(longlogEnvConfig());

    ByteBuffer page(kPageSize, 0x3C);
    DirtyRanges full;
    full.mark(0, kPageSize);
    std::vector<FrameWrite> w{FrameWrite{
        kPageNo, ConstByteSpan(page.data(), page.size()), &full}};
    NVWAL_CHECK_OK(rig.log.writeFrameGroup({{w, kPageNo + 1}}));
    const CommitSeq horizon = rig.log.commitSeq();
    rig.log.pinSnapshot(horizon);

    for (int i = 0; i < frames; ++i)
        commitDiff(rig.log, page, i);

    ReadProfile p = measureReads(rig, horizon, reads);
    rig.log.unpinSnapshot(horizon);
    return p;
}

/** Mixed diff/heavy workload, cold tail reads, no pins. */
ReadProfile
runAdaptive(int frames, int reads)
{
    LogRig rig(longlogEnvConfig());

    ByteBuffer page(kPageSize, 0x5A);
    const StatsSnapshot before = rig.env.stats.snapshot();
    for (int i = 0; i < frames; ++i) {
        if (i % 16 == 0)
            commitHeavy(rig.log, page, i);
        else
            commitDiff(rig.log, page, i);
    }
    const StatsSnapshot writes = MetricsRegistry::delta(
        before, rig.env.stats.snapshot());
    auto stat = [&writes](const char *name) -> std::uint64_t {
        auto it = writes.find(name);
        return it == writes.end() ? 0 : it->second;
    };

    ReadProfile p = measureReads(rig, kNoPin, reads);
    p.fullFramesAdaptive = stat(stats::kWalFullFramesAdaptive);
    p.diffFrames = stat(stats::kWalDiffFrames);
    return p;
}

BenchRecord
profileRecord(const char *kind, int frames, int reads,
              const ReadProfile &p)
{
    BenchRecord rec;
    rec.name = std::string(kind) + "." + std::to_string(frames);
    rec.params["frames_per_page"] = static_cast<std::uint64_t>(frames);
    rec.params["reads"] = static_cast<std::uint64_t>(reads);
    rec.values["scan_steps_per_read"] = p.stepsPerRead;
    rec.values["sim_ns_per_read"] = p.simNsPerRead;
    rec.values["host_ns_per_read"] = p.hostNsPerRead;
    rec.values["frame_index_nodes"] =
        static_cast<double>(p.indexNodes);
    if (p.fullFramesAdaptive != 0 || p.diffFrames != 0) {
        rec.values["full_frames_adaptive"] =
            static_cast<double>(p.fullFramesAdaptive);
        rec.values["diff_frames"] =
            static_cast<double>(p.diffFrames);
    }
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_longlog", args);

    const std::vector<int> curve{10, 100, 1000, 10000};
    const int reads = args.smoke ? 50 : 2000;

    std::printf("Long-log cold-miss read scaling\n\n");
    TablePrinter table("bench_longlog");
    table.setHeader({"scenario", "frames/page", "steps/read",
                     "sim us/read", "host us/read", "index nodes"});

    double pinned_lo = 0.0, pinned_hi = 0.0;
    double adaptive_lo = 0.0, adaptive_hi = 0.0;
    for (int frames : curve) {
        const ReadProfile pinned = runPinned(frames, reads);
        const ReadProfile adaptive = runAdaptive(frames, reads);
        if (frames == curve.front()) {
            pinned_lo = pinned.stepsPerRead;
            adaptive_lo = adaptive.stepsPerRead;
        }
        if (frames == curve.back()) {
            pinned_hi = pinned.stepsPerRead;
            adaptive_hi = adaptive.stepsPerRead;
        }
        table.addRow({"pinned", std::to_string(frames),
                      TablePrinter::num(pinned.stepsPerRead, 1),
                      TablePrinter::num(pinned.simNsPerRead / 1000.0, 2),
                      TablePrinter::num(pinned.hostNsPerRead / 1000.0, 2),
                      TablePrinter::num(pinned.indexNodes)});
        table.addRow({"adaptive", std::to_string(frames),
                      TablePrinter::num(adaptive.stepsPerRead, 1),
                      TablePrinter::num(adaptive.simNsPerRead / 1000.0, 2),
                      TablePrinter::num(adaptive.hostNsPerRead / 1000.0, 2),
                      TablePrinter::num(adaptive.indexNodes)});
        json.add(profileRecord("pinned", frames, reads, pinned));
        json.add(profileRecord("adaptive", frames, reads, adaptive));
    }
    table.print();

    const double pinned_ratio =
        pinned_lo > 0.0 ? pinned_hi / pinned_lo : 0.0;
    const double adaptive_ratio =
        adaptive_lo > 0.0 ? adaptive_hi / adaptive_lo : 0.0;
    std::printf("\nflatness: pinned %.0f -> %.0f frames/page = %.2fx, "
                "adaptive = %.2fx (claim: <= 2x)\n",
                static_cast<double>(curve.front()),
                static_cast<double>(curve.back()), pinned_ratio,
                adaptive_ratio);

    BenchRecord flat;
    flat.name = "flatness";
    flat.params["frames_lo"] =
        static_cast<std::uint64_t>(curve.front());
    flat.params["frames_hi"] =
        static_cast<std::uint64_t>(curve.back());
    flat.values["pinned_steps_ratio"] = pinned_ratio;
    flat.values["adaptive_steps_ratio"] = adaptive_ratio;
    json.add(flat);

    json.write();
    return 0;
}
