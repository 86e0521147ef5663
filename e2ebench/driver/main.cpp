/**
 * @file
 * e2ebench: run one workload for a wall-clock budget and print its
 * end-to-end metrics (--trace 0) or its per-layer metrics and ledger
 * (--trace 1). The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 *
 *   e2ebench --workload mobile_oltp --seed 1 --seconds 10 --trace 0
 *
 * A run repeats whole trials (set-up, measured region, crash,
 * recovery) until the budget is spent. Simulated figures come from
 * the first trial and must repeat exactly in every other one; host
 * figures are medians over the trials.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/stats.hpp"

namespace
{

using namespace e2e;
namespace st = nvwal::stats;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
    int minTrials = 2;
    int maxTrials = 0;  //!< 0 = until the budget is spent
    std::string spansOut;
    std::string report;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
                 "          [--scale F] [--min-trials N] [--max-trials N]\n"
                 "          [--spans-out PATH] [--report PATH]\n"
                 "workloads: mobile_oltp snapshot_reads multiwriter_hotspot\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--scale")
            a.scale = std::strtod(v, nullptr);
        else if (arg == "--min-trials")
            a.minTrials = std::atoi(v);
        else if (arg == "--max-trials")
            a.maxTrials = std::atoi(v);
        else if (arg == "--spans-out")
            a.spansOut = v;
        else if (arg == "--report")
            a.report = v;
        else
            usage(argv[0]);
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
        !(a.scale > 0) || a.minTrials < 1 || a.maxTrials < 0)
        usage(argv[0]);
    if (a.trace)
        a.minTrials = std::max(a.minTrials, 2);
    return a;
}

// ---- statistics -------------------------------------------------------

/** Nearest-rank quantile: at least (1 - q) * n samples lie above it
 *  when q * n is whole. */
double
quantile(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

std::uint64_t
stat(const nvwal::StatsSnapshot &s, const char *name)
{
    const auto it = s.find(name);
    return it == s.end() ? 0 : it->second;
}

std::vector<std::uint64_t>
concat(const CallSamples &c, std::initializer_list<Call> calls, bool host)
{
    std::vector<std::uint64_t> out;
    for (Call k : calls) {
        const auto &v = (host ? c.host : c.sim)[static_cast<std::size_t>(k)];
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

// ---- per-trial summaries ---------------------------------------------

/**
 * Calibration slice time (ns) the host figures are scaled to: about
 * what a slice takes on the 4-vCPU Xeon VM the bounds were set on.
 * A trial whose slices ran slower had its host times scaled down by
 * the same factor.
 */
constexpr double kRefSliceNs = 15000;

/** Host figures of one trial (full results of later trials are
 *  dropped so the process footprint does not grow with the count).
 *  Times are in reference ns (see kRefSliceNs), except setupS. */
struct Summary
{
    std::uint64_t fingerprint = 0;
    double setupS = 0;
    double rawHostS = 0;   //!< measured-region wall seconds, unscaled
    double calibSliceNs = 0;
    double timeScale = 1;  //!< reference / measured slice time
    double hostS = 0;
    double hostTxnPerS = 0;
    double hostCommitP50Us = 0;
    double hostReadPerS = 0;
    double commitCallHostNs = 0;
    double beginCallHostNs = 0;
    double writeStmtHostNs = 0;
    double getCallHostNs = 0;
    std::array<double, kLayers + 1> hostShare{};  //!< layers + driver
};

Summary
summarize(const TrialResult &r)
{
    Summary s;
    s.fingerprint = simFingerprint(r);
    s.setupS = r.setupS;
    s.rawHostS = static_cast<double>(r.hostNs) / 1e9;
    s.calibSliceNs = r.calibSliceNs;
    if (r.calibSliceNs > 0)
        s.timeScale = kRefSliceNs / r.calibSliceNs;
    const double k = s.timeScale;
    s.hostS = s.rawHostS * k;
    s.hostTxnPerS = ratio(static_cast<double>(r.txns), s.hostS);
    s.hostCommitP50Us = quantile(r.commitHost, 0.5) / 1e3 * k;
    s.hostReadPerS = ratio(static_cast<double>(r.readOps),
                           static_cast<double>(r.readHostNs) / 1e9 * k);
    const auto &h = r.calls.host;
    s.commitCallHostNs =
        quantile(h[static_cast<std::size_t>(Call::Commit)], 0.5) * k;
    s.beginCallHostNs =
        quantile(h[static_cast<std::size_t>(Call::Begin)], 0.5) * k;
    s.writeStmtHostNs =
        quantile(concat(r.calls, {Call::Insert, Call::Update, Call::Remove},
                        true),
                 0.5) *
        k;
    s.getCallHostNs = quantile(h[static_cast<std::size_t>(Call::Get)], 0.5) * k;
    if (r.traced) {
        double in_calls = 0;
        for (std::size_t k = 0; k < kCalls; ++k) {
            const auto call = static_cast<Call>(k);
            const bool stmt = call == Call::Insert || call == Call::Update ||
                              call == Call::Remove || call == Call::Get ||
                              call == Call::Scan;
            const auto ns = static_cast<double>(r.measured.callHostNs[k]);
            s.hostShare[static_cast<std::size_t>(stmt ? Layer::Btree
                                                      : Layer::Db)] += ns;
            in_calls += ns;
        }
        const auto total = static_cast<double>(r.hostNs);
        for (std::size_t l = 0; l < kLayers; ++l)
            s.hostShare[l] = ratio(s.hostShare[l], total);
        s.hostShare[kLayers] = ratio(total - in_calls, total);
    }
    return s;
}

template <typename F>
double
medianOf(const std::vector<Summary> &v, F field)
{
    std::vector<double> xs;
    for (const Summary &s : v)
        xs.push_back(field(s));
    return median(xs);
}

// ---- metrics ----------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The end-to-end metrics: sim from trial @p r, host from @p runs. */
std::vector<Metric>
endToEnd(const TrialResult &r, const std::vector<Summary> &runs,
         double rss_mb)
{
    const double sim_s = static_cast<double>(r.simNs) / 1e9;
    const double user = static_cast<double>(r.userBytes);
    const double block = nvwal::CostModel::nexus5().blockSize;
    return {
        {"setup_s", medianOf(runs, [](const Summary &s) { return s.setupS; }),
         "s"},
        {"sim_txn_per_s", ratio(static_cast<double>(r.txns), sim_s),
         "txn/sim_s"},
        {"sim_commit_p50_us", quantile(r.commitSim, 0.5) / 1e3, "sim_us"},
        {"sim_commit_p999_us", quantile(r.commitSim, 0.999) / 1e3, "sim_us"},
        {"host_txn_per_s",
         medianOf(runs, [](const Summary &s) { return s.hostTxnPerS; }),
         "txn/ref_s"},
        {"host_commit_p50_us",
         medianOf(runs, [](const Summary &s) { return s.hostCommitP50Us; }),
         "ref_us"},
        {"host_read_per_s",
         medianOf(runs, [](const Summary &s) { return s.hostReadPerS; }),
         "reads/ref_s"},
        {"sim_recovery_ms",
         ratio(static_cast<double>(r.recoverySimNs) / 1e6,
               static_cast<double>(r.recoveries)),
         "sim_ms"},
        {"nvram_bytes_per_user_byte",
         ratio(static_cast<double>(stat(r.delta, st::kNvramBytesLogged)), user),
         "B/B"},
        {"flash_bytes_per_user_byte",
         ratio(static_cast<double>(stat(r.delta, st::kBlocksWritten)) * block,
               user),
         "B/B"},
        {"rss_peak_mb", rss_mb, "MiB"},
    };
}

/** The per-layer metrics of traced trial @p t. */
std::vector<Metric>
perLayer(const TrialResult &t, const std::vector<Summary> &traced,
         const std::vector<Summary> &untraced)
{
    const nvwal::StatsSnapshot &d = t.delta;
    const auto c = [&](const char *name) {
        return static_cast<double>(stat(d, name));
    };
    const double txns = static_cast<double>(t.txns);
    const double reads = static_cast<double>(t.readOps);
    const auto per_txn = [&](const char *name) { return ratio(c(name), txns); };
    const auto &sim = t.calls.sim;
    const auto &self = t.calls.selfSim;
    const auto span_p50 = [&](const char *name) {
        const auto it = t.measured.engineSpanNs.find(name);
        return it == t.measured.engineSpanNs.end() ? 0.0
                                                   : quantile(it->second, 0.5);
    };
    const double mat_hits = c(st::kWalMaterializeCacheHits);
    const double mat_miss = c(st::kWalMaterializeCacheMisses);
    const double rounds = c(st::kCheckpoints);
    const double pages = c(st::kWalCkptPagesWritten);
    const double bump = c(st::kWalBumpAllocs);
    const double snap_reads = c(st::kSnapshotReads);
    const double snap_hits = c(st::kSnapshotCacheHits);
    double recover_ns = 0;
    if (const auto it = t.recovery.engineSpanNs.find("wal.recover");
        it != t.recovery.engineSpanNs.end())
        for (std::uint64_t ns : it->second)
            recover_ns += static_cast<double>(ns);
    const double recoveries = static_cast<double>(t.recoveries);
    const double sim_ns = static_cast<double>(t.simNs);
    const std::size_t kc = static_cast<std::size_t>(Call::Commit);

    std::vector<Metric> m = {
        {"db.commit_sim_ns_p50", quantile(sim[kc], 0.5), "sim_ns"},
        {"db.commit_self_sim_ns_p50", quantile(self[kc], 0.5), "sim_ns"},
        {"db.commit_host_ns_p50",
         medianOf(traced, [](const Summary &s) { return s.commitCallHostNs; }),
         "ref_ns"},
        {"db.begin_host_ns_p50",
         medianOf(traced, [](const Summary &s) { return s.beginCallHostNs; }),
         "ref_ns"},
        {"db.conflicts_per_commit", per_txn(st::kWalLogConflicts), "1/txn"},
        {"db.commit_useful_ratio",
         ratio(txns, static_cast<double>(t.commitAttempts)), "ratio"},
        {"db.mw_hardens_per_txn", per_txn(st::kWalMwHardens), "1/txn"},
        {"fr.records_per_txn", per_txn(st::kFrRecordsWritten), "1/txn"},
        {"btree.write_stmt_sim_ns_p50",
         quantile(concat(t.calls, {Call::Insert, Call::Update, Call::Remove},
                         false),
                  0.5),
         "sim_ns"},
        {"btree.write_stmt_host_ns_p50",
         medianOf(traced, [](const Summary &s) { return s.writeStmtHostNs; }),
         "ref_ns"},
        {"btree.get_host_ns_p50",
         medianOf(traced, [](const Summary &s) { return s.getCallHostNs; }),
         "ref_ns"},
        {"pager.cache_hit_rate",
         ratio(c(st::kPagerCacheHits),
               c(st::kPagerCacheHits) + c(st::kPagerReads)),
         "ratio"},
        {"pager.snapshot_hit_rate", ratio(snap_hits, snap_reads), "ratio"},
        {"pager.fetches_per_read", ratio(snap_reads - snap_hits, reads),
         "1/read"},
        {"core.frames_per_txn", per_txn(st::kNvramFramesWritten), "1/txn"},
        {"core.diff_frame_share",
         ratio(c(st::kWalDiffFrames), c(st::kNvramFramesWritten)), "ratio"},
        {"core.full_frames_adaptive_per_txn",
         per_txn(st::kWalFullFramesAdaptive), "1/txn"},
        {"core.log_write_sim_ns_p50", span_p50("wal.log_write"), "sim_ns"},
        {"core.commit_mark_sim_ns_p50", span_p50("wal.commit_mark"), "sim_ns"},
        {"core.materialize_hit_rate", ratio(mat_hits, mat_hits + mat_miss),
         "ratio"},
        {"core.scan_steps_per_miss", ratio(c(st::kWalFrameScanSteps), mat_miss),
         "1/miss"},
        {"core.full_frame_shortcuts_per_miss",
         ratio(c(st::kWalFullFrameShortcuts), mat_miss), "1/miss"},
        {"core.frame_index_nodes_peak",
         static_cast<double>(t.frameIndexNodesPeak), "count"},
        {"ckpt.rounds_per_1k_txn", ratio(1000.0 * rounds, txns), "1/ktxn"},
        {"ckpt.sim_ns_p50", span_p50("wal.checkpoint"), "sim_ns"},
        {"ckpt.pages_per_round", ratio(pages, rounds), "1/round"},
        // Ascending pairs among consecutive writes: pages - rounds.
        {"ckpt.sequential_share",
         ratio(c(st::kWalCkptSequentialWrites), std::max(0.0, pages - rounds)),
         "ratio"},
        {"ckpt.pin_blocked_share", ratio(c(st::kCheckpointsPinBlocked), rounds),
         "ratio"},
        {"core.recover_sim_ns", ratio(recover_ns, recoveries), "sim_ns"},
        {"core.recovery_frames_discarded",
         ratio(static_cast<double>(
                   stat(t.recoveryDelta, st::kWalRecoveryFramesDiscarded)),
               recoveries),
         "count"},
        {"core.epoch_merge_txns",
         ratio(static_cast<double>(
                   stat(t.recoveryDelta, st::kWalEpochMergeTxns)),
               recoveries),
         "count"},
        {"heap.calls_per_txn", per_txn(st::kHeapCalls), "1/txn"},
        {"heap.sim_ns_per_txn", per_txn(st::kTimeHeapNs), "sim_ns/txn"},
        {"heap.bump_share", ratio(bump, bump + c(st::kWalNodeAllocs)), "ratio"},
        {"pmem.persist_barriers_per_txn", per_txn(st::kPersistBarriers),
         "1/txn"},
        {"pmem.memory_barriers_per_txn", per_txn(st::kMemoryBarriers), "1/txn"},
        {"pmem.flush_syscalls_per_txn", per_txn(st::kFlushSyscalls), "1/txn"},
        {"nvram.lines_flushed_per_txn", per_txn(st::kNvramLinesFlushed),
         "1/txn"},
        {"pmem.lines_deduped_per_txn", per_txn(st::kPmemFlushLinesDeduped),
         "1/txn"},
        {"pmem.ordering_sim_ns_per_txn",
         ratio(c(st::kTimeFlushNs) + c(st::kTimeBarrierNs) +
                   c(st::kTimePersistNs) + c(st::kTimeSyscallNs),
               txns),
         "sim_ns/txn"},
        {"pmem.memcpy_sim_ns_per_txn", per_txn(st::kTimeMemcpyNs),
         "sim_ns/txn"},
        {"nvram.bytes_read_per_read", ratio(c(st::kNvramBytesRead), reads),
         "B/read"},
        {"blockdev.blocks_written_per_txn", per_txn(st::kBlocksWritten),
         "1/txn"},
        {"blockdev.blocks_read_per_read", ratio(c(st::kBlocksRead), reads),
         "1/read"},
        {"fs.fsyncs_per_round", ratio(c(st::kFsyncs), rounds), "1/round"},
        {"failed_op_frac",
         ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)),
         "ratio"},
        {"durability_violations", static_cast<double>(t.durabilityViolations),
         "count"},
        // Point-get latency is a sum of a few cost-model constants
        // (statement CPU + page fetches), so its percentiles sit on
        // plateaus that rarely move with the seed: a read-path figure,
        // not an end-to-end gate.
        {"sim_read_p50_us", quantile(t.readSim, 0.5) / 1e3, "sim_us"},
        {"sim_read_p999_us", quantile(t.readSim, 0.999) / 1e3, "sim_us"},
        {"sim_commit_samples", static_cast<double>(t.commitSim.size()),
         "count"},
        {"sim_read_samples", static_cast<double>(t.readSim.size()), "count"},
        {"trace.events_dropped",
         static_cast<double>(t.measured.eventsDropped +
                             t.recovery.eventsDropped),
         "count"},
        {"trace.host_overhead_share",
         ratio(medianOf(traced, [](const Summary &s) { return s.hostS; }),
               medianOf(untraced, [](const Summary &s) { return s.hostS; })) -
             1.0,
         "ratio"},
        // Machine speed only: an engine change that moves this has
        // leaked into the calibration.
        {"host.calib_slice_ns",
         medianOf(untraced, [](const Summary &s) { return s.calibSliceNs; }),
         "ns"},
        {"ledger.unattributed_sim_ns",
         std::fabs(sim_ns - static_cast<double>(t.measured.callSimNs)),
         "sim_ns"},
    };
    for (std::size_t l = 0; l < kLayers; ++l) {
        const std::string layer = layerName(static_cast<Layer>(l));
        m.push_back({"ledger." + layer + ".sim_self_share",
                     ratio(static_cast<double>(t.measured.selfSimNs[l]), sim_ns),
                     "ratio"});
    }
    for (std::size_t l : {std::size_t{0}, std::size_t{1}, kLayers}) {
        const std::string layer =
            l == kLayers ? "driver" : layerName(static_cast<Layer>(l));
        m.push_back({"ledger." + layer + ".host_share",
                     medianOf(traced,
                              [l](const Summary &s) { return s.hostShare[l]; }),
                     "ratio"});
    }
    return m;
}

// ---- output -----------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": " +
               jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printLedger(const TrialResult &t)
{
    const double sim_ns = static_cast<double>(t.simNs);
    const double txns = static_cast<double>(t.txns);
    std::printf("ledger of the measured region (self time per src/ module)\n"
                "  %-8s %16s %8s %14s\n", "layer", "self sim ns", "share",
                "sim ns/txn");
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
        const std::uint64_t ns = t.measured.selfSimNs[l];
        total += ns;
        std::printf("  %-8s %16llu %8.4f %14.1f\n",
                    layerName(static_cast<Layer>(l)),
                    static_cast<unsigned long long>(ns),
                    ratio(static_cast<double>(ns), sim_ns),
                    ratio(static_cast<double>(ns), txns));
    }
    std::printf("  %-8s %16llu   (SimClock delta %llu, unattributed %lld)\n",
                "total", static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(t.simNs),
                static_cast<long long>(t.simNs) -
                    static_cast<long long>(total));
    std::printf("  %-18s %10s %16s\n", "call", "count", "host ns");
    for (std::size_t k = 0; k < kCalls; ++k) {
        if (t.measured.callCount[k] == 0)
            continue;
        std::printf("  %-18s %10llu %16llu\n", callName(static_cast<Call>(k)),
                    static_cast<unsigned long long>(t.measured.callCount[k]),
                    static_cast<unsigned long long>(t.measured.callHostNs[k]));
    }
}

double
rssPeakMb()
{
    struct rusage ru
    {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::vector<std::string> problems;
    const auto note = [&](std::string p) {
        if (problems.size() < 32)
            problems.push_back(std::move(p));
    };

    // ---- trials: untraced, or alternating untraced/traced ----
    const std::uint64_t t0 = hostNow();
    std::vector<Summary> untraced, traced;
    TrialResult firstUntraced, firstTraced;
    std::uint64_t attempted = 0, failed = 0;
    for (int i = 0;; ++i) {
        TrialSpec spec;
        spec.workload = args.workload;
        spec.seed = args.seed;
        spec.scale = args.scale;
        spec.traced = args.trace && i % 2 == 1;
        if (spec.traced && traced.empty())
            spec.spansOut = args.spansOut;
        TrialResult r = runTrial(spec);
        for (const std::string &p : r.problems)
            note("trial " + std::to_string(i) + ": " + p);
        attempted += r.attempted;
        failed += r.failed;
        const Summary s = summarize(r);
        std::printf("trial %d%s: setup %.3f s, host %.3f s (kernel %.0f ns, "
                    "x%.3f -> %.3f ref_s), %.0f txn/ref_s, commit p50 %.1f "
                    "ref_us, %.0f reads/ref_s\n",
                    i, spec.traced ? " (traced)" : "", s.setupS, s.rawHostS,
                    s.calibSliceNs, s.timeScale, s.hostS, s.hostTxnPerS,
                    s.hostCommitP50Us, s.hostReadPerS);
        (spec.traced ? traced : untraced).push_back(s);
        if (spec.traced && traced.size() == 1)
            firstTraced = std::move(r);
        else if (!spec.traced && untraced.size() == 1)
            firstUntraced = std::move(r);
        const int n = i + 1;
        const double elapsed = static_cast<double>(hostNow() - t0) / 1e9;
        if (args.maxTrials != 0 && n >= args.maxTrials)
            break;
        if (n >= args.minTrials && elapsed >= args.seconds)
            break;
    }
    const TrialResult &u = firstUntraced;

    // ---- checks ----
    for (const Summary &s : untraced)
        if (s.fingerprint != untraced.front().fingerprint)
            note("simulated figures differ between trials of one seed");
    if (args.scale >= 1.0 &&
        (u.commitSim.size() < 10000 || u.readSim.size() < 10000))
        note("fewer than 10,000 commit or read samples for p99.9");
    if (args.trace) {
        for (const Summary &s : traced)
            if (s.fingerprint != untraced.front().fingerprint)
                note("tracing changed the simulated figures");
        for (const std::string &g : firstTraced.measured.gaps)
            note("ledger (measured): " + g);
        for (const std::string &g : firstTraced.recovery.gaps)
            note("ledger (recovery): " + g);
    }

    // ---- report ----
    std::printf("e2ebench workload=%s seed=%llu trace=%d trials=%zu+%zu "
                "(untraced+traced)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                untraced.size(), traced.size());
    std::printf("shape: rows %llu -> %llu, txns %llu, commit attempts %llu, "
                "conflicts %llu, reads %llu, samples commit=%zu read=%zu\n",
                static_cast<unsigned long long>(u.shape.initialRows),
                static_cast<unsigned long long>(u.shape.finalRows),
                static_cast<unsigned long long>(u.txns),
                static_cast<unsigned long long>(u.commitAttempts),
                static_cast<unsigned long long>(u.shape.conflicts),
                static_cast<unsigned long long>(u.readOps), u.commitSim.size(),
                u.readSim.size());
    std::printf("sim fingerprint %016llx\n",
                static_cast<unsigned long long>(untraced.front().fingerprint));

    const std::vector<Metric> e2e = endToEnd(u, untraced, rssPeakMb());
    std::vector<Metric> sim_part, host_part;
    for (const Metric &m : e2e) {
        // Simulated units are sim_* and ratios of counted bytes.
        const bool sim = m.unit.find("sim_") != std::string::npos ||
                         m.unit == "B/B";
        (sim ? sim_part : host_part).push_back(m);
    }
    printMetrics("sim (modeled platform: Nexus 5, 2 us NVRAM, UH+LS+Diff)",
                 sim_part);
    printMetrics("host (this machine)", host_part);
    std::printf("correctness\n  attempted ops %llu, failed ops %llu, "
                "failed_op_frac %.6g, durability_violations %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(u.durabilityViolations));

    std::vector<Metric> layers;
    if (args.trace) {
        layers = perLayer(firstTraced, traced, untraced);
        printLedger(firstTraced);
        printMetrics("per-layer (sim_* = modeled platform, ns = this machine)",
                     layers);
    }
    for (const std::string &p : problems)
        std::printf("PROBLEM: %s\n", p.c_str());

    if (!args.report.empty()) {
        std::FILE *f = std::fopen(args.report.c_str(), "wb");
        if (f != nullptr) {
            std::string shape = "{\"initial_rows\": " + num(u.shape.initialRows) +
                                ", \"final_rows\": " + num(u.shape.finalRows) +
                                ", \"txns\": " + num(u.txns) +
                                ", \"commit_attempts\": " +
                                num(u.commitAttempts) +
                                ", \"conflicts\": " + num(u.shape.conflicts);
            for (std::size_t k = 0; k < kCalls; ++k)
                shape += std::string(", ") +
                         jsonString(callName(static_cast<Call>(k))) + ": " +
                         num(u.shape.statements[k]);
            shape += "}";
            std::fprintf(f,
                         "{\"workload\": %s, \"seed\": %llu, "
                         "\"fingerprint\": \"%016llx\", \"problems\": %zu, "
                         "\"shape\": %s, \"end_to_end\": %s, "
                         "\"per_layer\": %s}\n",
                         jsonString(args.workload).c_str(),
                         static_cast<unsigned long long>(args.seed),
                         static_cast<unsigned long long>(
                             untraced.front().fingerprint),
                         problems.size(), shape.c_str(),
                         metricsJson(e2e).c_str(), metricsJson(layers).c_str());
            std::fclose(f);
        } else {
            note("cannot write " + args.report);
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                problems.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(args.trace ? layers : e2e).c_str());
    return 0;
}
