/**
 * @file
 * Wall-clock micro-benchmarks (google-benchmark) of the real data
 * path -- the code that executes regardless of the simulated cost
 * model: slotted-page operations, dirty-range tracking, checksums,
 * NVWAL frame writes and end-to-end transactions.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "btree/page_view.hpp"
#include "core/nvwal_log.hpp"

using namespace nvwal;
using namespace nvwal::bench;

// The DB-level benchmarks touch enough state (pager cache, WAL tail
// node, heap free lists) that cold first iterations skew single-shot
// numbers; give them an explicit warmup window and report the
// median/mean over repetitions instead of one run.
#define NVWAL_BENCHMARK_REPEATED(fn) \
    BENCHMARK(fn)->MinWarmUpTime(0.05)->Repetitions(3)-> \
        ReportAggregatesOnly(true)

namespace
{

void
BM_PageLeafInsert(benchmark::State &state)
{
    ByteBuffer page(4096, 0);
    ByteBuffer value(100, 0xAB);
    RowId key = 0;
    DirtyRanges dirty;
    PageView view(ByteSpan(page.data(), page.size()), 4072, &dirty);
    view.initLeaf();
    for (auto _ : state) {
        if (!view.leafFits(value.size())) {
            view.initLeaf();
            dirty.clear();
        }
        view.leafInsert(view.nCells(), ++key,
                        ConstByteSpan(value.data(), value.size()));
        benchmark::DoNotOptimize(page.data());
    }
}
BENCHMARK(BM_PageLeafInsert);

void
BM_PageLeafRemoveCompaction(benchmark::State &state)
{
    ByteBuffer page(4096, 0);
    ByteBuffer value(100, 0xCD);
    DirtyRanges dirty;
    PageView view(ByteSpan(page.data(), page.size()), 4072, &dirty);
    view.initLeaf();
    RowId key = 0;
    for (auto _ : state) {
        while (view.leafFits(value.size())) {
            view.leafInsert(view.nCells(), ++key,
                            ConstByteSpan(value.data(), value.size()));
        }
        state.PauseTiming();
        state.ResumeTiming();
        while (view.nCells() > 0)
            view.leafRemove(0);
        benchmark::DoNotOptimize(page.data());
    }
}
BENCHMARK(BM_PageLeafRemoveCompaction);

void
BM_DirtyRangeMark(benchmark::State &state)
{
    DirtyRanges ranges;
    std::uint32_t at = 0;
    for (auto _ : state) {
        at = (at + 97) % 4000;
        ranges.mark(at, at + 8);
        if (ranges.ranges().size() > 6)
            ranges.clear();
        benchmark::DoNotOptimize(ranges);
    }
}
BENCHMARK(BM_DirtyRangeMark);

void
BM_CumulativeChecksum4K(benchmark::State &state)
{
    const ByteBuffer data(4096, 0x5A);
    for (auto _ : state) {
        CumulativeChecksum sum;
        sum.update(ConstByteSpan(data.data(), data.size()));
        benchmark::DoNotOptimize(sum.value());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            4096);
}
BENCHMARK(BM_CumulativeChecksum4K);

void
BM_NvramLineCycle(benchmark::State &state)
{
    // The device's host cost per commit-sized persist: store 8 lines,
    // flush each, drain the queue -- the lazy-sync pattern of one
    // small NVWAL commit. The window walks a 32 MiB device, as the
    // e2ebench platform configures it.
    MetricsRegistry stats;
    NvramDevice dev(std::size_t{32} << 20, 64, stats);
    const ByteBuffer line(64, 0x5C);
    const NvOffset window = 8 * 64;
    NvOffset base = 0;
    for (auto _ : state) {
        for (NvOffset off = base; off < base + window; off += 64)
            dev.write(off, ConstByteSpan(line.data(), line.size()));
        for (NvOffset off = base; off < base + window; off += 64)
            dev.flushLine(off);
        dev.drainPersistQueue();
        base = (base + window) % (dev.size() - window);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            8);
}
BENCHMARK(BM_NvramLineCycle);

void
BM_PagerGetHit(benchmark::State &state)
{
    // A page-table hit with the registry attached.
    Env env;
    HitPager hits(env, "hit.db", &env.stats);
    for (auto _ : state) {
        CachedPage *page;
        NVWAL_CHECK_OK(hits.pager.getPage(hits.next(), &page));
        benchmark::DoNotOptimize(page);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PagerGetHit);

void
BM_BTreeInsertWallClock(benchmark::State &state)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x42);
    RowId key = 0;
    for (auto _ : state) {
        NVWAL_CHECK_OK(db->insert(
            ++key, ConstByteSpan(value.data(), value.size())));
        if (key % 5000 == 0) {
            state.PauseTiming();
            NVWAL_CHECK_OK(db->checkpoint());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
NVWAL_BENCHMARK_REPEATED(BM_BTreeInsertWallClock);

void
BM_TransactionCommitNvwal(benchmark::State &state)
{
    // Host-time cost of the full commit path (diff computation,
    // frame encode, simulated persistence bookkeeping).
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x11);
    RowId key = 0;
    std::int64_t committed = 0;
    for (auto _ : state) {
        NVWAL_CHECK_OK(db->begin());
        for (int i = 0; i < 4; ++i) {
            NVWAL_CHECK_OK(db->insert(
                ++key, ConstByteSpan(value.data(), value.size())));
        }
        NVWAL_CHECK_OK(db->commit());
        ++committed;
        if (committed % 2000 == 0) {
            state.PauseTiming();
            NVWAL_CHECK_OK(db->checkpoint());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(committed);
}
NVWAL_BENCHMARK_REPEATED(BM_TransactionCommitNvwal);

void
BM_TransactionCommitNvwalRecorderOff(benchmark::State &state)
{
    // Same commit path with the flight recorder disabled: the
    // zero-cost guard's wall-clock side. The recorder writes one
    // 40-byte plain-store record per begin/ack and never flushes or
    // fences, so the delta against BM_TransactionCommitNvwal is a
    // few memcpys per txn; the barrier/flush-count side of the claim
    // is asserted exactly (FlightRecorder tests, async_bounds gate).
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    config.flightRecorder = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x11);
    RowId key = 0;
    std::int64_t committed = 0;
    for (auto _ : state) {
        NVWAL_CHECK_OK(db->begin());
        for (int i = 0; i < 4; ++i) {
            NVWAL_CHECK_OK(db->insert(
                ++key, ConstByteSpan(value.data(), value.size())));
        }
        NVWAL_CHECK_OK(db->commit());
        ++committed;
        if (committed % 2000 == 0) {
            state.PauseTiming();
            NVWAL_CHECK_OK(db->checkpoint());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(committed);
}
NVWAL_BENCHMARK_REPEATED(BM_TransactionCommitNvwalRecorderOff);

void
BM_TransactionCommitNvwalTraced(benchmark::State &state)
{
    // Same commit path with the phase tracer enabled: the overhead
    // guard. Compare against BM_TransactionCommitNvwal; the delta is
    // the full tracing bill (ring stores + clock reads). The
    // disabled-tracer cost is a single branch per record site and is
    // within run-to-run noise (EXPERIMENTS.md, tracing overhead).
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    env.stats.tracer().setEnabled(true);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x11);
    RowId key = 0;
    std::int64_t committed = 0;
    for (auto _ : state) {
        NVWAL_CHECK_OK(db->begin());
        for (int i = 0; i < 4; ++i) {
            NVWAL_CHECK_OK(db->insert(
                ++key, ConstByteSpan(value.data(), value.size())));
        }
        NVWAL_CHECK_OK(db->commit());
        ++committed;
        if (committed % 2000 == 0) {
            state.PauseTiming();
            NVWAL_CHECK_OK(db->checkpoint());
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(committed);
}
NVWAL_BENCHMARK_REPEATED(BM_TransactionCommitNvwalTraced);

void
BM_WalReadHotPage(benchmark::State &state)
{
    // The materialized-page read path: one full-page frame plus a
    // run of small committed diffs, then repeated readPage() calls.
    // Every read replays from the latest full frame (EXPERIMENTS.md,
    // hot-path pass).
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbFile file(env.fs, "hot.db", 4096);
    NVWAL_CHECK_OK(file.open());
    NvwalConfig config;  // UH+LS+Diff defaults
    NvwalLog log(env.heap, env.pmem, file, 4096, 24, config,
                 env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(log.recover(&db_size));

    const PageNo page_no = 3;
    ByteBuffer page(4096, 0x3C);
    DirtyRanges full;
    full.mark(0, 4096);
    std::vector<FrameWrite> frames{
        FrameWrite{page_no, ConstByteSpan(page.data(), page.size()),
                   &full}};
    NVWAL_CHECK_OK(log.writeFrameGroup({{frames, page_no}}));
    for (int i = 0; i < 16; ++i) {
        page[static_cast<std::size_t>(64 * i)] ^= 0xFF;
        DirtyRanges diff;
        diff.mark(static_cast<std::uint32_t>(64 * i),
                  static_cast<std::uint32_t>(64 * i + 8));
        std::vector<FrameWrite> w{
            FrameWrite{page_no,
                       ConstByteSpan(page.data(), page.size()), &diff}};
        NVWAL_CHECK_OK(log.writeFrameGroup({{w, page_no}}));
    }

    ByteBuffer out(4096);
    for (auto _ : state) {
        NVWAL_CHECK_OK(
            log.readPage(page_no, ByteSpan(out.data(), out.size())));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
NVWAL_BENCHMARK_REPEATED(BM_WalReadHotPage);

void
BM_WalReadColdLongChain(benchmark::State &state)
{
    // Cold-miss variant of BM_WalReadHotPage: the read pins an early
    // horizon under a long committed diff chain, so every
    // readPageAt() must resolve its frame through the per-page radix
    // index (DESIGN.md section 14) with no full-frame anchor at or
    // below the horizon. range(0) is the chain length; the per-read
    // cost must stay flat (tree descent, not O(chain)) as it grows.
    const int chain = static_cast<int>(state.range(0));
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbFile file(env.fs, "cold.db", 4096);
    NVWAL_CHECK_OK(file.open());
    NvwalConfig config;  // UH+LS+Diff defaults
    NvwalLog log(env.heap, env.pmem, file, 4096, 24, config,
                 env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(log.recover(&db_size));

    const PageNo page_no = 3;
    ByteBuffer page(4096, 0x3C);
    DirtyRanges full;
    full.mark(0, 4096);
    std::vector<FrameWrite> frames{
        FrameWrite{page_no, ConstByteSpan(page.data(), page.size()),
                   &full}};
    NVWAL_CHECK_OK(log.writeFrameGroup({{frames, page_no}}));
    const CommitSeq horizon = log.commitSeq();
    log.pinSnapshot(horizon);
    for (int i = 0; i < chain; ++i) {
        DirtyRanges diff;
        const std::uint32_t at =
            static_cast<std::uint32_t>(64 * (i % 60));
        diff.mark(at, at + 8);
        std::vector<FrameWrite> w{
            FrameWrite{page_no,
                       ConstByteSpan(page.data(), page.size()), &diff}};
        NVWAL_CHECK_OK(log.writeFrameGroup({{w, page_no}}));
    }

    ByteBuffer out(4096);
    for (auto _ : state) {
        NVWAL_CHECK_OK(log.readPageAt(
            page_no, ByteSpan(out.data(), out.size()), horizon));
        benchmark::DoNotOptimize(out.data());
    }
    log.unpinSnapshot(horizon);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
NVWAL_BENCHMARK_REPEATED(BM_WalReadColdLongChain)
    ->ArgName("chain_frames")->Arg(16)->Arg(256);

void
BM_RecoveryScan(benchmark::State &state)
{
    // Rebuild-from-NVRAM cost as a function of committed frames.
    const int frames = static_cast<int>(state.range(0));
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x22);
    for (RowId k = 0; k < frames; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, ConstByteSpan(value.data(), value.size())));
    }
    db.reset();
    for (auto _ : state) {
        std::unique_ptr<Database> reopened;
        NVWAL_CHECK_OK(Database::open(env, config, &reopened));
        benchmark::DoNotOptimize(reopened->wal().framesSinceCheckpoint());
    }
}
NVWAL_BENCHMARK_REPEATED(BM_RecoveryScan)->Arg(100)->Arg(1000);

} // namespace

BENCHMARK_MAIN();
