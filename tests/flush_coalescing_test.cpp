/**
 * @file
 * Tests for the coalesced lazy synchronization path (DESIGN.md §9):
 * cache lines shared by adjacent small diffs are flushed once,
 * marshalled frame placement collapses a transaction's flush batch
 * into contiguous runs, eager mode is unaffected, and recovery over
 * the marshalled-placement layout is unchanged (crash sweep).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/nvwal_log.hpp"
#include "db/env.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;
constexpr std::uint32_t kReserved = 24;

class FlushCoalescingTest : public ::testing::Test
{
  protected:
    FlushCoalescingTest()
        : env(makeEnvConfig()), dbFile(env.fs, "t.db", kPageSize)
    {
        NVWAL_CHECK_OK(dbFile.open());
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::tuna(500);
        return c;
    }

    void
    openLog(SyncMode sync, DiffGranularity granularity)
    {
        config.syncMode = sync;
        config.diffLogging = true;
        config.diffGranularity = granularity;
        config.userHeap = true;
        log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                         kPageSize, kReserved, config,
                                         env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log->recover(&db_size));
    }

    Env env;
    DbFile dbFile;
    NvwalConfig config;
    std::unique_ptr<NvwalLog> log;
};

/**
 * Two small diffs (far enough apart in the page that DirtyRanges
 * keeps them as separate ranges) become two 40-byte frames placed
 * back to back in NVRAM, sharing cache lines; the lazy batch must
 * merge them into one flush run and count the deduplicated lines.
 */
TEST_F(FlushCoalescingTest, SharedLineDiffsFlushOnceAndCoalesce)
{
    openLog(SyncMode::Lazy, DiffGranularity::MultiRange);

    ByteBuffer page(kPageSize, 0);
    std::memset(page.data() + 0, 0x11, 8);
    std::memset(page.data() + 100, 0x22, 8);
    DirtyRanges ranges;
    ranges.mark(0, 8);
    ranges.mark(100, 108);
    ASSERT_EQ(ranges.ranges().size(), 2u);

    const auto coalesced0 = env.stats.get(stats::kWalFlushRangesCoalesced);
    const auto deduped0 = env.stats.get(stats::kPmemFlushLinesDeduped);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));

    // Two frames, one merged flush run.
    EXPECT_EQ(env.stats.get(stats::kWalFlushRangesCoalesced) - coalesced0,
              1u);
    EXPECT_GE(env.stats.get(stats::kPmemFlushLinesDeduped) - deduped0, 1u);

    // Correctness: the merged flush changes nothing about the data.
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(
        log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
}

/**
 * A diff whose frame straddles a cache-line boundary must be fully
 * covered by the coalesced flush: after a pessimistic power failure
 * (every unflushed line dropped), recovery reproduces the commit.
 */
TEST_F(FlushCoalescingTest, StraddlingDiffSurvivesPessimisticCrash)
{
    openLog(SyncMode::Lazy, DiffGranularity::MultiRange);

    // 50 dirty bytes starting mid-line: the frame spans at least
    // three cache lines and both its edges are unaligned.
    ByteBuffer page(kPageSize, 0);
    std::memset(page.data() + 27, 0x5A, 50);
    DirtyRanges ranges;
    ranges.mark(27, 77);
    std::vector<FrameWrite> frames{
        FrameWrite{5, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 5}}));

    env.powerFail(FailurePolicy::Pessimistic);

    auto fresh = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                            kPageSize, kReserved, config,
                                            env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh->recover(&db_size));
    EXPECT_EQ(db_size, 5u);
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(
        fresh->readPage(5, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
}

/**
 * Marshalled placement: a multi-frame transaction's frames sit back
 * to back in one node, so the whole lazy batch collapses into a
 * single contiguous flush run (full-page frames are line-aligned;
 * nothing is deduplicated, only merged).
 */
TEST_F(FlushCoalescingTest, MarshalledTxnCollapsesToOneFlushRun)
{
    openLog(SyncMode::Lazy, DiffGranularity::SingleRange);

    ByteBuffer p3 = testutil::makeValue(kPageSize, 3);
    ByteBuffer p4 = testutil::makeValue(kPageSize, 4);
    DirtyRanges full;
    full.mark(0, kPageSize);

    const auto coalesced0 = env.stats.get(stats::kWalFlushRangesCoalesced);
    const auto deduped0 = env.stats.get(stats::kPmemFlushLinesDeduped);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(p3), &full},
        FrameWrite{4, testutil::spanOf(p4), &full}};
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 4}}));

    // Two full-page frames merged into one run. Frames are 8-byte
    // aligned, so the only line both frames can touch is the one
    // straddling their shared boundary.
    EXPECT_EQ(env.stats.get(stats::kWalFlushRangesCoalesced) - coalesced0,
              1u);
    EXPECT_LE(env.stats.get(stats::kPmemFlushLinesDeduped) - deduped0, 1u);
    // The reservation put both frames (2 x 4128 bytes) in one node.
    EXPECT_EQ(log->nodeCount(), 1u);

    ByteBuffer out(kPageSize);
    ASSERT_TRUE(
        log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p3);
    ASSERT_TRUE(
        log->readPage(4, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p4);
}

/** Eager mode flushes per frame; the coalescer must stay out. */
TEST_F(FlushCoalescingTest, EagerBatchUnaffected)
{
    openLog(SyncMode::Eager, DiffGranularity::MultiRange);

    ByteBuffer page(kPageSize, 0);
    std::memset(page.data() + 0, 0x33, 8);
    std::memset(page.data() + 100, 0x44, 8);
    DirtyRanges ranges;
    ranges.mark(0, 8);
    ranges.mark(100, 108);
    ASSERT_EQ(ranges.ranges().size(), 2u);

    const auto coalesced0 = env.stats.get(stats::kWalFlushRangesCoalesced);
    const auto deduped0 = env.stats.get(stats::kPmemFlushLinesDeduped);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));

    EXPECT_EQ(env.stats.get(stats::kWalFlushRangesCoalesced) - coalesced0,
              0u);
    EXPECT_EQ(env.stats.get(stats::kPmemFlushLinesDeduped) - deduped0, 0u);

    ByteBuffer out(kPageSize);
    ASSERT_TRUE(
        log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
}

/**
 * Crash sweep over the marshalled-placement + coalesced-sync path:
 * multi-insert transactions (several frames per commit, placed
 * contiguously) swept exhaustively under the pessimistic policy and
 * under the adversarial policy with two seeds. Recovery invariants
 * must hold at every device-operation crash point.
 */
TEST(FlushCoalescingSweep, MarshalledPlacementRecoveryUnchanged)
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db.walMode = WalMode::Nvwal;
    config.db.nvwal.syncMode = SyncMode::Lazy;
    config.db.nvwal.diffLogging = true;
    config.db.nvwal.userHeap = true;
    config.db.nvwal.nvBlockSize = 4096;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::standardTxns(1, 2);
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {7, 11}, 0.5});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.totalOps, 0u);
}

} // namespace
} // namespace nvwal
