/**
 * @file
 * Tests for adaptive logging granularity (DESIGN.md §14): the
 * diff-vs-full-page decision driven by the observed dirty ratio
 * (NvwalLog::kAdaptiveFullFramePct), its counters, the
 * pager-side EWMA, and crash safety of mixed-granularity logs --
 * pessimistic and adversarial fault sweeps over workloads that ship
 * both byte-diff and promoted full-page frames (the stride-1
 * pessimistic sweep includes a power-off between every full-page
 * frame append and its commit mark), plus a multi-writer reopen
 * whose optimistic commits mix both granularities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/nvwal_log.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "db/env.hpp"
#include "faultsim/crash_sweep.hpp"
#include "pager/page_source.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;
constexpr std::uint32_t kReserved = 24;

class AdaptiveGranularityTest : public ::testing::Test
{
  protected:
    AdaptiveGranularityTest()
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
    openLog()
    {
        log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                         kPageSize, kReserved, config,
                                         env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log->recover(&db_size));
    }

    /**
     * Commit one frame for page 3 whose dirty ranges cover
     * @p dirty_bytes starting at 0, optionally with a pager-side
     * EWMA claim.
     */
    void
    commitDirty(const ByteBuffer &page, std::uint32_t dirty_bytes,
                std::uint8_t observed_pct = 0)
    {
        DirtyRanges ranges;
        ranges.mark(0, dirty_bytes);
        std::vector<FrameWrite> frames{FrameWrite{
            3, testutil::spanOf(page), &ranges, observed_pct}};
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 4}}));
    }

    std::uint64_t promoted() const
    { return env.stats.get(stats::kWalFullFramesAdaptive); }
    std::uint64_t diffs() const
    { return env.stats.get(stats::kWalDiffFrames); }
    std::uint64_t shortcuts() const
    { return env.stats.get(stats::kWalFullFrameShortcuts); }

    /** @p page with only its first @p prefix bytes applied to a
     *  zero base -- what a diff-only chain materializes to. */
    static ByteBuffer
    diffOverZeroBase(const ByteBuffer &page, std::uint32_t prefix)
    {
        ByteBuffer expected(kPageSize, 0);
        std::copy(page.begin(), page.begin() + prefix,
                  expected.begin());
        return expected;
    }

    Env env;
    DbFile dbFile;
    NvwalConfig config;  // UH+LS+Diff defaults
    std::unique_ptr<NvwalLog> log;
};

/** > 50% of the page dirty ships one full-page frame. */
TEST_F(AdaptiveGranularityTest, HeavyCommitPromotesToFullFrame)
{
    openLog();
    const ByteBuffer page = testutil::makeValue(kPageSize, 7);
    commitDirty(page, 3 * kPageSize / 4);  // 75% dirty
    EXPECT_EQ(promoted(), 1u);
    EXPECT_EQ(diffs(), 0u);

    // The promoted frame carries the WHOLE page (not just the dirty
    // 75%) and anchors the read path's full-frame shortcut -- it is
    // wire-identical to a natural full-page frame.
    const std::uint64_t shortcuts_before = shortcuts();
    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, page);
    EXPECT_EQ(shortcuts(), shortcuts_before + 1);
}

/** A small diff stays a diff. */
TEST_F(AdaptiveGranularityTest, LightCommitStaysDiff)
{
    openLog();
    const ByteBuffer page = testutil::makeValue(kPageSize, 8);
    commitDirty(page, 400);  // ~10% dirty
    EXPECT_EQ(promoted(), 0u);
    EXPECT_EQ(diffs(), 1u);

    // Only the 400 dirty bytes shipped; the rest replays from the
    // (zero) base image.
    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, diffOverZeroBase(page, 400));
}

/** The decision boundary is exclusive: exactly 50% stays diff. */
TEST_F(AdaptiveGranularityTest, ThresholdBoundaryIsExclusive)
{
    openLog();
    const ByteBuffer page = testutil::makeValue(kPageSize, 9);
    commitDirty(page, kPageSize / 2);  // exactly 50%
    EXPECT_EQ(promoted(), 0u);
    EXPECT_EQ(diffs(), 1u);
}

/** The pager's EWMA overrides this commit's ranges when provided. */
TEST_F(AdaptiveGranularityTest, ObservedDirtyPctOverridesRanges)
{
    openLog();
    const ByteBuffer page = testutil::makeValue(kPageSize, 12);
    // Small current diff, but history says the page runs hot.
    commitDirty(page, 200, /*observed_pct=*/80);
    EXPECT_EQ(promoted(), 1u);
    // Large current diff, but history says the page runs cold: the
    // EWMA wins in both directions.
    commitDirty(page, 3 * kPageSize / 4, /*observed_pct=*/20);
    EXPECT_EQ(promoted(), 1u);
    EXPECT_EQ(diffs(), 1u);
}

/** A natural full-page write is not counted as a promotion. */
TEST_F(AdaptiveGranularityTest, NaturalFullPageIsNotCountedAdaptive)
{
    openLog();
    const ByteBuffer page = testutil::makeValue(kPageSize, 13);
    commitDirty(page, kPageSize);
    EXPECT_EQ(promoted(), 0u);
    // ...nor as a byte-diff: the counters partition only the frames
    // the adaptive decision ruled on.
    EXPECT_EQ(diffs(), 0u);
    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, page);
}

/** A promoted frame anchors later reads (truncates the replay). */
TEST_F(AdaptiveGranularityTest, PromotedFrameBecomesReplayAnchor)
{
    openLog();
    ByteBuffer page = testutil::makeValue(kPageSize, 14);
    commitDirty(page, 300);                // diff chain head
    commitDirty(page, 3 * kPageSize / 4);  // promoted -> anchor
    page[100] = 0xEE;
    commitDirty(page, 200);                // trailing diff

    const std::uint64_t shortcuts_before =
        env.stats.get(stats::kWalFullFrameShortcuts);
    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, page);
    EXPECT_EQ(env.stats.get(stats::kWalFullFrameShortcuts),
              shortcuts_before + 1);
}

/** The pager-side EWMA seeds with the first ratio, then averages. */
TEST(CachedPageEwma, SeedsThenSmoothes)
{
    CachedPage page;
    page.buf.assign(kPageSize, 0);
    EXPECT_EQ(page.noteDirtyRatio(), 0u);  // nothing dirty yet

    page.dirty.mark(0, kPageSize / 2);     // 50%
    EXPECT_EQ(page.noteDirtyRatio(), 50u);
    page.dirty.clear();

    page.dirty.mark(0, kPageSize / 4);     // 25% -> (50+25+1)/2 = 38
    EXPECT_EQ(page.noteDirtyRatio(), 38u);
    page.dirty.clear();

    // Clean commits leave the EWMA untouched.
    EXPECT_EQ(page.noteDirtyRatio(), 38u);

    page.dirty.mark(0, kPageSize);         // 100% -> (38+100+1)/2 = 69
    EXPECT_EQ(page.noteDirtyRatio(), 69u);
}

// ---- crash safety of mixed-granularity logs ------------------------

/**
 * A workload whose transactions alternate between light updates
 * (byte-diff frames) and heavy multi-page rewrites the adaptive
 * decision promotes to full-page frames. Keys live in the warmup so
 * the sweep updates existing rows.
 */
faultsim::Workload
mixedGranularityTxns(int txns)
{
    faultsim::Workload w;
    for (int txn = 0; txn < txns; ++txn) {
        w.phase("mixed txn " + std::to_string(txn));
        w.begin();
        // Light: one small update -> a diff frame.
        w.insert(500 + txn,
                 testutil::makeValue(60, 7000 + txn));
        if (txn % 2 == 1) {
            // Heavy: rewrite two large rows on the same leaf; the
            // page's dirty ratio crosses the 50% default and the
            // commit ships one promoted full-page frame.
            w.update(9000, testutil::makeValue(1500, 100 + txn));
            w.update(9001, testutil::makeValue(1500, 200 + txn));
        }
        w.commit();
    }
    return w;
}

faultsim::SweepConfig
mixedSweepConfig()
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db.walMode = WalMode::Nvwal;
    config.db.nvwal.nvBlockSize = 4096;
    config.db.nvwal.diffLogging = true;
    config.db.nvwal.userHeap = true;
    // Warmup seeds the heavy rows the sweep rewrites.
    config.warmup.phase("warmup");
    config.warmup.begin();
    config.warmup.insert(9000, testutil::makeValue(1500, 1));
    config.warmup.insert(9001, testutil::makeValue(1500, 2));
    config.warmup.commit();
    config.workload = mixedGranularityTxns(4);
    return config;
}

/**
 * The mixed workload really does ship both frame granularities --
 * driven against a live Database with the sweep's exact
 * configuration, so the crash sweeps below provably exercise both
 * diff frames and adaptive full-page promotions.
 */
TEST(AdaptiveGranularityCrash, MixedWorkloadShipsBothGranularities)
{
    faultsim::SweepConfig config = mixedSweepConfig();
    Env env(config.env);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->insert(
        9000, testutil::spanOf(testutil::makeValue(1500, 1))));
    NVWAL_CHECK_OK(db->insert(
        9001, testutil::spanOf(testutil::makeValue(1500, 2))));
    NVWAL_CHECK_OK(db->commit());
    for (int txn = 0; txn < 4; ++txn) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(
            500 + txn, testutil::spanOf(testutil::makeValue(60, txn))));
        if (txn % 2 == 1) {
            NVWAL_CHECK_OK(db->update(
                9000,
                testutil::spanOf(testutil::makeValue(1500, 100 + txn))));
            NVWAL_CHECK_OK(db->update(
                9001,
                testutil::spanOf(testutil::makeValue(1500, 200 + txn))));
        }
        NVWAL_CHECK_OK(db->commit());
    }
    EXPECT_GT(env.stats.get(stats::kWalFullFramesAdaptive), 0u);
    EXPECT_GT(env.stats.get(stats::kWalDiffFrames), 0u);
}

/**
 * Pessimistic stride-1 sweep: every persistence-relevant device op
 * of the mixed workload is a crash point -- including the gap
 * between a promoted full-page frame's append and its commit mark,
 * where recovery must discard the unmarked full frame and keep the
 * page's earlier diff chain.
 */
TEST(AdaptiveGranularityCrash, PessimisticSweepEveryDeviceOp)
{
    faultsim::SweepConfig config = mixedSweepConfig();
    config.policies.push_back(faultsim::PolicyRun{});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_EQ(report.replays, report.crashes);
    EXPECT_EQ(report.commitEvents, 4u);
}

/**
 * Adversarial multi-seed sweep: random cache-line survival across a
 * log tail holding promoted full-page frames next to byte-diffs
 * must still recover a committed prefix (a torn 4 KB frame is the
 * largest single unit the checksum chain has to reject).
 */
TEST(AdaptiveGranularityCrash, AdversarialSweepMultiSeed)
{
    faultsim::SweepConfig config = mixedSweepConfig();
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2, 3, 4},
                            0.5});
    config.maxPoints = 40;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GE(report.pointsSwept, 1u);
    EXPECT_LE(report.pointsSwept, 40u);
    EXPECT_EQ(report.replays, report.pointsSwept * 4u);
}

/**
 * Multi-writer: commits from two optimistic connections holding a mix
 * of diff and promoted full-page frames recover correctly at reopen
 * (commit order, newest value wins, integrity intact).
 */
TEST(AdaptiveGranularityCrash, MultiWriterMixedGranularityReopen)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = true;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));

    NVWAL_CHECK_OK(a->begin());
    NVWAL_CHECK_OK(
        a->insert(9000, testutil::spanOf(
                            testutil::makeValue(1500, 1))));
    NVWAL_CHECK_OK(
        a->insert(9001, testutil::spanOf(
                            testutil::makeValue(1500, 2))));
    NVWAL_CHECK_OK(a->commit(CommitOptions{}));
    CommitOptions no_wait;
    no_wait.durability = Durability::Async;
    no_wait.waitForHarden = false;

    // Alternate connections; even rounds write heavy commits (the
    // adaptive decision promotes them), odd rounds small diffs, and
    // the tail stays un-hardened (clean close, not a crash).
    for (int round = 0; round < 6; ++round) {
        Connection &conn = (round % 2 == 0) ? *a : *b;
        NVWAL_CHECK_OK(conn.begin());
        if (round % 2 == 0) {
            NVWAL_CHECK_OK(conn.update(
                9000, testutil::spanOf(
                          testutil::makeValue(1500, 10 + round))));
            NVWAL_CHECK_OK(conn.update(
                9001, testutil::spanOf(
                          testutil::makeValue(1500, 20 + round))));
        } else {
            NVWAL_CHECK_OK(conn.insert(
                100 + round, testutil::spanOf(
                                 testutil::makeValue(60, round))));
        }
        NVWAL_CHECK_OK(
            conn.commit(round < 4 ? no_wait : CommitOptions{}));
    }
    const std::uint64_t promoted =
        db->statValue(stats::kWalFullFramesAdaptive);
    EXPECT_GT(promoted, 0u);
    EXPECT_GT(db->statValue(stats::kWalDiffFrames), 0u);
    a.reset();
    b.reset();
    db.reset();

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    EXPECT_TRUE(db->multiWriterActive());
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(9000, &out));
    EXPECT_EQ(out, testutil::makeValue(1500, 14));  // round 4's update
    NVWAL_CHECK_OK(db->get(9001, &out));
    EXPECT_EQ(out, testutil::makeValue(1500, 24));
    for (int round = 1; round < 6; round += 2) {
        NVWAL_CHECK_OK(db->get(100 + round, &out));
        EXPECT_EQ(out, testutil::makeValue(60, round));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

} // namespace
} // namespace nvwal
