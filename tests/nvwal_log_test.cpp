/**
 * @file
 * Unit tests for the NVWAL log itself: frame placement, differential
 * logging, all three sync modes, the user-level heap protocol,
 * checkpointing and post-crash recovery (paper sections 3 and 4).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "core/nvwal_log.hpp"
#include "db/env.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;
constexpr std::uint32_t kReserved = 24;

struct SchemeParam
{
    SchemeParam(SyncMode sync_, bool diff_, bool user_heap,
                const char *label_)
        : sync(sync_), diff(diff_), userHeap(user_heap), label(label_)
    {
    }

    SyncMode sync;
    bool diff;
    bool userHeap;
    /**
     * gtest prints a parameter it has no printer for as its raw bytes,
     * and ctest names each case by that dump: the padding is spelled
     * out so the dump holds no uninitialised bytes.
     */
    std::uint16_t zeroPad = 0;
    const char *label;
};
static_assert(std::has_unique_object_representations_v<SchemeParam>);

class NvwalLogTest : public ::testing::TestWithParam<SchemeParam>
{
  protected:
    NvwalLogTest()
        : env(makeEnvConfig()),
          dbFile(env.fs, "t.db", kPageSize)
    {
        NVWAL_CHECK_OK(dbFile.open());
        config.syncMode = GetParam().sync;
        config.diffLogging = GetParam().diff;
        config.userHeap = GetParam().userHeap;
        log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                         kPageSize, kReserved, config,
                                         env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log->recover(&db_size));
        EXPECT_EQ(db_size, 0u);
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::tuna(500);
        return c;
    }

    ByteBuffer
    makePage(std::uint64_t seed) const
    {
        ByteBuffer page = testutil::makeValue(kPageSize, seed);
        std::memset(page.data() + kPageSize - kReserved, 0, kReserved);
        return page;
    }

    Status
    commitPage(PageNo no, const ByteBuffer &page,
               const DirtyRanges &ranges, std::uint32_t db_size)
    {
        std::vector<FrameWrite> frames{
            FrameWrite{no, testutil::spanOf(page), &ranges}};
        return log->writeFrames(frames, true, db_size);
    }

    Status
    commitFullPage(PageNo no, const ByteBuffer &page,
                   std::uint32_t db_size)
    {
        DirtyRanges ranges;
        ranges.mark(0, kPageSize);
        return commitPage(no, page, ranges, db_size);
    }

    /** Reopen the log over the same NVRAM (volatile state rebuilt). */
    std::unique_ptr<NvwalLog>
    reopen(std::uint32_t *db_size)
    {
        auto fresh = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                                kPageSize, kReserved,
                                                config, env.stats);
        NVWAL_CHECK_OK(fresh->recover(db_size));
        return fresh;
    }

    Env env;
    DbFile dbFile;
    NvwalConfig config;
    std::unique_ptr<NvwalLog> log;
};

TEST_P(NvwalLogTest, WriteThenReadBack)
{
    const ByteBuffer page = makePage(1);
    NVWAL_CHECK_OK(commitFullPage(3, page, 3));
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
    EXPECT_GE(log->framesSinceCheckpoint(), 1u);
}

TEST_P(NvwalLogTest, DiffFramesLayerOverBase)
{
    // Commit a full page, then a small dirty range; the read must
    // reflect base + diff.
    ByteBuffer page = makePage(2);
    NVWAL_CHECK_OK(commitFullPage(3, page, 3));

    std::memset(page.data() + 100, 0xAB, 50);
    DirtyRanges ranges;
    ranges.mark(100, 150);
    NVWAL_CHECK_OK(commitPage(3, page, ranges, 3));

    ByteBuffer out(kPageSize);
    ASSERT_TRUE(log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
}

TEST_P(NvwalLogTest, CommittedStateSurvivesPessimisticPowerFailure)
{
    const ByteBuffer p3 = makePage(3);
    const ByteBuffer p4 = makePage(4);
    NVWAL_CHECK_OK(commitFullPage(3, p3, 4));
    NVWAL_CHECK_OK(commitFullPage(4, p4, 4));

    if (config.syncMode == SyncMode::ChecksumAsync) {
        // Asynchronous commit gives no pessimistic guarantee; its
        // crash behaviour is covered by dedicated tests below.
        return;
    }
    env.powerFail(FailurePolicy::Pessimistic);
    std::uint32_t db_size = 0;
    auto fresh = reopen(&db_size);
    EXPECT_EQ(db_size, 4u);
    ByteBuffer out(kPageSize);
    ASSERT_TRUE(fresh->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p3);
    ASSERT_TRUE(fresh->readPage(4, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p4);
}

TEST_P(NvwalLogTest, UncommittedFramesDiscardedOnRecovery)
{
    const ByteBuffer p3 = makePage(5);
    NVWAL_CHECK_OK(commitFullPage(3, p3, 3));
    // Frames without a commit mark...
    const ByteBuffer p4 = makePage(6);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    std::vector<FrameWrite> frames{
        FrameWrite{4, testutil::spanOf(p4), &ranges}};
    NVWAL_CHECK_OK(log->writeFrames(frames, false, 0));

    env.powerFail(FailurePolicy::AllSurvive);
    std::uint32_t db_size = 0;
    auto fresh = reopen(&db_size);
    EXPECT_EQ(db_size, 3u);
    ByteBuffer out(kPageSize);
    EXPECT_TRUE(fresh->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_TRUE(fresh->readPage(4, ByteSpan(out.data(), out.size())).isNotFound());
    // The log accepts new commits after discarding the tail.
    const ByteBuffer p5 = makePage(7);
    DirtyRanges r5;
    r5.mark(0, kPageSize);
    std::vector<FrameWrite> f5{FrameWrite{5, testutil::spanOf(p5), &r5}};
    NVWAL_CHECK_OK(fresh->writeFrames(f5, true, 5));
    ASSERT_TRUE(fresh->readPage(5, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p5);
}

TEST_P(NvwalLogTest, CheckpointWritesBackTruncatesAndFreesNvram)
{
    const std::uint64_t used_before =
        env.heap.countBlocks(BlockState::InUse);
    const ByteBuffer p3 = makePage(8);
    const ByteBuffer p4 = makePage(9);
    NVWAL_CHECK_OK(commitFullPage(3, p3, 4));
    NVWAL_CHECK_OK(commitFullPage(4, p4, 4));
    EXPECT_GT(log->nodeCount(), 0u);

    NVWAL_CHECK_OK(log->checkpoint());
    EXPECT_EQ(log->framesSinceCheckpoint(), 0u);
    EXPECT_EQ(log->nodeCount(), 0u);
    // All log NVRAM returned to the heap (the header block stays).
    EXPECT_EQ(env.heap.countBlocks(BlockState::InUse), used_before);

    ByteBuffer out(kPageSize);
    EXPECT_TRUE(log->readPage(3, ByteSpan(out.data(), out.size())).isNotFound());
    NVWAL_CHECK_OK(dbFile.readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, p3);
    NVWAL_CHECK_OK(dbFile.readPage(4, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, p4);

    // And the log keeps working in the next checkpoint epoch.
    const ByteBuffer p5 = makePage(10);
    NVWAL_CHECK_OK(commitFullPage(5, p5, 5));
    ASSERT_TRUE(log->readPage(5, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, p5);
    std::uint32_t db_size = 0;
    auto fresh = reopen(&db_size);
    EXPECT_EQ(db_size, 5u);
}

TEST_P(NvwalLogTest, StaleFramesFromPreviousEpochAreIgnored)
{
    const ByteBuffer p3 = makePage(11);
    NVWAL_CHECK_OK(commitFullPage(3, p3, 3));
    NVWAL_CHECK_OK(log->checkpoint());
    std::uint32_t db_size = 0;
    auto fresh = reopen(&db_size);
    EXPECT_EQ(db_size, 0u);
    EXPECT_EQ(fresh->framesSinceCheckpoint(), 0u);
}

TEST_P(NvwalLogTest, MultiPageTransactionIsAtomic)
{
    std::vector<ByteBuffer> pages;
    std::vector<DirtyRanges> ranges(5);
    std::vector<FrameWrite> frames;
    for (PageNo no = 3; no < 8; ++no) {
        pages.push_back(makePage(no));
        ranges[no - 3].mark(0, kPageSize);
        frames.push_back(FrameWrite{no, testutil::spanOf(pages.back()),
                                    &ranges[no - 3]});
    }
    NVWAL_CHECK_OK(log->writeFrames(frames, true, 8));

    env.powerFail(config.syncMode == SyncMode::ChecksumAsync
                      ? FailurePolicy::AllSurvive
                      : FailurePolicy::Pessimistic);
    std::uint32_t db_size = 0;
    auto fresh = reopen(&db_size);
    EXPECT_EQ(db_size, 8u);
    ByteBuffer out(kPageSize);
    for (PageNo no = 3; no < 8; ++no) {
        ASSERT_TRUE(fresh->readPage(no, ByteSpan(out.data(), out.size())).isOk());
        EXPECT_EQ(out, pages[no - 3]);
    }
}

TEST_P(NvwalLogTest, EmptyCommitStillRecordsDatabaseSize)
{
    const ByteBuffer page = makePage(7);
    NVWAL_CHECK_OK(commitFullPage(3, page, 3));
    EXPECT_EQ(log->committedDbSize(), 3u);

    // A commit that dirtied no pages (every store was a no-op) still
    // observed the database at a possibly larger size; dropping the
    // update would leave committedDbSize() stale and truncate the
    // tail on the next pager resync.
    NVWAL_CHECK_OK(log->writeFrames({}, true, 9));
    EXPECT_EQ(log->committedDbSize(), 9u);

    // Same hazard on the group path with an all-empty group.
    std::vector<TxnFrames> txns(1);
    txns[0].dbSizePages = 11;
    NVWAL_CHECK_OK(log->writeFrameGroup(txns));
    EXPECT_EQ(log->committedDbSize(), 11u);
}

TEST_P(NvwalLogTest, BaseFileReadFaultPropagatesAsStatus)
{
    // Put the base image of page 3 into the .db file, then layer a
    // diff frame over it so materialization must read the file. The
    // image cache would shield the file read (the checkpointed base
    // image survives truncation and serves as the replay base), so
    // reopen the log without one.
    config.materializeCacheEntries = 0;
    log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                     kPageSize, kReserved, config,
                                     env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(log->recover(&db_size));

    ByteBuffer page = makePage(5);
    NVWAL_CHECK_OK(commitFullPage(3, page, 3));
    NVWAL_CHECK_OK(log->checkpoint());

    std::memset(page.data() + 100, 0xAB, 50);
    DirtyRanges diff;
    diff.mark(100, 150);
    NVWAL_CHECK_OK(commitPage(3, page, diff, 3));

    if (!GetParam().diff) {
        // Full-frame logging never reads the base; nothing to test.
        return;
    }
    env.fs.injectReadFaults(1);
    ByteBuffer out(kPageSize);
    const Status s = log->readPage(3, ByteSpan(out.data(), out.size()));
    EXPECT_FALSE(s.isOk());

    // The fault was consumed and nothing was cached: the same read
    // succeeds afterwards with the correct merged image.
    ASSERT_TRUE(log->readPage(3, ByteSpan(out.data(), out.size())).isOk());
    EXPECT_EQ(out, page);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, NvwalLogTest,
    ::testing::Values(
        SchemeParam{SyncMode::Lazy, false, false, "LS"},
        SchemeParam{SyncMode::Lazy, true, false, "LS_Diff"},
        SchemeParam{SyncMode::ChecksumAsync, true, false, "CS_Diff"},
        SchemeParam{SyncMode::Lazy, false, true, "UH_LS"},
        SchemeParam{SyncMode::Lazy, true, true, "UH_LS_Diff"},
        SchemeParam{SyncMode::ChecksumAsync, true, true, "UH_CS_Diff"},
        SchemeParam{SyncMode::Eager, true, true, "UH_E_Diff"}),
    [](const auto &info) { return std::string(info.param.label); });

// ---- scheme-specific behaviour ------------------------------------

class NvwalSchemeTest : public ::testing::Test
{
  protected:
    NvwalSchemeTest() : env(makeEnvConfig()), dbFile(env.fs, "t.db",
                                                     kPageSize)
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

    ByteBuffer
    makePage(std::uint64_t seed) const
    {
        ByteBuffer page = testutil::makeValue(kPageSize, seed);
        std::memset(page.data() + kPageSize - kReserved, 0, kReserved);
        return page;
    }

    std::unique_ptr<NvwalLog>
    makeLog(SyncMode sync, bool diff, bool user_heap,
            DiffGranularity granularity = NvwalConfig{}.diffGranularity)
    {
        NvwalConfig config;
        config.syncMode = sync;
        config.diffLogging = diff;
        config.diffGranularity = granularity;
        config.userHeap = user_heap;
        auto log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                              kPageSize, kReserved, config,
                                              env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log->recover(&db_size));
        return log;
    }

    Env env;
    DbFile dbFile;
};

TEST_F(NvwalSchemeTest, SchemeNamesMatchPaperLegend)
{
    EXPECT_STREQ(makeLog(SyncMode::Lazy, false, false)->name(),
                 "NVWAL LS");
    EXPECT_STREQ(makeLog(SyncMode::Lazy, true, false)->name(),
                 "NVWAL LS+Diff");
    EXPECT_STREQ(makeLog(SyncMode::ChecksumAsync, true, false)->name(),
                 "NVWAL CS+Diff");
    EXPECT_STREQ(makeLog(SyncMode::Lazy, false, true)->name(),
                 "NVWAL UH+LS");
    EXPECT_STREQ(makeLog(SyncMode::Lazy, true, true)->name(),
                 "NVWAL UH+LS+Diff");
    EXPECT_STREQ(makeLog(SyncMode::ChecksumAsync, true, true)->name(),
                 "NVWAL UH+CS+Diff");
}

TEST_F(NvwalSchemeTest, DiffLoggingWritesFarFewerBytes)
{
    // Table 2's mechanism: a small dirty range logs ~its size, not a
    // page.
    auto run = [&](bool diff) {
        auto log = makeLog(SyncMode::Lazy, diff, true);
        ByteBuffer page = testutil::makeValue(kPageSize, 1);
        DirtyRanges ranges;
        ranges.mark(200, 350);
        const auto before = env.stats.get(stats::kNvramBytesLogged);
        std::vector<FrameWrite> frames{
            FrameWrite{3, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));
        NVWAL_CHECK_OK(log->checkpoint());
        return env.stats.get(stats::kNvramBytesLogged) - before;
    };
    const std::uint64_t full = run(false);
    const std::uint64_t diff = run(true);
    EXPECT_GE(full, kPageSize);
    EXPECT_LT(diff, 300u);
}

TEST_F(NvwalSchemeTest, UserHeapAmortizesHeapCalls)
{
    auto heapCalls = [&](bool user_heap) {
        auto log = makeLog(SyncMode::Lazy, true, user_heap);
        ByteBuffer page = testutil::makeValue(kPageSize, 2);
        const auto before = env.stats.get(stats::kHeapCalls);
        for (int i = 0; i < 50; ++i) {
            DirtyRanges ranges;
            ranges.mark(0, 400);
            std::vector<FrameWrite> frames{
                FrameWrite{3, testutil::spanOf(page), &ranges}};
            NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));
        }
        const auto calls = env.stats.get(stats::kHeapCalls) - before;
        NVWAL_CHECK_OK(log->checkpoint());
        return calls;
    };
    const std::uint64_t without = heapCalls(false);
    const std::uint64_t with = heapCalls(true);
    EXPECT_LT(with, without / 2);
}

TEST_F(NvwalSchemeTest, UserHeapPacksMultipleFramesPerBlock)
{
    // The paper reports ~4.9 frames per 8 KB block for the insert
    // workload (section 3.3), with one bounding-range frame per page.
    auto log = makeLog(SyncMode::Lazy, true, true,
                       DiffGranularity::SingleRange);
    ByteBuffer page = testutil::makeValue(kPageSize, 3);
    for (int i = 0; i < 40; ++i) {
        DirtyRanges ranges;
        ranges.mark(0, 1200);
        std::vector<FrameWrite> frames{
            FrameWrite{3, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));
    }
    EXPECT_GT(log->framesPerNode(), 2.0);
}

TEST_F(NvwalSchemeTest, LazyFlushesAllFrameLines)
{
    // Lazy synchronization must flush every line a frame touches --
    // correctness depends on it under the pessimistic policy.
    auto log = makeLog(SyncMode::Lazy, false, true);
    const ByteBuffer page = testutil::makeValue(kPageSize, 4);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    const auto before = env.stats.get(stats::kNvramLinesFlushed);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));
    const auto flushed =
        env.stats.get(stats::kNvramLinesFlushed) - before;
    // ~ a full page of lines (4096/32 = 128) plus headers/metadata.
    EXPECT_GE(flushed, kPageSize / 32);
}

TEST_F(NvwalSchemeTest, ChecksumAsyncFlushesAlmostNothing)
{
    auto log = makeLog(SyncMode::ChecksumAsync, false, true);
    const ByteBuffer page = testutil::makeValue(kPageSize, 5);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    const auto before = env.stats.get(stats::kNvramLinesFlushed);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));
    const auto flushed =
        env.stats.get(stats::kNvramLinesFlushed) - before;
    // Only the commit-mark/checksum line plus block-allocation
    // metadata (node link + tri-state flags) -- none of the 128
    // payload lines (section 4.2).
    EXPECT_LE(flushed, 8u);
}

TEST_F(NvwalSchemeTest, EagerIsSlowerThanLazy)
{
    // Figure 5: eager per-frame synchronization costs more simulated
    // time than lazy batching for the same work.
    auto timeFor = [&](SyncMode sync) {
        auto log = makeLog(sync, false, true);
        ByteBuffer page = testutil::makeValue(kPageSize, 6);
        DirtyRanges ranges;
        ranges.mark(0, kPageSize);
        const SimTime start = env.clock.now();
        std::vector<FrameWrite> frames;
        std::vector<DirtyRanges> all_ranges(8);
        for (PageNo no = 3; no < 11; ++no) {
            all_ranges[no - 3].mark(0, kPageSize);
            frames.push_back(FrameWrite{no, testutil::spanOf(page),
                                        &all_ranges[no - 3]});
        }
        NVWAL_CHECK_OK(log->writeFrames(frames, true, 11));
        const SimTime elapsed = env.clock.now() - start;
        NVWAL_CHECK_OK(log->checkpoint());
        return elapsed;
    };
    const SimTime lazy = timeFor(SyncMode::Lazy);
    const SimTime eager = timeFor(SyncMode::Eager);
    EXPECT_LT(lazy, eager);
}

TEST_F(NvwalSchemeTest, ChecksumAsyncDetectsLostFramesProbabilistically)
{
    // Section 4.2: if the commit mark + checksum survive but the log
    // entries do not, recovery must invalidate the transaction via
    // the checksum mismatch.
    auto log = makeLog(SyncMode::ChecksumAsync, false, true);
    const ByteBuffer p3 = makePage(7);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    std::vector<FrameWrite> frames{
        FrameWrite{3, testutil::spanOf(p3), &ranges}};
    NVWAL_CHECK_OK(log->writeFrames(frames, true, 3));

    // Pessimistic failure: the frame payload (never flushed) is
    // gone; the flushed commit/checksum line may or may not be in
    // the persist queue -- drop everything volatile.
    env.powerFail(FailurePolicy::Pessimistic);
    NvwalConfig config;
    config.syncMode = SyncMode::ChecksumAsync;
    config.diffLogging = false;
    config.userHeap = true;
    NvwalLog fresh(env.heap, env.pmem, dbFile, kPageSize, kReserved,
                   config, env.stats);
    std::uint32_t db_size = 99;
    NVWAL_CHECK_OK(fresh.recover(&db_size));
    EXPECT_EQ(db_size, 0u);  // transaction correctly invalidated
    ByteBuffer out(kPageSize);
    EXPECT_TRUE(fresh.readPage(3, ByteSpan(out.data(), out.size())).isNotFound());
}

TEST_F(NvwalSchemeTest, NodeCountRecountedAfterTailTruncation)
{
    // Regression: recovery that truncates uncommitted tail nodes must
    // recount _nodesSinceCheckpoint from the surviving chain. It used
    // to keep the walk's count (which included the freed tail), so
    // framesPerNode() and the next checkpoint's node accounting were
    // skewed until the following checkpoint.
    auto log = makeLog(SyncMode::Lazy, false, false);  // 1 frame/node
    const ByteBuffer page = makePage(4);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    std::vector<FrameWrite> committed{
        FrameWrite{2, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(log->writeFrames(committed, true, 2));
    // Three uncommitted frames: Lazy flushes them to NVRAM on every
    // call, so after a pessimistic failure the nodes are durable but
    // must be truncated (and freed) by recovery.
    for (PageNo no = 3; no <= 5; ++no) {
        std::vector<FrameWrite> frames{
            FrameWrite{no, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(log->writeFrames(frames, false, no));
    }
    EXPECT_EQ(log->nodeCount(), 4u);

    env.powerFail(FailurePolicy::Pessimistic);
    NvwalConfig config;
    config.syncMode = SyncMode::Lazy;
    config.diffLogging = false;
    config.userHeap = false;
    NvwalLog fresh(env.heap, env.pmem, dbFile, kPageSize, kReserved,
                   config, env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh.recover(&db_size));
    EXPECT_EQ(db_size, 2u);
    EXPECT_EQ(fresh.nodeCount(), 1u);
    EXPECT_EQ(fresh.nodesSinceCheckpoint(), fresh.nodeCount());
    EXPECT_DOUBLE_EQ(fresh.framesPerNode(), 1.0);

    // The invariant must keep holding as the log grows again.
    std::vector<FrameWrite> more{
        FrameWrite{3, testutil::spanOf(page), &ranges}};
    NVWAL_CHECK_OK(fresh.writeFrames(more, true, 3));
    EXPECT_EQ(fresh.nodesSinceCheckpoint(), fresh.nodeCount());
}

TEST(NvwalBaseline, NodeAllocationIsCrashAtomic)
{
    // Regression: the per-frame (non-user-heap) baseline used a
    // single nvMalloc(), marking the block in-use before it was
    // linked into the log chain. A crash in that window left an
    // in-use block nothing references -- an NVRAM leak no recovery
    // could reclaim. Both modes now allocate pending, link, then
    // mark in-use (Algorithm 1), so sweep the whole append window
    // and require every in-use block to stay reachable.
    bool completed = false;
    for (std::uint64_t at = 1; !completed; ++at) {
        EnvConfig env_config;
        env_config.cost = CostModel::tuna(500);
        Env env(env_config);
        DbFile db_file(env.fs, "t.db", kPageSize);
        NVWAL_CHECK_OK(db_file.open());
        NvwalConfig config;
        config.syncMode = SyncMode::Lazy;
        config.diffLogging = false;
        config.userHeap = false;
        NvwalLog log(env.heap, env.pmem, db_file, kPageSize, kReserved,
                     config, env.stats);
        std::uint32_t db_size = 0;
        NVWAL_CHECK_OK(log.recover(&db_size));
        ByteBuffer page = testutil::makeValue(kPageSize, 1);
        std::memset(page.data() + kPageSize - kReserved, 0, kReserved);
        DirtyRanges ranges;
        ranges.mark(0, kPageSize);
        std::vector<FrameWrite> seed{
            FrameWrite{2, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(log.writeFrames(seed, true, 2));

        env.nvramDevice.setScheduledCrashPolicy(
            FailurePolicy::Pessimistic);
        env.nvramDevice.scheduleCrashAtOp(at);
        try {
            std::vector<FrameWrite> victim{
                FrameWrite{3, testutil::spanOf(page), &ranges}};
            NVWAL_CHECK_OK(log.writeFrames(victim, true, 3));
            completed = true;
        } catch (const PowerFailure &) {
            env.fs.crash();
            NVWAL_CHECK_OK(env.heap.attach());
        }
        env.nvramDevice.scheduleCrashAtOp(0);

        NvwalLog fresh(env.heap, env.pmem, db_file, kPageSize,
                       kReserved, config, env.stats);
        NVWAL_CHECK_OK(fresh.recover(&db_size));
        EXPECT_EQ(env.heap.countBlocks(BlockState::Pending), 0u)
            << "op " << at;
        EXPECT_EQ(env.heap.countBlocks(BlockState::InUse),
                  fresh.reachableNvramBlocks())
            << "op " << at;
    }
}

TEST(NvwalHeaderInit, CrashDuringFirstRecoverNeverLeaks)
{
    // Regression: header initialization now follows the pending ->
    // bind-root -> in-use protocol. The old nvMalloc() version leaked
    // the header block if the crash hit before setRoot(), and a crash
    // between setRoot() and the used-flag left a root naming a
    // non-in-use block, which the next recovery must heal by
    // re-initializing. Sweep every device op of the very first
    // recover() under both policies.
    for (FailurePolicy policy :
         {FailurePolicy::Pessimistic, FailurePolicy::Adversarial}) {
        bool completed = false;
        for (std::uint64_t at = 1; !completed; ++at) {
            EnvConfig env_config;
            env_config.cost = CostModel::tuna(500);
            Env env(env_config);
            DbFile db_file(env.fs, "t.db", kPageSize);
            NVWAL_CHECK_OK(db_file.open());
            NvwalConfig config;

            env.nvramDevice.reseed(at * 131 + 7);
            env.nvramDevice.setScheduledCrashPolicy(policy, 0.5);
            env.nvramDevice.scheduleCrashAtOp(at);
            bool crashed = false;
            {
                NvwalLog log(env.heap, env.pmem, db_file, kPageSize,
                             kReserved, config, env.stats);
                std::uint32_t db_size = 0;
                try {
                    NVWAL_CHECK_OK(log.recover(&db_size));
                    completed = true;
                } catch (const PowerFailure &) {
                    crashed = true;
                }
            }
            env.nvramDevice.scheduleCrashAtOp(0);
            if (crashed) {
                env.fs.crash();
                NVWAL_CHECK_OK(env.heap.attach());
            }

            NvwalLog fresh(env.heap, env.pmem, db_file, kPageSize,
                           kReserved, config, env.stats);
            std::uint32_t db_size = 99;
            NVWAL_CHECK_OK(fresh.recover(&db_size));
            EXPECT_EQ(db_size, 0u);
            EXPECT_EQ(env.heap.countBlocks(BlockState::Pending), 0u)
                << "op " << at;
            EXPECT_EQ(env.heap.countBlocks(BlockState::InUse),
                      fresh.reachableNvramBlocks())
                << "op " << at;
        }
    }
}

} // namespace
} // namespace nvwal
