/**
 * @file
 * Unit tests for the NVWAL log itself: frame placement, differential
 * logging, all three sync modes, the user-level heap protocol,
 * checkpointing and post-crash recovery (paper sections 3 and 4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <string_view>
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

/** Case names; SchemeParam::label indexes this table. */
constexpr std::array<std::string_view, 7> kSchemeLabels = {
    "LS",         "LS_Diff",    "CS_Diff",  "UH_LS",
    "UH_LS_Diff", "UH_CS_Diff", "UH_E_Diff"};

struct SchemeParam
{
    SchemeParam(SyncMode sync_, bool diff_, bool user_heap,
                std::string_view label_)
        : sync(sync_), diff(diff_), userHeap(user_heap),
          label(static_cast<std::uint64_t>(
              std::find(kSchemeLabels.begin(), kSchemeLabels.end(),
                        label_) -
              kSchemeLabels.begin()))
    {
        NVWAL_ASSERT(label < kSchemeLabels.size(), "unknown scheme label");
    }

    SyncMode sync;
    bool diff;
    bool userHeap;
    /**
     * gtest prints a parameter it has no printer for as its raw bytes,
     * and ctest names each case by that dump: the padding is spelled
     * out, and the label is an index rather than a string pointer, so
     * the dump holds neither uninitialised bytes nor an address that
     * moves whenever the binary's layout does.
     */
    std::uint16_t zeroPad = 0;
    std::uint64_t label;
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
        return log->writeFrameGroup({{frames, db_size}});
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
    // Crash a two-transaction group append at every NVRAM op. The
    // group carries one commit mark, so recovery must yield exactly
    // the state before the group or after it -- never the first
    // transaction alone. Frames past the last surviving mark are
    // discarded even when they are durable and chain-valid (Lazy and
    // Eager flush them before the mark; the all-survive policy keeps
    // every store), and the nodes holding them are freed and
    // recounted.
    const ByteBuffer p3 = makePage(5);
    const ByteBuffer p4a = makePage(6);
    const ByteBuffer p4b = makePage(7);
    const ByteBuffer p5 = makePage(8);
    DirtyRanges full;
    full.mark(0, kPageSize);
    const std::vector<TxnFrames> group{
        {{FrameWrite{4, testutil::spanOf(p4a), &full}}, 4},
        {{FrameWrite{4, testutil::spanOf(p4b), &full},
          FrameWrite{5, testutil::spanOf(p5), &full}},
         5}};
    using Image = std::map<PageNo, ByteBuffer>;
    const Image pre{{3, p3}};
    const Image post{{3, p3}, {4, p4b}, {5, p5}};

    for (FailurePolicy policy :
         {FailurePolicy::Pessimistic, FailurePolicy::AllSurvive}) {
        std::uint64_t truncating_points = 0;
        bool completed = false;
        for (std::uint64_t at = 1; !completed; ++at) {
            SCOPED_TRACE(testing::Message()
                         << "policy " << static_cast<int>(policy)
                         << " op " << at);
            EnvConfig env_config = makeEnvConfig();
            env_config.nvramBytes = 1ull << 20;
            env_config.flashBlocks = 1ull << 11;
            Env crash_env(env_config);
            DbFile db_file(crash_env.fs, "t.db", kPageSize);
            NVWAL_CHECK_OK(db_file.open());
            const auto open_log = [&](std::uint32_t *db_size) {
                auto l = std::make_unique<NvwalLog>(
                    crash_env.heap, crash_env.pmem, db_file, kPageSize,
                    kReserved, config, crash_env.stats);
                NVWAL_CHECK_OK(l->recover(db_size));
                return l;
            };
            std::uint32_t db_size = 0;
            {
                auto seed_log = open_log(&db_size);
                NVWAL_CHECK_OK(seed_log->writeFrameGroup(
                    {{{FrameWrite{3, testutil::spanOf(p3), &full}}, 3}}));
            }
            // A clean reboot makes the seed durable under every sync
            // mode, so each crash point has one pre-group state.
            crash_env.powerFail(FailurePolicy::AllSurvive);
            auto victim = open_log(&db_size);
            const std::uint64_t pre_nodes = victim->nodeCount();

            crash_env.nvramDevice.setScheduledCrashPolicy(policy);
            crash_env.nvramDevice.scheduleCrashAtOp(at);
            try {
                NVWAL_CHECK_OK(victim->writeFrameGroup(group));
                completed = true;
            } catch (const PowerFailure &) {
                crash_env.fs.crash();
                NVWAL_CHECK_OK(crash_env.heap.attach());
            }
            crash_env.nvramDevice.scheduleCrashAtOp(0);
            victim.reset();

            const std::uint64_t in_use_before =
                crash_env.heap.countBlocks(BlockState::InUse);
            auto fresh = open_log(&db_size);
            if (crash_env.heap.countBlocks(BlockState::InUse) <
                in_use_before)
                ++truncating_points;
            Image got;
            ByteBuffer out(kPageSize);
            for (PageNo no = 3; no <= 5; ++no) {
                const Status read =
                    fresh->readPage(no, ByteSpan(out.data(), out.size()));
                if (read.isNotFound())
                    continue;
                NVWAL_CHECK_OK(read);
                got[no] = out;
            }
            const bool is_pre = db_size == 3 && got == pre;
            const bool is_post = db_size == 5 && got == post;
            EXPECT_TRUE(is_pre || is_post) << "db size " << db_size;
            if (completed) {
                EXPECT_TRUE(is_post);
            }
            if (is_pre) {
                // Tail nodes past the pre-group mark are freed.
                EXPECT_EQ(fresh->nodeCount(), pre_nodes);
            }
            EXPECT_EQ(crash_env.heap.countBlocks(BlockState::Pending), 0u);
            EXPECT_EQ(crash_env.heap.countBlocks(BlockState::InUse),
                      fresh->reachableNvramBlocks());
            EXPECT_EQ(fresh->nodesSinceCheckpoint(), fresh->nodeCount());
            if (!config.userHeap) {
                EXPECT_DOUBLE_EQ(fresh->framesPerNode(), 1.0);
            }

            // The log accepts new commits after discarding the tail.
            const ByteBuffer p7 = makePage(10);
            NVWAL_CHECK_OK(fresh->writeFrameGroup(
                {{{FrameWrite{7, testutil::spanOf(p7), &full}}, 7}}));
            ASSERT_TRUE(
                fresh->readPage(7, ByteSpan(out.data(), out.size())).isOk());
            EXPECT_EQ(out, p7);
            EXPECT_EQ(fresh->nodesSinceCheckpoint(), fresh->nodeCount());
        }
        // Some crash point left linked nodes past the last mark that
        // recovery had to free.
        EXPECT_GT(truncating_points, 0u);
    }
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
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 8}}));

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
    NVWAL_CHECK_OK(log->writeFrameGroup({{{}, 9}}));
    EXPECT_EQ(log->committedDbSize(), 9u);

    // Same hazard with a group of several empty transactions: the
    // last one's size wins.
    std::vector<TxnFrames> txns(2);
    txns[0].dbSizePages = 10;
    txns[1].dbSizePages = 11;
    NVWAL_CHECK_OK(log->writeFrameGroup(txns));
    EXPECT_EQ(log->committedDbSize(), 11u);
}

TEST_P(NvwalLogTest, BaseFileReadFaultPropagatesAsStatus)
{
    // Put the base image of page 3 into the .db file, then layer a
    // diff frame over it so materialization must read the file.
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
    [](const auto &info) {
        return std::string(kSchemeLabels[info.param.label]);
    });

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
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));
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
            NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));
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
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));
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
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));
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
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));
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
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 11}}));
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
    NVWAL_CHECK_OK(log->writeFrameGroup({{frames, 3}}));

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
    // skewed until the following checkpoint. Crash a three-transaction
    // group append at every NVRAM op: Lazy flushes the three frames
    // before the group's one commit mark, so some crash point leaves
    // all three tail nodes durable and linked but uncommitted, and
    // recovery must truncate (and free) them.
    const ByteBuffer page = makePage(4);
    DirtyRanges ranges;
    ranges.mark(0, kPageSize);
    std::vector<TxnFrames> group;
    for (PageNo no = 3; no <= 5; ++no)
        group.push_back({{FrameWrite{no, testutil::spanOf(page), &ranges}},
                         no});
    NvwalConfig config;
    config.syncMode = SyncMode::Lazy;
    config.diffLogging = false;
    config.userHeap = false;  // 1 frame/node

    std::uint64_t max_freed = 0;
    std::uint64_t node_blocks = 0;
    bool completed = false;
    for (std::uint64_t at = 1; !completed; ++at) {
        SCOPED_TRACE(testing::Message() << "op " << at);
        EnvConfig env_config = makeEnvConfig();
        env_config.nvramBytes = 1ull << 20;
        env_config.flashBlocks = 1ull << 11;
        Env crash_env(env_config);
        DbFile db_file(crash_env.fs, "t.db", kPageSize);
        NVWAL_CHECK_OK(db_file.open());
        const auto open_log = [&](std::uint32_t *db_size) {
            auto l = std::make_unique<NvwalLog>(
                crash_env.heap, crash_env.pmem, db_file, kPageSize,
                kReserved, config, crash_env.stats);
            NVWAL_CHECK_OK(l->recover(db_size));
            return l;
        };
        std::uint32_t db_size = 0;
        auto log = open_log(&db_size);
        const std::uint64_t header_blocks =
            crash_env.heap.countBlocks(BlockState::InUse);
        NVWAL_CHECK_OK(log->writeFrameGroup(
            {{{FrameWrite{2, testutil::spanOf(page), &ranges}}, 2}}));
        EXPECT_EQ(log->nodeCount(), 1u);
        // A full-page node may span more than one heap block.
        node_blocks =
            crash_env.heap.countBlocks(BlockState::InUse) - header_blocks;

        crash_env.nvramDevice.setScheduledCrashPolicy(
            FailurePolicy::Pessimistic);
        crash_env.nvramDevice.scheduleCrashAtOp(at);
        try {
            NVWAL_CHECK_OK(log->writeFrameGroup(group));
            completed = true;
        } catch (const PowerFailure &) {
            crash_env.fs.crash();
            NVWAL_CHECK_OK(crash_env.heap.attach());
        }
        crash_env.nvramDevice.scheduleCrashAtOp(0);
        log.reset();
        if (completed)
            break;

        const std::uint64_t in_use_before =
            crash_env.heap.countBlocks(BlockState::InUse);
        auto fresh = open_log(&db_size);
        const std::uint64_t in_use_after =
            crash_env.heap.countBlocks(BlockState::InUse);
        ASSERT_GE(in_use_before, in_use_after);
        max_freed = std::max(max_freed, in_use_before - in_use_after);
        EXPECT_EQ(db_size, 2u);
        EXPECT_EQ(fresh->nodeCount(), 1u);
        EXPECT_EQ(fresh->nodesSinceCheckpoint(), fresh->nodeCount());
        EXPECT_DOUBLE_EQ(fresh->framesPerNode(), 1.0);
        EXPECT_EQ(crash_env.heap.countBlocks(BlockState::InUse),
                  fresh->reachableNvramBlocks());

        // The invariant must keep holding as the log grows again.
        NVWAL_CHECK_OK(fresh->writeFrameGroup(
            {{{FrameWrite{3, testutil::spanOf(page), &ranges}}, 3}}));
        EXPECT_EQ(fresh->nodesSinceCheckpoint(), fresh->nodeCount());
    }
    // Some crash point left all three tail nodes durable, and recovery
    // freed every one of them.
    EXPECT_GT(node_blocks, 0u);
    EXPECT_EQ(max_freed, 3 * node_blocks);
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
        NVWAL_CHECK_OK(log.writeFrameGroup({{seed, 2}}));

        env.nvramDevice.setScheduledCrashPolicy(
            FailurePolicy::Pessimistic);
        env.nvramDevice.scheduleCrashAtOp(at);
        try {
            std::vector<FrameWrite> victim{
                FrameWrite{3, testutil::spanOf(page), &ranges}};
            NVWAL_CHECK_OK(log.writeFrameGroup({{victim, 3}}));
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

TEST(NvwalSharedHeap, ReusedBlockNeverValidatesAnotherLogsFrames)
{
    constexpr std::uint32_t kPageSize = 4096;
    constexpr std::uint32_t kReserved = 24;
    // Regression: logs sharing one heap (shards, multi-writer slots)
    // all restarted their checksum chains at 0 and their checkpoint
    // ids collide. Log A commits, truncates (its id moves to 1) and
    // frees its node; log B (still at id 0) then links that very
    // block. A crash after the link lands but before B's first frame
    // does left A's stale, chain-valid, commit-marked frames as the
    // head of B's chain, and B's recovery committed them. Every log
    // now seeds its chain per heap namespace. Sweep every device op
    // of B's first commit; B must never index a frame it did not
    // commit.
    bool completed = false;
    std::uint64_t window_hits = 0;
    for (std::uint64_t at = 1; !completed; ++at) {
        EnvConfig env_config;
        env_config.cost = CostModel::tuna(500);
        Env env(env_config);
        DbFile a_file(env.fs, "a.db", kPageSize);
        DbFile b_file(env.fs, "b.db", kPageSize);
        NVWAL_CHECK_OK(a_file.open());
        NVWAL_CHECK_OK(b_file.open());
        NvwalConfig a_config;
        a_config.heapNamespace = "nvwal-a";
        NvwalConfig b_config;
        b_config.heapNamespace = "nvwal-b";
        std::uint32_t db_size = 0;

        NvwalLog a(env.heap, env.pmem, a_file, kPageSize, kReserved,
                   a_config, env.stats);
        NVWAL_CHECK_OK(a.recover(&db_size));
        auto b = std::make_unique<NvwalLog>(env.heap, env.pmem, b_file,
                                            kPageSize, kReserved,
                                            b_config, env.stats);
        NVWAL_CHECK_OK(b->recover(&db_size));

        ByteBuffer page = testutil::makeValue(kPageSize, 5);
        std::memset(page.data() + kPageSize - kReserved, 0, kReserved);
        DirtyRanges ranges;
        ranges.mark(0, 200);
        std::vector<FrameWrite> frames{
            FrameWrite{3, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(a.writeFrameGroup({{frames, 3}}));
        NvOffset a_header = kNullNvOffset;
        NVWAL_CHECK_OK(env.heap.getRoot("nvwal-a", &a_header));
        const NvOffset a_node = env.nvramDevice.readU64(a_header + 24);
        NVWAL_CHECK_OK(a.checkpoint());
        ASSERT_EQ(a.checkpointId(), b->checkpointId() + 1);

        env.nvramDevice.setScheduledCrashPolicy(
            FailurePolicy::Pessimistic);
        env.nvramDevice.scheduleCrashAtOp(at);
        bool crashed = false;
        try {
            NVWAL_CHECK_OK(b->writeFrameGroup({{frames, 3}}));
            completed = true;
        } catch (const PowerFailure &) {
            crashed = true;
        }
        env.nvramDevice.scheduleCrashAtOp(0);
        NvOffset b_header = kNullNvOffset;
        NVWAL_CHECK_OK(env.heap.getRoot("nvwal-b", &b_header));
        const NvOffset b_node = env.nvramDevice.readU64(b_header + 24);
        if (completed) {
            // B really did reuse A's freed block.
            ASSERT_EQ(b_node, a_node);
            break;
        }
        ASSERT_TRUE(crashed);
        env.fs.crash();
        NVWAL_CHECK_OK(env.heap.attach());
        if (b_node == a_node &&
            env.heap.blockStateAt(a_node) == BlockState::InUse)
            ++window_hits;  // A's block is live at the head of B's chain

        b = std::make_unique<NvwalLog>(env.heap, env.pmem, b_file,
                                       kPageSize, kReserved, b_config,
                                       env.stats);
        NVWAL_CHECK_OK(b->recover(&db_size));
        EXPECT_EQ(b->commitSeq(), 0u) << "op " << at;
        EXPECT_EQ(b->indexedFrames(), 0u) << "op " << at;
        EXPECT_EQ(db_size, 0u) << "op " << at;
    }
    EXPECT_GT(window_hits, 0u);
}

} // namespace
} // namespace nvwal
