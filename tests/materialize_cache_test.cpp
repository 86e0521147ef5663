/**
 * @file
 * Tests for the cold page-materialization path and the
 * latest-full-frame shortcut (DESIGN.md §9): every read replays from
 * the radix frame index at its own horizon, so snapshot-pinned
 * readers see their horizon rather than a newer image, a replay
 * after truncation starts from the .db image the checkpoint wrote,
 * and the ordered checkpoint drains pages in ascending order. A
 * seeded model check compares every pinned read with an oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <set>

#include "core/nvwal_log.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "db/env.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

constexpr std::uint32_t kPageSize = 4096;
constexpr std::uint32_t kReserved = 24;

class MaterializeCacheTest : public ::testing::Test
{
  protected:
    MaterializeCacheTest()
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

    /** Commit one full-page frame (UH+LS+Diff defaults). */
    void
    commitFullPage(PageNo no, const ByteBuffer &page,
                   std::uint32_t db_size)
    {
        DirtyRanges full;
        full.mark(0, kPageSize);
        std::vector<FrameWrite> frames{
            FrameWrite{no, testutil::spanOf(page), &full}};
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, db_size}}));
    }

    /** Commit a small diff of @p page at byte 100. */
    void
    commitDiff(PageNo no, const ByteBuffer &page, std::uint32_t db_size)
    {
        DirtyRanges diff;
        diff.mark(100, 108);
        std::vector<FrameWrite> frames{
            FrameWrite{no, testutil::spanOf(page), &diff}};
        NVWAL_CHECK_OK(log->writeFrameGroup({{frames, db_size}}));
    }

    std::uint64_t
    hits() const
    {
        return env.stats.get(stats::kWalMaterializeCacheHits);
    }

    std::uint64_t
    misses() const
    {
        return env.stats.get(stats::kWalMaterializeCacheMisses);
    }

    Env env;
    DbFile dbFile;
    NvwalConfig config;
    std::unique_ptr<NvwalLog> log;
};

/**
 * A snapshot pinned before a later commit must materialize its own
 * horizon even right after a read of the newer image: the replay
 * stops at the newest frame at or below the pinned horizon.
 */
TEST_F(MaterializeCacheTest, PinnedSnapshotDoesNotSeeNewerCachedImage)
{
    openLog();
    ByteBuffer v1 = testutil::makeValue(kPageSize, 1);
    commitFullPage(3, v1, 3);
    const CommitSeq pinned = log->commitSeq();

    ByteBuffer v2 = v1;
    std::memset(v2.data() + 100, 0x99, 8);
    commitDiff(3, v2, 3);

    // Read the newest image first.
    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v2);

    // The pinned reader must get v1, not v2.
    NVWAL_CHECK_OK(
        log->readPageAt(3, ByteSpan(out.data(), out.size()), pinned));
    EXPECT_EQ(out, v1);

    // And an unpinned read still sees v2.
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v2);
}

/** A read after a new commit to a page replays the new frame. */
TEST_F(MaterializeCacheTest, CommitInvalidatesCachedImage)
{
    openLog();
    ByteBuffer v1 = testutil::makeValue(kPageSize, 1);
    commitFullPage(3, v1, 3);

    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));

    ByteBuffer v2 = v1;
    std::memset(v2.data() + 100, 0xAB, 8);
    commitDiff(3, v2, 3);

    // One fresh materialization, never a hit.
    const auto h0 = hits(), m0 = misses();
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v2);
    EXPECT_EQ(hits() - h0, 0u);
    EXPECT_EQ(misses() - m0, 1u);
}

/** Reads after recover() re-materialize the committed content. */
TEST_F(MaterializeCacheTest, CacheColdAfterRecover)
{
    openLog();
    ByteBuffer page = testutil::makeValue(kPageSize, 5);
    commitFullPage(3, page, 3);

    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));

    auto fresh = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                            kPageSize, kReserved, config,
                                            env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(fresh->recover(&db_size));

    // The first post-recovery read re-materializes the committed
    // content from NVRAM.
    const auto h0 = hits(), m0 = misses();
    std::memset(out.data(), 0, out.size());
    NVWAL_CHECK_OK(fresh->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, page);
    EXPECT_EQ(hits() - h0, 0u);
    EXPECT_EQ(misses() - m0, 1u);
}

/**
 * The latest-full-frame shortcut avoids the base-page read + diff
 * replay prefix: materialization starts at the newest full-page
 * frame.
 */
TEST_F(MaterializeCacheTest, FullFrameShortcutWithCacheDisabled)
{
    openLog();
    ByteBuffer page = testutil::makeValue(kPageSize, 9);
    commitFullPage(3, page, 3);
    for (int i = 0; i < 4; ++i) {
        page[static_cast<std::size_t>(100 + i)] ^= 0xFF;
        commitDiff(3, page, 3);
    }

    ByteBuffer out(kPageSize);
    const auto s0 = env.stats.get(stats::kWalFullFrameShortcuts);
    const auto h0 = hits(), m0 = misses();
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, page);
    EXPECT_EQ(env.stats.get(stats::kWalFullFrameShortcuts) - s0, 1u);
    // One materialization, counted as one miss.
    EXPECT_EQ(hits() - h0, 0u);
    EXPECT_EQ(misses() - m0, 1u);
}

/**
 * Checkpoint write-back drains pages in ascending page order
 * regardless of commit order, also after the read path has just
 * materialized them.
 */
TEST_F(MaterializeCacheTest, CheckpointReusesCacheAndDrainsInOrder)
{
    openLog();
    // Commit in scattered page order.
    const PageNo pages[] = {9, 3, 7, 5};
    ByteBuffer images[4];
    std::uint32_t db_size = 0;
    for (int i = 0; i < 4; ++i) {
        images[i] = testutil::makeValue(kPageSize, pages[i]);
        db_size = std::max(db_size, pages[i]);
        commitFullPage(pages[i], images[i], db_size);
    }

    // Read every page the way a reader would.
    ByteBuffer out(kPageSize);
    for (int i = 0; i < 4; ++i) {
        NVWAL_CHECK_OK(
            log->readPage(pages[i], ByteSpan(out.data(), out.size())));
    }

    const auto w0 = env.stats.get(stats::kWalCkptPagesWritten);
    const auto seq0 = env.stats.get(stats::kWalCkptSequentialWrites);
    NVWAL_CHECK_OK(log->checkpoint());

    // The drain visited the pages in ascending page order: each write
    // after the first lands above its predecessor.
    const auto written = env.stats.get(stats::kWalCkptPagesWritten) - w0;
    EXPECT_EQ(written, 4u);
    EXPECT_EQ(env.stats.get(stats::kWalCkptSequentialWrites) - seq0,
              written - 1);

    // The .db file holds the checkpointed images.
    for (int i = 0; i < 4; ++i) {
        NVWAL_CHECK_OK(
            dbFile.readPage(pages[i], ByteSpan(out.data(), out.size())));
        EXPECT_EQ(out, images[i]) << "page " << pages[i];
    }
}

/**
 * Database-level guard: a snapshot reader pinned before a concurrent
 * commit keeps seeing its horizon even after other readers have read
 * the newest page image.
 */
TEST(MaterializeCacheDb, SnapshotReaderUnaffectedByWarmCache)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    DbConfig db_config;
    db_config.walMode = WalMode::Nvwal;
    db_config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, db_config, &db));

    const ByteBuffer v_old = testutil::makeValue(64, 1);
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(v_old)));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->beginRead());

    const ByteBuffer v_new = testutil::makeValue(64, 2);
    NVWAL_CHECK_OK(db->update(1, testutil::spanOf(v_new)));

    // Read the newest image first.
    ByteBuffer got;
    NVWAL_CHECK_OK(db->get(1, &got));
    EXPECT_EQ(got, v_new);

    // The pinned reader still sees the pre-update value.
    NVWAL_CHECK_OK(conn->get(1, &got));
    EXPECT_EQ(got, v_old);
    NVWAL_CHECK_OK(conn->endRead());

    // Released, a fresh read snapshot observes the update.
    NVWAL_CHECK_OK(conn->beginRead());
    NVWAL_CHECK_OK(conn->get(1, &got));
    EXPECT_EQ(got, v_new);
    NVWAL_CHECK_OK(conn->endRead());
}

/**
 * A checkpoint that truncates the log leaves no DRAM copy of a page
 * behind: a diff committed afterwards replays on the image the round
 * wrote into the .db file at the page's base sequence. Proven both
 * ways: the read equals that image plus the diff, and once the .db
 * copy is overwritten the same read shows the new bytes under the
 * diff.
 */
TEST_F(MaterializeCacheTest, TruncationKeepsBaseImageServingReads)
{
    openLog();
    ByteBuffer v1 = testutil::makeValue(kPageSize, 21);
    commitFullPage(3, v1, 3);                        // seq 1

    ByteBuffer out(kPageSize);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v1);

    NVWAL_CHECK_OK(log->checkpoint());
    // The frame chain is gone; the WAL read contract is NotFound, and
    // the .db file holds the page as of its base sequence.
    EXPECT_TRUE(
        log->readPage(3, ByteSpan(out.data(), out.size())).isNotFound());
    NVWAL_CHECK_OK(dbFile.readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v1);

    // New diff on top of the truncated chain.
    ByteBuffer v2 = v1;
    for (int i = 100; i < 108; ++i)
        v2[static_cast<std::size_t>(i)] ^= 0x5A;
    commitDiff(3, v2, 3);                            // seq 2

    const auto s0 = env.stats.get(stats::kWalFullFrameShortcuts);
    const auto m0 = misses();
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, v2);
    EXPECT_EQ(misses() - m0, 1u);
    // No full frame anchors the replay: it started from the file.
    EXPECT_EQ(env.stats.get(stats::kWalFullFrameShortcuts) - s0, 0u);

    // Replace the .db copy: the next replay starts from the new bytes.
    ByteBuffer other(kPageSize, 0xCC);
    NVWAL_CHECK_OK(dbFile.writePage(3, testutil::spanOf(other)));
    std::memcpy(other.data() + 100, v2.data() + 100, 8);
    NVWAL_CHECK_OK(log->readPage(3, ByteSpan(out.data(), out.size())));
    EXPECT_EQ(out, other);
}

/**
 * _pageIndex memory retention: a fully checkpointed page releases its
 * frame list and radix nodes, so the index footprint after a
 * checkpoint is bounded by the *retained* frames, not by history.
 */
TEST_F(MaterializeCacheTest, CheckpointReclaimsFrameIndexMemory)
{
    openLog();
    for (int round = 0; round < 50; ++round) {
        ByteBuffer page = testutil::makeValue(kPageSize, 40 + round);
        commitFullPage(3 + (round % 4), page, 8);
    }
    EXPECT_GT(log->indexedFrames(), 0u);
    EXPECT_GT(log->frameIndexNodes(), 0u);

    NVWAL_CHECK_OK(log->checkpoint());
    EXPECT_EQ(log->indexedFrames(), 0u);
    EXPECT_EQ(log->frameIndexNodes(), 0u);
    EXPECT_EQ(env.stats.get(stats::kWalFrameIndexNodes), 0u);

    // Post-checkpoint commits rebuild only what the new frames need.
    ByteBuffer page = testutil::makeValue(kPageSize, 99);
    commitFullPage(3, page, 8);
    EXPECT_EQ(log->indexedFrames(), 1u);
    const std::uint64_t one_frame_nodes = log->frameIndexNodes();
    EXPECT_GT(one_frame_nodes, 0u);

    NVWAL_CHECK_OK(log->checkpoint());
    EXPECT_EQ(log->frameIndexNodes(), 0u);
}

/**
 * Seeded model check of the cold read path: random full-page and
 * diff commits over 16 pages, mixed with snapshot pins, checkpoint
 * steps and rounds clamped by those pins, paced steps whose
 * write-out stays in flight, truncating rounds and one recover().
 * After every operation, each page read at each pinned horizon (and
 * at the newest commit) must equal the test's oracle.
 * A WAL read that finds no frame falls back to the .db file, as the
 * pager does.
 */
TEST_F(MaterializeCacheTest, RandomCommitsMatchOracleAtEveryPin)
{
    constexpr PageNo kPages = 16;
    constexpr std::uint32_t kUsable = kPageSize - kReserved;
    openLog();
    Rng rng(0xC01D);

    // Per page: commit seq -> the page image as of that commit.
    std::vector<std::map<CommitSeq, ByteBuffer>> history(kPages + 1);
    for (auto &h : history)
        h[0] = ByteBuffer(kPageSize, 0);
    std::multiset<CommitSeq> pins;

    const auto expectReadsMatch = [&](const char *op, int step) {
        ByteBuffer out(kPageSize);
        std::set<CommitSeq> horizons(pins.begin(), pins.end());
        horizons.insert(log->commitSeq());
        for (const CommitSeq horizon : horizons) {
            for (PageNo no = 1; no <= kPages; ++no) {
                const ByteSpan span(out.data(), out.size());
                Status s = log->readPageAt(no, span, horizon);
                if (s.isNotFound() && no <= dbFile.pageCount()) {
                    s = dbFile.readPage(no, span);
                } else if (s.isNotFound()) {
                    std::fill(out.begin(), out.end(), 0);
                    s = Status::ok();
                }
                NVWAL_CHECK_OK(s);
                const ByteBuffer &want =
                    std::prev(history[no].upper_bound(horizon))->second;
                ASSERT_EQ(out, want) << "after " << op << " at step "
                                     << step << ": page " << no
                                     << " at horizon " << horizon;
            }
        }
    };
    const auto unpinAll = [&] {
        for (const CommitSeq pin : pins)
            log->unpinSnapshot(pin);
        pins.clear();
    };

    for (int step = 0; step < 240; ++step) {
        const char *op = "";
        const std::uint64_t roll = rng.nextBelow(100);
        if (step == 120) {
            // Crash and restart: sequences restart, so the oracle
            // keeps only each page's newest image, at seq 0.
            op = "recover";
            unpinAll();
            log = std::make_unique<NvwalLog>(env.heap, env.pmem, dbFile,
                                             kPageSize, kReserved,
                                             config, env.stats);
            std::uint32_t db_size = 0;
            NVWAL_CHECK_OK(log->recover(&db_size));
            for (auto &h : history) {
                ByteBuffer newest = std::move(h.rbegin()->second);
                h.clear();
                h[0] = std::move(newest);
            }
        } else if (roll < 55) {
            op = "commit";
            const std::uint64_t n_pages = 1 + rng.nextBelow(3);
            std::set<PageNo> chosen;
            while (chosen.size() < n_pages)
                chosen.insert(static_cast<PageNo>(1 + rng.nextBelow(kPages)));
            std::vector<ByteBuffer> images;
            std::vector<DirtyRanges> ranges(chosen.size());
            images.reserve(chosen.size());
            std::vector<FrameWrite> frames;
            for (const PageNo no : chosen) {
                ByteBuffer page = history[no].rbegin()->second;
                DirtyRanges &dirty = ranges[images.size()];
                if (rng.nextBelow(4) == 0) {
                    // Full-page rewrite.
                    for (std::uint32_t i = 0; i < kUsable; ++i)
                        page[i] = static_cast<std::uint8_t>(rng.next());
                    dirty.mark(0, kPageSize);
                } else {
                    const std::uint64_t n_ranges = 1 + rng.nextBelow(3);
                    for (std::uint64_t r = 0; r < n_ranges; ++r) {
                        const auto at = static_cast<std::uint32_t>(
                            rng.nextBelow(kUsable - 64));
                        const auto len = static_cast<std::uint32_t>(
                            1 + rng.nextBelow(64));
                        for (std::uint32_t i = at; i < at + len; ++i)
                            page[i] = static_cast<std::uint8_t>(rng.next());
                        dirty.mark(at, at + len);
                    }
                }
                images.push_back(std::move(page));
                frames.push_back(
                    FrameWrite{no, testutil::spanOf(images.back()), &dirty});
            }
            NVWAL_CHECK_OK(log->writeFrameGroup({{frames, kPages}}));
            const CommitSeq seq = log->commitSeq();
            std::size_t k = 0;
            for (const PageNo no : chosen)
                history[no][seq] = std::move(images[k++]);
        } else if (roll < 67) {
            op = "pin";
            pins.insert(log->commitSeq());
            log->pinSnapshot(log->commitSeq());
        } else if (roll < 77) {
            op = "unpin";
            if (!pins.empty()) {
                auto it = pins.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(
                                     rng.nextBelow(pins.size())));
                log->unpinSnapshot(*it);
                pins.erase(it);
            }
        } else if (roll < 83) {
            op = "checkpoint step";
            bool done = false;
            NVWAL_CHECK_OK(log->checkpointStep(
                static_cast<std::uint32_t>(1 + rng.nextBelow(4)), &done));
        } else if (roll < 89) {
            // A paced step leaves its write-out in flight and, under
            // a pin, clamps its write-back like checkpointStep; the
            // pins between steps must still read their horizons.
            op = "paced step";
            bool done = false;
            NVWAL_CHECK_OK(log->checkpointPaced(&done));
        } else if (roll < 95) {
            op = "checkpoint";
            NVWAL_CHECK_OK(log->checkpoint());
        } else {
            op = "truncating checkpoint";
            unpinAll();
            NVWAL_CHECK_OK(log->checkpoint());
            EXPECT_EQ(log->indexedFrames(), 0u);
        }
        expectReadsMatch(op, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(env.stats.get(stats::kCheckpoints), 0u);
    EXPECT_GT(env.stats.get(stats::kCheckpointsPinBlocked), 0u);
    EXPECT_GT(env.stats.get(stats::kFsBlocksWrittenOut), 0u);
}

} // namespace
} // namespace nvwal
