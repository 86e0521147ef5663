/**
 * @file
 * Allocation gate (DESIGN.md §20): after warm-up, a commit on the
 * default NVWAL configuration makes at most ten heap allocations, and
 * a blocking checkpoint round makes none per page it writes back.
 * The commit path reuses its scratch vectors and page buffers, the
 * WAL page index is flat, frame-index nodes come from a per-log pool
 * and the file system's page cache is a flat slot store, so neither
 * path reaches the allocator in steady state.
 *
 * The executable links support/alloc_counter.cpp, which replaces the
 * global operator new with a counting wrapper.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/env.hpp"

namespace nvwal
{
namespace
{

constexpr RowId kRows = 2000;

/** A default-config NVWAL database over @p rows 100-byte rows. */
std::unique_ptr<Database>
openLoaded(Env &env)
{
    std::unique_ptr<Database> db;
    EXPECT_TRUE(Database::open(env, DbConfig{}, &db).isOk());
    const ByteBuffer value(100, 0x5a);
    EXPECT_TRUE(db->begin().isOk());
    for (RowId k = 0; k < kRows; ++k)
        EXPECT_TRUE(db->insert(k, value).isOk());
    EXPECT_TRUE(db->commit().isOk());
    EXPECT_TRUE(db->checkpoint().isOk());
    return db;
}

/**
 * One mobile-OLTP-like transaction: 1-8 updates of random rows.
 * Returns the heap allocations its commit made.
 */
std::uint64_t
runTxn(Database &db, Rng &rng, ByteBuffer &value)
{
    EXPECT_TRUE(db.begin().isOk());
    const std::uint64_t statements = 1 + rng.next() % 8;
    for (std::uint64_t i = 0; i < statements; ++i) {
        value[0] = static_cast<std::uint8_t>(rng.next());
        EXPECT_TRUE(
            db.update(static_cast<RowId>(rng.next() % kRows), value).isOk());
    }
    const std::uint64_t before = alloccount::allocations();
    EXPECT_TRUE(db.commit().isOk());
    return alloccount::allocations() - before;
}

TEST(AllocGate, SteadyStateCommitMakesAtMostTenAllocations)
{
    Env env;
    std::unique_ptr<Database> db = openLoaded(env);
    Rng rng(42);
    ByteBuffer value(100, 0);
    // Warm-up: enough commits to cross the 1000-page-write threshold
    // several times, so every pool and scratch buffer has grown.
    for (int i = 0; i < 3000; ++i)
        runTxn(*db, rng, value);

    const std::uint64_t rounds_before =
        db->statValue(stats::kCheckpoints);
    std::vector<std::uint64_t> allocs;
    allocs.reserve(2000);
    for (int i = 0; i < 2000; ++i)
        allocs.push_back(runTxn(*db, rng, value));
    // The measured commits include the ones whose inline checkpoint
    // round truncated the log.
    EXPECT_GT(db->statValue(stats::kCheckpoints), rounds_before);
    const std::uint64_t worst = *std::max_element(allocs.begin(),
                                                  allocs.end());
    std::uint64_t total = 0;
    for (const std::uint64_t a : allocs)
        total += a;
    RecordProperty("max_allocs_per_commit", static_cast<int>(worst));
    RecordProperty("total_allocs", static_cast<int>(total));
    EXPECT_LE(worst, 10u);
}

TEST(AllocGate, BlockingRoundMakesNoAllocationPerPage)
{
    Env env;
    std::unique_ptr<Database> db = openLoaded(env);
    ByteBuffer value(100, 1);
    // Warm-up round over every page: rewrite each row, so the round
    // writes back the whole table and every buffer reaches full size.
    ASSERT_TRUE(db->begin().isOk());
    for (RowId k = 0; k < kRows; ++k)
        ASSERT_TRUE(db->update(k, value).isOk());
    ASSERT_TRUE(db->commit().isOk());
    ASSERT_TRUE(db->checkpoint().isOk());
    // Then a longer round of the measured kind (more log nodes to
    // free at truncation). Both stay below the 1000-page-write
    // threshold, so no inline round runs.
    Rng rng(7);
    for (int i = 0; i < 150; ++i)
        runTxn(*db, rng, value);
    ASSERT_TRUE(db->checkpoint().isOk());
    for (int i = 0; i < 100; ++i)
        runTxn(*db, rng, value);
    const std::uint64_t pages_before =
        db->statValue(stats::kWalCkptPagesWritten);
    const std::uint64_t rounds_before = db->statValue(stats::kCheckpoints);
    const std::uint64_t before = alloccount::allocations();
    ASSERT_TRUE(db->checkpoint().isOk());
    const std::uint64_t allocs = alloccount::allocations() - before;
    const std::uint64_t pages =
        db->statValue(stats::kWalCkptPagesWritten) - pages_before;
    ASSERT_EQ(db->statValue(stats::kCheckpoints), rounds_before + 1);
    ASSERT_GT(pages, 20u);
    RecordProperty("round_allocs", static_cast<int>(allocs));
    RecordProperty("round_pages", static_cast<int>(pages));
    EXPECT_EQ(allocs, 0u) << allocs << " allocations for " << pages
                          << " written-back pages";
}

} // namespace
} // namespace nvwal
