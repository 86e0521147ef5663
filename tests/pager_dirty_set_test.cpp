/**
 * @file
 * Tests for the pager's dirty set (DESIGN.md §17): the pager tracks
 * exactly its dirty cached pages, so commit bookkeeping never walks
 * the resident cache. Copies of a page or of its dirty ranges never
 * join the set, and a seeded model check drives every path that
 * fills or drains it -- statements, commit, rollback, a multi-writer
 * workspace install, checkpoint with eviction, and vacuum --
 * comparing the set with a full cache scan after each operation.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "db/env.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

/** The pager's dirty pages found the slow way: every cached page. */
std::vector<PageNo>
fullScan(Pager &pager)
{
    std::vector<PageNo> out;
    for (PageNo no = 1; no <= pager.pageCount(); ++no) {
        const CachedPage *page = pager.cached(no);
        if (page != nullptr && page->isDirty())
            out.push_back(no);
    }
    return out;
}

DbConfig
dbConfig(bool multi_writer)
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = multi_writer;
    // Small enough that the inline checkpoint runs during the model
    // check too.
    config.checkpointThreshold = 64;
    return config;
}

TEST(PagerDirtySet, CopiesNeverJoinTheSet)
{
    Env env;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, dbConfig(false), &db));
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(testutil::makeValue(64, 1))));
    Pager &pager = db->pager();
    ASSERT_TRUE(pager.dirtyPageNos().empty());

    CachedPage *root;
    NVWAL_CHECK_OK(pager.getPage(pager.rootPage(), &root));
    // A copied page and copied ranges mark only themselves.
    CachedPage copy = *root;
    copy.dirty.mark(0, 8);
    DirtyRanges ranges = root->dirty;
    ranges.mark(8, 16);
    DirtyRanges assigned;
    assigned = root->dirty;
    assigned.mark(16, 24);
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    EXPECT_FALSE(root->isDirty());

    // Installing a dirty image enters the page; the commit drains it.
    NVWAL_CHECK_OK(db->begin());
    pager.installPage(pager.rootPage(), copy);
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{pager.rootPage()});
    // Assigning clean ranges over the installed page takes it out.
    root->dirty = DirtyRanges();
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    root->dirty.mark(0, 8);
    EXPECT_EQ(pager.dirtyPageNos(), std::vector<PageNo>{pager.rootPage()});
    NVWAL_CHECK_OK(db->commit());
    EXPECT_TRUE(pager.dirtyPageNos().empty());
    EXPECT_TRUE(fullScan(pager).empty());
}

/**
 * Seeded model check: random operations on one database, reopened as
 * a multi-writer database for workspace installs. After every
 * operation the pager's set must equal the ascending full scan, and
 * after every commit, decision or rollback it must be empty. The
 * rows themselves are checked against an oracle at the end.
 */
TEST(PagerDirtySet, RandomOpsMatchFullScan)
{
    constexpr RowId kKeys = 400;
    Env env;
    std::unique_ptr<Database> db;
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(Database::open(env, dbConfig(false), &db));
    NVWAL_CHECK_OK(db->connect(&conn));
    Rng rng(0xD1E7);

    std::map<RowId, ByteBuffer> committed;
    std::map<RowId, ByteBuffer> pending;
    bool in_txn = false;

    const auto expectSetMatches = [&](const std::string &op, int step) {
        Pager &pager = db->pager();
        ASSERT_EQ(pager.dirtyPageNos(), fullScan(pager))
            << "after " << op << " at step " << step;
    };
    const auto expectClean = [&](const std::string &op, int step) {
        ASSERT_TRUE(db->pager().dirtyPageNos().empty())
            << "after " << op << " at step " << step;
    };
    // One statement: insert an absent key or delete a present one.
    const auto statement = [&](Connection &c,
                               std::map<RowId, ByteBuffer> *rows) {
        const auto key = static_cast<RowId>(rng.nextBelow(kKeys));
        if (rows->count(key) != 0) {
            NVWAL_CHECK_OK(c.remove(key));
            rows->erase(key);
        } else {
            ByteBuffer value =
                testutil::makeValue(16 + rng.nextBelow(600), rng.next());
            NVWAL_CHECK_OK(c.insert(key, testutil::spanOf(value)));
            (*rows)[key] = std::move(value);
        }
    };
    const auto reopen = [&](bool multi_writer) {
        conn.reset();
        db.reset();
        NVWAL_CHECK_OK(Database::open(env, dbConfig(multi_writer), &db));
        NVWAL_CHECK_OK(db->connect(&conn));
    };

    for (int step = 0; step < 600; ++step) {
        std::string op;
        const std::uint64_t roll = rng.nextBelow(100);
        if (in_txn) {
            if (roll < 55) {
                op = "statement";
                statement(*conn, &pending);
            } else if (roll < 70) {
                op = "commit";
                NVWAL_CHECK_OK(conn->commit());
                committed = pending;
                in_txn = false;
                expectClean(op, step);
            } else if (roll < 80) {
                op = "rollback";
                NVWAL_CHECK_OK(conn->rollback());
                pending = committed;
                in_txn = false;
                expectClean(op, step);
            } else {
                // Evicting clean pages mid-transaction keeps every
                // dirty one.
                op = "evict";
                db->pager().dropCleanPages();
            }
        } else if (roll < 60) {
            op = "begin+statement";
            NVWAL_CHECK_OK(conn->begin());
            in_txn = true;
            statement(*conn, &pending);
        } else if (roll < 75) {
            op = "checkpoint";
            NVWAL_CHECK_OK(db->checkpoint());
            db->pager().dropCleanPages();
        } else if (roll < 85) {
            op = "vacuum";
            NVWAL_CHECK_OK(db->vacuum());
        } else {
            // Workspace install: the commit installs the workspace's
            // dirty pages into the pager and drains them again.
            op = "workspace install";
            reopen(true);
            NVWAL_CHECK_OK(conn->begin());
            const std::uint64_t n = 1 + rng.nextBelow(4);
            for (std::uint64_t i = 0; i < n; ++i)
                statement(*conn, &pending);
            expectClean("workspace statements", step);
            NVWAL_CHECK_OK(conn->commit());
            committed = pending;
            expectClean(op, step);
            reopen(false);
        }
        expectSetMatches(op, step);
    }

    if (in_txn)
        NVWAL_CHECK_OK(conn->commit());
    NVWAL_CHECK_OK(db->verifyIntegrity());
    std::uint64_t rows = 0;
    NVWAL_CHECK_OK(db->count(&rows));
    EXPECT_EQ(rows, pending.size());
    ByteBuffer out;
    for (const auto &[key, value] : pending) {
        NVWAL_CHECK_OK(db->get(key, &out));
        EXPECT_EQ(out, value) << "row " << key;
    }
}

} // namespace
} // namespace nvwal
