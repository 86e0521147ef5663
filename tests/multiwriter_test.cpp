/**
 * @file
 * Tests for optimistic multi-writer transactions (DESIGN.md §13) and
 * the §13 Connection API: CommitOptions, ConnectOptions::autoWriteTxn,
 * ValueView statements, transact() retry loops, optimistic conflict
 * detection on the one group-commit pipeline, the cached casual
 * snapshot, reopen after interleaved commits, a seeded model check of
 * workspace reads and validation, and the multi-writer crash-point
 * sweeps (pessimistic and adversarial, and one through every branch
 * of the auto-checkpoint gate).
 *
 * Threaded tests only assert interleaving-independent properties:
 * conservation of committed transactions, zero conflicts for
 * page-disjoint writers, and eventual success under bounded retry
 * for overlapping ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "btree/btree.hpp"
#include "db/catalog_codec.hpp"
#include "db/connection.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

DbConfig
mwConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = true;
    return config;
}

EnvConfig
envConfig()
{
    EnvConfig c;
    c.cost = CostModel::nexus5();
    return c;
}

ByteBuffer
rowValue(RowId key, std::uint64_t tag = 0)
{
    return testutil::makeValue(
        64, static_cast<std::uint64_t>(key) * 31 + tag);
}

// ---- §13 API surface (mode-independent) ----------------------------

TEST(MultiwriterApi, CommitOptionsAndDeprecatedOverload)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    // The defaulted CommitOptions form is the plain durable commit.
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(1, testutil::spanOf(rowValue(1))));
    NVWAL_CHECK_OK(conn->commit());

    // Named-knob form: an Async commit that still waits to harden.
    CommitOptions wait_async;
    wait_async.durability = Durability::Async;
    wait_async.waitForHarden = true;
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(2, testutil::spanOf(rowValue(2))));
    NVWAL_CHECK_OK(conn->commit(wait_async));
    EXPECT_EQ(db->asyncAcksPending(), 0u);

    // waitForHarden = false: Async returns before the harden.
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(3, testutil::spanOf(rowValue(3))));
    NVWAL_CHECK_OK(conn->commit(CommitOptions{
        .durability = Durability::Async, .waitForHarden = false}));
    EXPECT_GT(conn->lastCommitEpoch(), 0u);
    NVWAL_CHECK_OK(db->flushAsyncCommits());

    for (RowId k = 1; k <= 3; ++k) {
        ByteBuffer out;
        NVWAL_CHECK_OK(db->get(k, &out));
        EXPECT_EQ(out, rowValue(k));
    }
}

TEST(MultiwriterApi, WriteStatementsOutsideTxnRequireOptIn)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(rowValue(1))));

    // Default connection: a write statement without begin() is an
    // error instead of a silent one-statement transaction.
    std::unique_ptr<Connection> strict;
    NVWAL_CHECK_OK(db->connect(&strict));
    EXPECT_EQ(strict->insert(2, testutil::spanOf(rowValue(2)))
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(strict->update(1, testutil::spanOf(rowValue(1, 9))).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(strict->remove(1).code(), StatusCode::InvalidArgument);
    // Reads never need a transaction.
    ByteBuffer out;
    NVWAL_CHECK_OK(strict->get(1, &out));
    EXPECT_EQ(out, rowValue(1));

    // Opt-in restores statement autocommit.
    ConnectOptions auto_txn;
    auto_txn.autoWriteTxn = true;
    std::unique_ptr<Connection> casual;
    NVWAL_CHECK_OK(db->connect(auto_txn, &casual));
    NVWAL_CHECK_OK(casual->insert(2, testutil::spanOf(rowValue(2))));
    EXPECT_FALSE(casual->inWrite());
    NVWAL_CHECK_OK(db->get(2, &out));
    EXPECT_EQ(out, rowValue(2));
}

TEST(MultiwriterApi, ValueViewUnifiesStringAndSpanStatements)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    const ByteBuffer buf = rowValue(4);
    const std::string str = "owned string value";
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(1, "string literal"));
    NVWAL_CHECK_OK(conn->insert(2, str));
    NVWAL_CHECK_OK(conn->insert(3, testutil::spanOf(buf)));
    NVWAL_CHECK_OK(conn->insert(4, buf));
    NVWAL_CHECK_OK(conn->commit());

    ByteBuffer out;
    const std::string literal = "string literal";
    NVWAL_CHECK_OK(db->get(1, &out));
    EXPECT_EQ(out, ByteBuffer(literal.begin(), literal.end()));
    NVWAL_CHECK_OK(db->get(2, &out));
    EXPECT_EQ(out, ByteBuffer(str.begin(), str.end()));
    NVWAL_CHECK_OK(db->get(3, &out));
    EXPECT_EQ(out, buf);
    NVWAL_CHECK_OK(db->get(4, &out));
    EXPECT_EQ(out, buf);
}

TEST(MultiwriterApi, CasualReadsReuseSnapshotUntilHorizonMoves)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 20; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    const std::uint64_t s0 = db->statValue(stats::kSnapshotsOpened);

    // A hot read loop outside beginRead() builds the casual snapshot
    // once, not once per statement.
    ByteBuffer out;
    std::uint64_t n = 0;
    for (int round = 0; round < 10; ++round) {
        NVWAL_CHECK_OK(conn->get(1 + round, &out));
        EXPECT_EQ(out, rowValue(1 + round));
        NVWAL_CHECK_OK(conn->count(&n));
        EXPECT_EQ(n, 20u);
    }
    const std::uint64_t s1 = db->statValue(stats::kSnapshotsOpened);
    EXPECT_EQ(s1, s0 + 1);

    // A commit moves the horizon: exactly one rebuild, and the new
    // row is visible (casual reads are never stale).
    NVWAL_CHECK_OK(db->insert(21, testutil::spanOf(rowValue(21))));
    for (int round = 0; round < 5; ++round) {
        NVWAL_CHECK_OK(conn->get(21, &out));
        EXPECT_EQ(out, rowValue(21));
    }
    EXPECT_EQ(db->statValue(stats::kSnapshotsOpened), s1 + 1);
}

// ---- multi-writer engine -------------------------------------------

TEST(Multiwriter, CommitsAcrossConnectionsAndGuardsDdl)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    EXPECT_TRUE(db->multiWriterActive());

    // The direct statement API runs through the internal root
    // connection (autocommit transactions).
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(rowValue(1))));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));

    NVWAL_CHECK_OK(a->begin());
    NVWAL_CHECK_OK(a->insert(2, testutil::spanOf(rowValue(2))));
    // An open transaction reads its own uncommitted writes.
    ByteBuffer out;
    NVWAL_CHECK_OK(a->get(2, &out));
    EXPECT_EQ(out, rowValue(2));
    NVWAL_CHECK_OK(a->commit());

    NVWAL_CHECK_OK(b->begin());
    NVWAL_CHECK_OK(b->insert(3, testutil::spanOf(rowValue(3))));
    NVWAL_CHECK_OK(b->commit());

    for (RowId k = 1; k <= 3; ++k) {
        NVWAL_CHECK_OK(db->get(k, &out));
        EXPECT_EQ(out, rowValue(k));
    }
    EXPECT_EQ(db->asyncAcksPending(), 0u);

    // Single-writer-only surfaces are cleanly rejected, not wedged.
    EXPECT_TRUE(db->createTable("side").isUnsupported());
    EXPECT_TRUE(db->dropTable("side").isUnsupported());
    EXPECT_TRUE(db->vacuum().isUnsupported());
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Multiwriter, SnapshotReadsPinTheEpochFloor)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 1u);

    // Epochs published after the pin stay invisible to the snapshot.
    NVWAL_CHECK_OK(db->update(1, testutil::spanOf(rowValue(1, 99))));
    for (RowId k = 11; k <= 15; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(reader->count(&n));
    EXPECT_EQ(n, 10u);
    ByteBuffer out;
    NVWAL_CHECK_OK(reader->get(1, &out));
    EXPECT_EQ(out, rowValue(1));
    EXPECT_TRUE(reader->get(12, &out).isNotFound());

    NVWAL_CHECK_OK(reader->endRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 0u);
    NVWAL_CHECK_OK(reader->count(&n));
    EXPECT_EQ(n, 15u);
    NVWAL_CHECK_OK(reader->get(1, &out));
    EXPECT_EQ(out, rowValue(1, 99));
}

TEST(Multiwriter, ConflictSurfacesAndTransactRetries)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(rowValue(1))));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));

    // A reads-then-writes key 1; B republishes its page in between;
    // A's optimistic validation must lose -- without ever blocking.
    NVWAL_CHECK_OK(a->begin());
    NVWAL_CHECK_OK(a->update(1, testutil::spanOf(rowValue(1, 10))));
    NVWAL_CHECK_OK(b->begin());
    NVWAL_CHECK_OK(b->update(1, testutil::spanOf(rowValue(1, 20))));
    NVWAL_CHECK_OK(b->commit());
    const Status lost = a->commit();
    EXPECT_TRUE(lost.isConflict()) << lost.toString();
    EXPECT_FALSE(a->inWrite());   // rolled back, nothing appended
    EXPECT_GE(db->statValue(stats::kWalLogConflicts), 1u);
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(1, &out));
    EXPECT_EQ(out, rowValue(1, 20));   // B's value, not A's

    // transact() re-runs the body after the lost race.
    int calls = 0;
    const auto body = [&](Connection &txn) -> Status {
        ++calls;
        if (calls == 1) {
            // Invalidate the first attempt from the other connection.
            NVWAL_CHECK_OK(b->begin());
            NVWAL_CHECK_OK(
                b->update(1, testutil::spanOf(rowValue(1, 30))));
            NVWAL_CHECK_OK(b->commit());
        }
        return txn.update(1, testutil::spanOf(rowValue(1, 40)));
    };
    CommitOptions retrying;
    retrying.maxConflictRetries = 2;
    NVWAL_CHECK_OK(a->transact(body, retrying));
    EXPECT_EQ(calls, 2);
    EXPECT_GE(db->statValue(stats::kDbTxnConflictRetries), 1u);
    NVWAL_CHECK_OK(db->get(1, &out));
    EXPECT_EQ(out, rowValue(1, 40));

    // With retries exhausted the Conflict surfaces to the caller.
    int stubborn_calls = 0;
    const auto stubborn = [&](Connection &txn) -> Status {
        ++stubborn_calls;
        NVWAL_CHECK_OK(b->begin());
        NVWAL_CHECK_OK(b->update(
            1, testutil::spanOf(rowValue(1, 50 + stubborn_calls))));
        NVWAL_CHECK_OK(b->commit());
        return txn.update(1, testutil::spanOf(rowValue(1, 99)));
    };
    CommitOptions one_retry;
    one_retry.maxConflictRetries = 1;
    EXPECT_TRUE(a->transact(stubborn, one_retry).isConflict());
    EXPECT_EQ(stubborn_calls, 2);
}

/** The page a Conflict status names as republished. */
PageNo
conflictPage(const Status &s)
{
    const std::string &msg = s.message();
    EXPECT_EQ(msg.rfind("page ", 0), 0u) << msg;
    return static_cast<PageNo>(std::stoul(msg.substr(5)));
}

TEST(Multiwriter, ConflictNamesTheFirstStalePageInFetchOrder)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    // Enough rows that the first and the last key sit on different
    // leaves.
    constexpr RowId kLo = 1;
    constexpr RowId kHi = 300;
    for (RowId k = kLo; k <= kHi; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));
    std::uint64_t tag = 0;
    const auto republish = [&](RowId key) {
        NVWAL_CHECK_OK(b->begin());
        NVWAL_CHECK_OK(b->update(key, testutil::spanOf(rowValue(key, ++tag))));
        NVWAL_CHECK_OK(b->commit());
    };
    // The leaf of @p key, as a conflict on it alone names it.
    const auto leafOf = [&](RowId key) {
        NVWAL_CHECK_OK(a->begin());
        NVWAL_CHECK_OK(a->update(key, testutil::spanOf(rowValue(key, ++tag))));
        republish(key);
        const Status s = a->commit();
        EXPECT_TRUE(s.isConflict()) << s.toString();
        return conflictPage(s);
    };
    const PageNo lo_leaf = leafOf(kLo);
    const PageNo hi_leaf = leafOf(kHi);
    // Appends split rightwards, so the high leaf has the higher page
    // number; the check below relies on it.
    ASSERT_GT(hi_leaf, lo_leaf);

    // A reads the high leaf first, then the low one, and writes the
    // low one. Both are republished -- the high leaf first -- so the
    // winner in fetch order differs from the lowest stale page
    // number and from the newest stale publish.
    ByteBuffer out;
    NVWAL_CHECK_OK(a->begin());
    NVWAL_CHECK_OK(a->get(kHi, &out));
    NVWAL_CHECK_OK(a->update(kLo, testutil::spanOf(rowValue(kLo, ++tag))));
    republish(kHi);
    republish(kLo);
    const Status s = a->commit();
    ASSERT_TRUE(s.isConflict()) << s.toString();
    EXPECT_EQ(conflictPage(s), hi_leaf) << s.toString();

    // The retry waits for the winner and then commits.
    NVWAL_CHECK_OK(a->begin());
    NVWAL_CHECK_OK(a->update(kLo, testutil::spanOf(rowValue(kLo, ++tag))));
    NVWAL_CHECK_OK(a->commit());
    NVWAL_CHECK_OK(db->get(kLo, &out));
    EXPECT_EQ(out, rowValue(kLo, tag));
}

/**
 * Four writer threads over page-disjoint key ranges: the seeded tree
 * gives every thread its own leaves (wide margins keep boundary
 * leaves untouched) and same-size updates leave the structure alone,
 * so optimistic validation must never fire. TSan coverage for the
 * lock-free append / publish / group-harden path.
 */
TEST(Multiwriter, DisjointWriterThreadsCommitWithoutConflicts)
{
    constexpr int kThreads = 4;
    constexpr RowId kRangeStride = 100000;
    constexpr int kSeeded = 256;    // per range
    constexpr int kMargin = 64;     // > leaf capacity: no shared leaf
    constexpr int kTxnsPerThread = 32;
    constexpr int kUpdatesPerTxn = 4;

    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    NVWAL_CHECK_OK(db->begin());
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kSeeded; ++i) {
            const RowId key = t * kRangeStride + i;
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(rowValue(key))));
        }
    NVWAL_CHECK_OK(db->commit());

    std::vector<std::unique_ptr<Connection>> conns(kThreads);
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(db->connect(&conns[t]));

    std::vector<Status> results(kThreads, Status::ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Connection &conn = *conns[t];
            for (int txn = 0; txn < kTxnsPerThread; ++txn) {
                CommitOptions options;
                if (txn % 2 == 0) {
                    options.durability = Durability::Async;
                    options.waitForHarden = false;
                }
                const Status s = conn.transact(
                    [&](Connection &c) -> Status {
                        for (int u = 0; u < kUpdatesPerTxn; ++u) {
                            const RowId key =
                                t * kRangeStride + kMargin +
                                txn * kUpdatesPerTxn + u;
                            NVWAL_RETURN_IF_ERROR(c.update(
                                key,
                                testutil::spanOf(rowValue(key, 7))));
                        }
                        return Status::ok();
                    },
                    options);
                if (!s.isOk()) {
                    results[t] = s;
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(results[t]);

    NVWAL_CHECK_OK(db->flushAsyncCommits());
    EXPECT_EQ(db->asyncAcksPending(), 0u);
    EXPECT_EQ(db->statValue(stats::kWalLogConflicts), 0u);
    EXPECT_EQ(db->statValue(stats::kDbTxnConflictRetries), 0u);

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, static_cast<std::uint64_t>(kThreads) * kSeeded);
    ByteBuffer out;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kTxnsPerThread * kUpdatesPerTxn; ++i) {
            const RowId key = t * kRangeStride + kMargin + i;
            NVWAL_CHECK_OK(db->get(key, &out));
            EXPECT_EQ(out, rowValue(key, 7));
        }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

/**
 * Four writer threads hammering the same sixteen keys: every commit
 * races on the shared leaf, and bounded transact() retries must
 * carry every transaction through. TSan coverage for the conflict
 * validation / rollback / retry path.
 */
TEST(Multiwriter, OverlappingWriterThreadsRetryThrough)
{
    constexpr int kThreads = 4;
    constexpr int kKeys = 16;
    constexpr int kTxnsPerThread = 16;

    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 0; k < kKeys; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    NVWAL_CHECK_OK(db->commit());

    std::vector<std::unique_ptr<Connection>> conns(kThreads);
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(db->connect(&conns[t]));

    CommitOptions retrying;
    retrying.maxConflictRetries = 256;
    std::vector<Status> results(kThreads, Status::ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int txn = 0; txn < kTxnsPerThread; ++txn) {
                const RowId key = txn % kKeys;
                const Status s = conns[t]->transact(
                    [&](Connection &c) {
                        return c.update(
                            key, testutil::spanOf(rowValue(
                                     key, 1000 + static_cast<std::uint64_t>(
                                                     t))));
                    },
                    retrying);
                if (!s.isOk()) {
                    results[t] = s;
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(results[t]);

    // Every conflicted commit was retried (none exhausted the cap).
    EXPECT_EQ(db->statValue(stats::kDbTxnConflictRetries),
              db->statValue(stats::kWalLogConflicts));

    // Each key holds the complete value of SOME thread's last write.
    ByteBuffer out;
    for (RowId k = 0; k < kKeys; ++k) {
        NVWAL_CHECK_OK(db->get(k, &out));
        bool known = false;
        for (int t = 0; t < kThreads; ++t)
            known |= out ==
                     rowValue(k, 1000 + static_cast<std::uint64_t>(t));
        EXPECT_TRUE(known) << "key " << k << " holds a torn value";
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

/**
 * Workspace pages are private copies (DESIGN.md §17): writer threads
 * marking them outside the engine lock never touch the pager's dirty
 * set, which the root connection's commits fill and drain meanwhile.
 * The workers only roll back until the root is done, so the root can
 * read the set between its own commits; TSan coverage for the copy
 * rule.
 */
TEST(Multiwriter, WorkspaceMarksNeverReachThePagerDirtySet)
{
    constexpr int kThreads = 3;
    constexpr RowId kRangeStride = 100000;
    constexpr int kSeeded = 128;     // per range; range kThreads is the root's
    constexpr int kRootCommits = 32;
    constexpr int kUpdatesPerTxn = 4;

    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(), &db));
    NVWAL_CHECK_OK(db->begin());
    for (int t = 0; t <= kThreads; ++t)
        for (int i = 0; i < kSeeded; ++i) {
            const RowId key = t * kRangeStride + i;
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(rowValue(key))));
        }
    NVWAL_CHECK_OK(db->commit());
    ASSERT_TRUE(db->pager().dirtyPageNos().empty());

    std::vector<std::unique_ptr<Connection>> conns(kThreads);
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(db->connect(&conns[t]));

    std::atomic<int> dirtying{0};
    std::atomic<bool> root_done{false};
    std::vector<Status> results(kThreads, Status::ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Connection &conn = *conns[t];
            const auto updateRange = [&](Connection &c, std::uint64_t tag) {
                for (int u = 0; u < kUpdatesPerTxn; ++u) {
                    const RowId key = t * kRangeStride + u * 16;
                    NVWAL_RETURN_IF_ERROR(c.update(
                        key, testutil::spanOf(rowValue(key, tag))));
                }
                return Status::ok();
            };
            bool announced = false;
            while (!root_done.load()) {
                Status s = conn.begin();
                if (s.isOk())
                    s = updateRange(conn, 1);
                if (!announced) {
                    dirtying.fetch_add(1);
                    announced = true;
                }
                const Status r = conn.rollback();
                if (!s.isOk() || !r.isOk()) {
                    results[t] = s.isOk() ? r : s;
                    return;
                }
            }
            // The root is done: commit one transaction for real.
            results[t] = conn.transact(
                [&](Connection &c) { return updateRange(c, 2); });
        });
    }

    while (dirtying.load() < kThreads)
        std::this_thread::yield();
    for (int i = 0; i < kRootCommits; ++i) {
        const RowId key = kThreads * kRangeStride + i;
        NVWAL_CHECK_OK(db->update(key, testutil::spanOf(rowValue(key, 3))));
        ASSERT_TRUE(db->pager().dirtyPageNos().empty())
            << "after root commit " << i;
    }
    root_done.store(true);
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(results[t]);
    EXPECT_TRUE(db->pager().dirtyPageNos().empty());

    ByteBuffer out;
    for (int t = 0; t < kThreads; ++t)
        for (int u = 0; u < kUpdatesPerTxn; ++u) {
            const RowId key = t * kRangeStride + u * 16;
            NVWAL_CHECK_OK(db->get(key, &out));
            EXPECT_EQ(out, rowValue(key, 2));
        }
    for (int i = 0; i < kRootCommits; ++i) {
        const RowId key = kThreads * kRangeStride + i;
        NVWAL_CHECK_OK(db->get(key, &out));
        EXPECT_EQ(out, rowValue(key, 3));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Multiwriter, ReopenMergesEpochLogsByGlobalOrder)
{
    EnvConfig env_config = envConfig();
    Env env(env_config);
    DbConfig config = mwConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));
    CommitOptions no_wait;
    no_wait.durability = Durability::Async;
    no_wait.waitForHarden = false;

    // Interleave commits from two connections, updating the same key
    // from both so recovery must keep their commit order, and leave
    // the tail un-hardened (clean close, not a crash).
    for (int round = 0; round < 6; ++round) {
        Connection &conn = (round % 2 == 0) ? *a : *b;
        NVWAL_CHECK_OK(conn.begin());
        NVWAL_CHECK_OK(conn.insert(100 + round,
                                   testutil::spanOf(rowValue(100 + round))));
        NVWAL_CHECK_OK(
            conn.update(100, testutil::spanOf(rowValue(100, round))));
        NVWAL_CHECK_OK(conn.commit(round < 4 ? no_wait : CommitOptions{}));
    }
    a.reset();
    b.reset();
    db.reset();

    // Reopen: the log still holds the commits; recovery replays them
    // in log order, which is commit order.
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    EXPECT_TRUE(db->multiWriterActive());
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 6u);
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(100, &out));
    EXPECT_EQ(out, rowValue(100, 5));   // the newest epoch's update
    for (int round = 1; round < 6; ++round) {
        NVWAL_CHECK_OK(db->get(100 + round, &out));
        EXPECT_EQ(out, rowValue(100 + round));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
    db.reset();

    // A second reopen keeps the same state and accepts new commits.
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->get(100, &out));
    EXPECT_EQ(out, rowValue(100, 5));
    NVWAL_CHECK_OK(db->insert(999, testutil::spanOf(rowValue(999))));
}

/**
 * Four writer threads on disjoint ranges whose commits run the inline
 * paced checkpoint steps on the one log: every committed update must
 * survive the concurrent write-back, a commit past the threshold with
 * no workspace open must run one paced step that leaves the device's
 * programs off its own clock, and an incremental step must stay
 * incremental.
 */
TEST(Multiwriter, InlineCheckpointStepsDrainUnderWriterThreads)
{
    constexpr int kThreads = 4;
    constexpr RowId kRangeStride = 100000;
    constexpr int kSeeded = 256;    // per range
    constexpr int kMargin = 64;     // > leaf capacity: no shared leaf
    constexpr int kTxnsPerThread = 32;
    constexpr int kUpdatesPerTxn = 4;
    constexpr std::uint64_t kThreshold = 64;

    Env env(envConfig());
    DbConfig config = mwConfig();
    config.checkpointThreshold = kThreshold;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    std::map<RowId, ByteBuffer> oracle;
    NVWAL_CHECK_OK(db->begin());
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kSeeded; ++i) {
            const RowId key = t * kRangeStride + i;
            oracle[key] = rowValue(key);
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(oracle[key])));
        }
    NVWAL_CHECK_OK(db->commit());

    std::vector<std::unique_ptr<Connection>> conns(kThreads);
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(db->connect(&conns[t]));
    const auto updated_key = [](int t, int txn, int u) -> RowId {
        return t * kRangeStride + kMargin + txn * kUpdatesPerTxn + u;
    };

    std::vector<Status> results(kThreads, Status::ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int txn = 0; txn < kTxnsPerThread; ++txn) {
                const Status s = conns[t]->transact(
                    [&](Connection &c) -> Status {
                        for (int u = 0; u < kUpdatesPerTxn; ++u) {
                            const RowId key = updated_key(t, txn, u);
                            NVWAL_RETURN_IF_ERROR(c.update(
                                key, testutil::spanOf(rowValue(key, 7))));
                        }
                        return Status::ok();
                    });
                if (!s.isOk()) {
                    results[t] = s;
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        NVWAL_CHECK_OK(results[t]);
    for (int t = 0; t < kThreads; ++t)
        for (int txn = 0; txn < kTxnsPerThread; ++txn)
            for (int u = 0; u < kUpdatesPerTxn; ++u) {
                const RowId key = updated_key(t, txn, u);
                oracle[key] = rowValue(key, 7);
            }

    std::map<RowId, ByteBuffer> seen;
    NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                            [&](RowId key, ConstByteSpan v) {
                                seen[key] = ByteBuffer(v.begin(), v.end());
                                return true;
                            }));
    EXPECT_TRUE(seen == oracle);

    // With the writers gone no workspace is open, so a root commit
    // past the threshold runs one paced step: it opens a round, and
    // whatever it writes back it leaves to the device's queue rather
    // than programming inside the commit. Each of these rows spills
    // onto at least eight overflow pages, so the commit alone writes
    // kThreshold pages.
    NVWAL_CHECK_OK(db->checkpoint());
    const std::uint64_t programs = db->statValue(stats::kBlocksWritten);
    const std::uint64_t queued = db->statValue(stats::kFsBlocksWrittenOut);
    const std::uint64_t fsyncs = db->statValue(stats::kFsyncs);
    NVWAL_CHECK_OK(db->begin());
    for (RowId i = 0; i < static_cast<RowId>(kThreshold / 8); ++i) {
        const RowId key = kThreads * kRangeStride + i;
        NVWAL_CHECK_OK(db->insert(key, testutil::makeValue(9 * 4096, key)));
    }
    NVWAL_CHECK_OK(db->commit());
    EXPECT_GE(db->walPageWritesSinceCheckpoint(), kThreshold);
    EXPECT_EQ(db->statValue(stats::kBlocksWritten) - programs,
              db->statValue(stats::kFsBlocksWrittenOut) - queued);
    EXPECT_EQ(db->statValue(stats::kFsyncs), fsyncs);

    // One update per range dirties four leaves, below the threshold,
    // so the commit runs no step of its own: one page per step leaves
    // the round unfinished.
    NVWAL_CHECK_OK(db->checkpoint());
    EXPECT_EQ(db->walPageWritesSinceCheckpoint(), 0u);
    NVWAL_CHECK_OK(db->begin());
    for (int t = 0; t < kThreads; ++t) {
        const RowId key = t * kRangeStride;
        NVWAL_CHECK_OK(db->update(key, testutil::spanOf(rowValue(key, 9))));
    }
    NVWAL_CHECK_OK(db->commit());
    bool done = true;
    NVWAL_CHECK_OK(db->checkpointStep(1, &done));
    EXPECT_FALSE(done);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

/** PageSource that forwards to another and records the pages fetched. */
class RecordingSource : public PageSource
{
  public:
    explicit RecordingSource(PageSource &inner) : _inner(inner) {}

    Status
    getPage(PageNo page_no, CachedPage **out) override
    {
        pages.push_back(page_no);
        return _inner.getPage(page_no, out);
    }
    std::uint32_t pageSize() const override { return _inner.pageSize(); }
    std::uint32_t usableSize() const override
    { return _inner.usableSize(); }
    PageNo rootPage() const override { return _inner.rootPage(); }

    std::vector<PageNo> pages;

  private:
    PageSource &_inner;
};

/**
 * Seeded model check of the workspace read path and validation: three
 * connections interleave begin, read, update, commit, rollback and
 * incremental checkpoint steps, holding their workspaces (and so their
 * pins) across each other's commits. Every read inside a transaction
 * must equal the oracle state at the transaction's begin (or its own
 * write), every read outside one the newest state, and a commit must
 * return Conflict exactly when it wrote something and a page it read
 * was installed after its begin. Same-size updates keep the tree's
 * shape fixed, so each key's root-to-leaf path is known up front.
 */
TEST(Multiwriter, InterleavedConnectionsMatchOracleAtEveryBegin)
{
    constexpr RowId kKeys = 96;
    constexpr std::size_t kValueBytes = 200;
    constexpr int kConns = 3;
    constexpr int kSteps = 3000;

    const auto value = [](RowId key, std::uint64_t version) {
        return testutil::makeValue(
            kValueBytes, static_cast<std::uint64_t>(key) * 1000003 + version);
    };
    Env env(envConfig());
    DbConfig config = mwConfig();
    // Small enough that auto-checkpoints run under open workspaces.
    config.checkpointThreshold = 24;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->begin());
    for (RowId key = 0; key < kKeys; ++key)
        NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(value(key, 0))));
    NVWAL_CHECK_OK(db->commit());

    // Root-to-leaf page path of every key, read off the shared pager.
    const auto key_paths = [&] {
        PageNo root = kNoPage;
        BTree catalog(db->pager(), db->pager().rootPage());
        NVWAL_CHECK_OK(scanCatalog(
            catalog, [&](RowId, PageNo table_root, const std::string &name) {
                if (name == Database::kDefaultTable)
                    root = table_root;
                return true;
            }));
        std::vector<std::vector<PageNo>> paths(kKeys);
        for (RowId key = 0; key < kKeys; ++key) {
            RecordingSource rec(db->pager());
            BTree tree(rec, root);
            ByteBuffer out;
            NVWAL_CHECK_OK(tree.get(key, &out));
            paths[static_cast<std::size_t>(key)] = rec.pages;
        }
        return paths;
    };
    const std::vector<std::vector<PageNo>> paths = key_paths();

    // states[k]: every key's version after k commits; installed[k]: the
    // leaves commit k wrote.
    std::vector<std::vector<std::uint64_t>> states(
        1, std::vector<std::uint64_t>(kKeys, 0));
    std::vector<std::set<PageNo>> installed(1);
    struct TxnModel
    {
        bool open = false;
        std::size_t begin = 0;  //!< index into states
        std::map<RowId, std::uint64_t> writes;
        std::set<PageNo> read;
    };
    std::vector<std::unique_ptr<Connection>> conns(kConns);
    std::vector<TxnModel> models(kConns);
    for (auto &conn : conns)
        NVWAL_CHECK_OK(db->connect(&conn));

    Rng rng(0x5EED13);
    std::uint64_t next_version = 1;
    int conflicts = 0;
    int commits = 0;
    const auto random_key = [&] {
        return static_cast<RowId>(rng.nextBelow(kKeys));
    };
    const auto commit = [&](int c, int step) {
        TxnModel &m = models[static_cast<std::size_t>(c)];
        bool lost = false;
        if (!m.writes.empty())
            for (std::size_t k = m.begin + 1; k < states.size(); ++k)
                for (PageNo page : installed[k])
                    lost |= m.read.count(page) != 0;
        CommitOptions options;
        if (rng.nextBelow(3) == 0) {
            options.durability = Durability::Async;
            options.waitForHarden = false;
        }
        const Status s = conns[static_cast<std::size_t>(c)]->commit(options);
        if (lost) {
            EXPECT_TRUE(s.isConflict()) << "step " << step << ": "
                                        << s.toString();
            ++conflicts;
        } else {
            ASSERT_TRUE(s.isOk()) << "step " << step << ": " << s.toString();
            if (!m.writes.empty()) {
                std::vector<std::uint64_t> next = states.back();
                std::set<PageNo> leaves;
                for (const auto &[key, version] : m.writes) {
                    next[static_cast<std::size_t>(key)] = version;
                    leaves.insert(paths[static_cast<std::size_t>(key)].back());
                }
                states.push_back(std::move(next));
                installed.push_back(std::move(leaves));
                ++commits;
            }
        }
        m = TxnModel{};
    };

    for (int step = 0; step < kSteps; ++step) {
        const int c = static_cast<int>(rng.nextBelow(kConns));
        Connection &conn = *conns[static_cast<std::size_t>(c)];
        TxnModel &m = models[static_cast<std::size_t>(c)];
        const std::uint64_t roll = rng.nextBelow(100);
        ByteBuffer out;
        if (roll >= 88) {
            bool done = false;
            NVWAL_CHECK_OK(db->checkpointStep(
                static_cast<std::uint32_t>(1 + rng.nextBelow(8)), &done));
        } else if (!m.open && roll < 50) {
            NVWAL_CHECK_OK(conn.begin());
            m.open = true;
            m.begin = states.size() - 1;
        } else if (!m.open) {
            const RowId key = random_key();
            NVWAL_CHECK_OK(conn.get(key, &out));
            ASSERT_EQ(out, value(key, states.back()[static_cast<std::size_t>(
                                          key)]))
                << "casual read of key " << key << " at step " << step;
        } else if (roll < 35) {
            const RowId key = random_key();
            NVWAL_CHECK_OK(conn.get(key, &out));
            const auto own = m.writes.find(key);
            const std::uint64_t want =
                own != m.writes.end()
                    ? own->second
                    : states[m.begin][static_cast<std::size_t>(key)];
            ASSERT_EQ(out, value(key, want))
                << "read of key " << key << " at step " << step;
            const auto &path = paths[static_cast<std::size_t>(key)];
            m.read.insert(path.begin(), path.end());
        } else if (roll < 65) {
            const RowId key = random_key();
            const std::uint64_t version = next_version++;
            NVWAL_CHECK_OK(
                conn.update(key, testutil::spanOf(value(key, version))));
            m.writes[key] = version;
            const auto &path = paths[static_cast<std::size_t>(key)];
            m.read.insert(path.begin(), path.end());
        } else if (roll < 85) {
            commit(c, step);
        } else {
            NVWAL_CHECK_OK(conn.rollback());
            m = TxnModel{};
        }
    }
    for (int c = 0; c < kConns; ++c)
        if (models[static_cast<std::size_t>(c)].open)
            commit(c, kSteps);
    EXPECT_GT(conflicts, 0);
    EXPECT_GT(commits, 100);
    NVWAL_CHECK_OK(db->flushAsyncCommits());

    const auto expect_newest = [&](const char *when) {
        std::uint64_t n = 0;
        NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                                [&](RowId key, ConstByteSpan v) {
                                    EXPECT_EQ(ByteBuffer(v.begin(), v.end()),
                                              value(key, states.back()[
                                                  static_cast<std::size_t>(
                                                      key)]))
                                        << when << ": key " << key;
                                    ++n;
                                    return true;
                                }));
        EXPECT_EQ(n, static_cast<std::uint64_t>(kKeys)) << when;
        NVWAL_CHECK_OK(db->verifyIntegrity());
    };
    expect_newest("before reopen");
    EXPECT_EQ(key_paths(), paths);  // the model's premise held
    conns.clear();
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    expect_newest("after reopen");
}

// ---- multi-writer crash sweeps -------------------------------------

faultsim::SweepConfig
mwSweepConfig()
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db = mwConfig();
    config.db.nvwal.nvBlockSize = 4096;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    return config;
}

/**
 * Exhaustive pessimistic sweep over interleaved multi-writer
 * transactions: every device op of every commit append, async harden
 * and checkpoint is a crash point -- in particular the window where
 * no-wait commits from several connections are logged but not yet
 * hardened.
 */
TEST(Multiwriter, CrashSweepPessimisticEveryDeviceOp)
{
    faultsim::SweepConfig config = mwSweepConfig();
    config.workload = faultsim::Workload::multiWriterTxns(2, 2);
    config.policies.push_back(faultsim::PolicyRun{});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_EQ(report.replays, report.crashes);
    EXPECT_EQ(report.commitEvents, 4u);
    // No-wait commits leave logged-but-unhardened epochs, so some
    // crash points must land inside the async loss window.
    EXPECT_GT(report.asyncReplays, 0u);
    // Forensics: every recovery parsed the surviving recorder ring.
    EXPECT_EQ(report.forensicsChecked, report.crashes);
    EXPECT_GT(report.frRecordsSurvived, 0u);
}

/**
 * Adversarial multi-seed sweep over three writers: random cache-line
 * survival across the un-hardened commits of several connections
 * must still recover to a committed prefix above the durable floor.
 */
TEST(Multiwriter, CrashSweepAdversarialMultiSeed)
{
    faultsim::SweepConfig config = mwSweepConfig();
    config.workload = faultsim::Workload::multiWriterTxns(3, 2);
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2, 3, 4},
                            0.5});
    config.maxPoints = 25;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GE(report.pointsSwept, 1u);
    EXPECT_LE(report.pointsSwept, 25u);
    EXPECT_EQ(report.replays, report.pointsSwept * 4u);
    EXPECT_EQ(report.crashes, report.replays);
    EXPECT_EQ(report.forensicsChecked, report.crashes);
}

// ---- the auto-checkpoint gate under multi-writer crashes ------------

constexpr std::uint64_t kGateThreshold = 8;
/** Connection c updates keys in [c * kGateRange, c * kGateRange + 200). */
constexpr RowId kGateRange = 1000;

/**
 * A key in leaf @p leaf (0-3) of connection @p conn's seeded range:
 * 50 rows apart, so each lands in its own leaf, and the ranges are
 * 800 keys apart, so no two connections share one.
 */
RowId
gateKey(int conn, int leaf)
{
    return conn * kGateRange + 25 + 50 * leaf;
}

/**
 * Sweep config whose threshold is low enough that interleaved
 * multi-writer transactions run every branch of the auto-checkpoint
 * gate. Each transaction rewrites two leaves of its connection's
 * range with same-size values, so the tree's shape never changes and
 * validation never fires. Three connections round-robin: the fourth
 * commit reaches the threshold and opens a paced round, which queues
 * its eight pages and its fsync on the device, the fifth starts the
 * log's second segment, and, after the application idles while the
 * device drains, the next commit applies the completed sync, closes
 * the round and retires the first segment. Then connection 2 holds a
 * workspace open while connections 0 and 1 commit past twice the
 * threshold (every commit from the threshold on waits for its pin),
 * and its own commit runs the overdue blocking round.
 *
 * With @p device_idle false the application never idles, and the
 * round's sync (3.4 ms of device time) outlasts the commits that take
 * the log to twice the threshold: the commit that finds the log
 * overdue closes the open round, waiting for its sync in flight.
 */
faultsim::SweepConfig
gateSweepConfig(bool device_idle = true)
{
    faultsim::SweepConfig config = mwSweepConfig();
    config.db.checkpointThreshold = kGateThreshold;
    const auto value = [](RowId key, std::uint64_t version) {
        return faultsim::Workload::valueFor(
            64, static_cast<std::uint64_t>(key) * 7 + version);
    };
    faultsim::Workload warmup;
    warmup.phase("seed").begin();
    for (int c = 0; c < 3; ++c)
        for (RowId i = 0; i < 200; ++i)
            warmup.insert(c * kGateRange + i, value(c * kGateRange + i, 0));
    warmup.commit();
    config.warmup = std::move(warmup);

    faultsim::Workload &w = config.workload;
    int txn = 0;
    const auto update_two = [&](int c, int first_leaf) {
        w.connUpdate(c, gateKey(c, first_leaf),
                     value(gateKey(c, first_leaf), 1 + txn));
        w.connUpdate(c, gateKey(c, first_leaf + 2),
                     value(gateKey(c, first_leaf + 2), 1 + txn));
    };
    const auto commit = [&](int c) {
        // Even transactions leave their harden pending, so the
        // rounds also harden logged-but-unhardened commits.
        if (txn % 2 == 0)
            w.connCommitNoWait(c);
        else
            w.connCommit(c);
        ++txn;
    };
    for (int round = 0; round < 2; ++round)
        for (int c = 0; c < 3; ++c) {
            w.phase("paced round: txn " + std::to_string(txn) + " conn " +
                    std::to_string(c));
            w.connBegin(c);
            update_two(c, round);
            commit(c);
        }
    // The opener's round programs its pages, journals them and
    // flushes the device while the application idles, so the next
    // commit finds the round's sync complete and closes it.
    if (device_idle) {
        w.phase("device drains");
        w.idle(2'000'000);
    }
    w.phase("workspace open");
    w.connBegin(2);
    w.connUpdate(2, gateKey(2, 0), value(gateKey(2, 0), 100));
    for (int i = 0; i < 8; ++i) {
        const int c = i % 2;
        w.phase("pin wait: txn " + std::to_string(txn) + " conn " +
                std::to_string(c));
        w.connBegin(c);
        update_two(c, (i / 2) % 2);
        commit(c);
    }
    w.phase("overdue round: workspace commit");
    commit(2);
    w.phase("harden");
    w.connHardenAll();
    return config;
}

/**
 * Run @p w's op @p i, of a kind that gateSweepConfig() uses, with no
 * crash.
 */
void
runOpWithoutCrash(Database &db, const faultsim::Workload &w, std::size_t i,
                  std::vector<std::unique_ptr<Connection>> *conns)
{
    using Kind = faultsim::WorkloadOp::Kind;
    const faultsim::WorkloadOp &op = w.op(i);
    const ConstByteSpan value(op.value.data(), op.value.size());
    Connection *conn = nullptr;
    if (op.conn >= 0) {
        if (conns->size() <= static_cast<std::size_t>(op.conn))
            conns->resize(op.conn + 1);
        std::unique_ptr<Connection> &slot = (*conns)[op.conn];
        if (!slot)
            NVWAL_CHECK_OK(db.connect(&slot));
        conn = slot.get();
    }
    CommitOptions no_wait;
    no_wait.durability = Durability::Async;
    no_wait.waitForHarden = false;
    switch (op.kind) {
      case Kind::Begin: NVWAL_CHECK_OK(db.begin()); break;
      case Kind::Insert: NVWAL_CHECK_OK(db.insert(op.key, value)); break;
      case Kind::Commit: NVWAL_CHECK_OK(db.commit()); break;
      case Kind::ConnBegin: NVWAL_CHECK_OK(conn->begin()); break;
      case Kind::ConnUpdate:
        NVWAL_CHECK_OK(conn->update(op.key, value));
        break;
      case Kind::ConnCommit: NVWAL_CHECK_OK(conn->commit()); break;
      case Kind::ConnCommitNoWait:
        NVWAL_CHECK_OK(conn->commit(no_wait));
        break;
      case Kind::ConnHardenAll:
        NVWAL_CHECK_OK(db.flushAsyncCommits());
        break;
      case Kind::Idle: db.env().clock.advance(op.idleNs); break;
      default:
        ADD_FAILURE() << "op " << i << " has a kind the gate sweep "
                      << "does not use";
        return;
    }
}

/** Run every op of @p w with runOpWithoutCrash(). */
void
runWithoutCrash(Database &db, const faultsim::Workload &w,
                std::vector<std::unique_ptr<Connection>> *conns)
{
    for (std::size_t i = 0; i < w.size(); ++i)
        runOpWithoutCrash(db, w, i, conns);
}

/**
 * The crash sweep reaches what it is meant to: run without a crash,
 * the gate workload opens a paced round that writes back the whole
 * set the log held, though the log is younger than 48 commits; the
 * round closes at a later commit and retires the first segment while
 * the second holds the commits since; the commits under the
 * workspace's pin count as waits; and the workspace's own commit runs
 * the blocking overdue round.
 */
TEST(Multiwriter, GateWorkloadRunsEveryCheckpointBranch)
{
    const faultsim::SweepConfig config = gateSweepConfig();
    Env env(config.env);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));
    std::vector<std::unique_ptr<Connection>> conns;
    runWithoutCrash(*db, config.warmup, &conns);
    NVWAL_CHECK_OK(db->checkpoint());
    auto *log = dynamic_cast<NvwalLog *>(&db->wal());
    ASSERT_NE(log, nullptr);

    // The opener: the commit that reaches the threshold writes back
    // and queues every page the log holds -- the eight leaves its
    // four commits rewrote -- so no page keeps a frame, queues the
    // round's fsync behind them, and leaves the round open.
    const std::uint64_t rounds = env.stats.get(stats::kCheckpoints);
    const std::uint64_t written_out =
        env.stats.get(stats::kFsBlocksWrittenOut);
    const std::uint64_t journal = env.stats.get(stats::kJournalBlocksWritten);
    const std::uint64_t waited = env.stats.get(stats::kBlockdevWaitNs);
    const std::uint64_t fsync_waited =
        env.stats.get(stats::kBlockdevFsyncWaitNs);
    std::uint64_t opener_pages = 0;
    std::size_t i = 0;
    for (; i < config.workload.size() && opener_pages == 0; ++i) {
        const std::uint64_t before =
            env.stats.get(stats::kWalCkptPagesWritten);
        runOpWithoutCrash(*db, config.workload, i, &conns);
        opener_pages = env.stats.get(stats::kWalCkptPagesWritten) - before;
    }
    EXPECT_EQ(opener_pages, 8u);
    EXPECT_LT(log->commitSeq(), 48u);
    EXPECT_EQ(log->indexedFrames(), 0u);
    EXPECT_EQ(env.stats.get(stats::kFsBlocksWrittenOut) - written_out,
              opener_pages +
                  (env.stats.get(stats::kJournalBlocksWritten) - journal));
    EXPECT_EQ(env.stats.get(stats::kFsSyncsStarted), 1u);
    EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds);

    // The rest of the paced round and the pin waits: no commit waits
    // for a program, and the closer applies the sync the opener
    // queued, which has completed by then.
    for (; i < config.workload.size() &&
           config.workload.phaseOf(i).rfind("overdue", 0) != 0;
         ++i)
        runOpWithoutCrash(*db, config.workload, i, &conns);
    EXPECT_EQ(env.stats.get(stats::kBlockdevWaitNs), waited);
    EXPECT_EQ(env.stats.get(stats::kBlockdevFsyncWaitNs), fsync_waited);
    EXPECT_EQ(env.stats.get(stats::kFsSyncsApplied), 1u);
    EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds + 1);
    EXPECT_EQ(env.stats.get(stats::kWalSegmentSwitches), 1u);
    EXPECT_GT(env.stats.get(stats::kWalRetiredPrefixNodes), 0u);
    for (; i < config.workload.size(); ++i)
        runOpWithoutCrash(*db, config.workload, i, &conns);
    EXPECT_EQ(env.stats.get(stats::kAutoCheckpointPinWaits), 7u);
    EXPECT_EQ(env.stats.get(stats::kCheckpointsPinBlocked), 0u);
    EXPECT_EQ(env.stats.get(stats::kWalLogConflicts), 0u);
    conns.clear();
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));

    // CheckpointStart's a16 flags a blocking round, CheckpointEnd's
    // a round that ended. The workload runs no checkpoint by hand, so
    // a blocking round after the paced one closed is the overdue one.
    std::uint64_t open_steps = 0;
    std::uint64_t closers = 0;
    std::uint64_t overdue = 0;
    bool start_full = false;
    for (const FrRecord &r : db->recoveryReport().recording.records) {
        if (r.type == static_cast<std::uint8_t>(FrRecordType::CheckpointStart))
            start_full = r.a16 != 0;
        if (r.type != static_cast<std::uint8_t>(FrRecordType::CheckpointEnd))
            continue;
        if (!start_full && r.a16 == 0)
            ++open_steps;
        else if (!start_full)
            ++closers;
        else if (closers > 0)
            ++overdue;
    }
    EXPECT_EQ(open_steps, 1u);
    EXPECT_EQ(closers, 1u);
    EXPECT_EQ(overdue, 1u);
}

/**
 * Run without a crash, the gate workload with no idle phase keeps the
 * device busy with the round's sync until the log reaches twice the
 * threshold. The overdue commit then closes the open round: it waits
 * for the sync and applies it, rewrites no page and runs no second
 * fsync, and retires the first segment.
 */
TEST(Multiwriter, OverdueCommitClosesARoundWithItsSyncInFlight)
{
    const faultsim::SweepConfig config = gateSweepConfig(false);
    Env env(config.env);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));
    std::vector<std::unique_ptr<Connection>> conns;
    runWithoutCrash(*db, config.warmup, &conns);
    NVWAL_CHECK_OK(db->checkpoint());
    auto *log = dynamic_cast<NvwalLog *>(&db->wal());
    ASSERT_NE(log, nullptr);

    const std::uint64_t rounds = env.stats.get(stats::kCheckpoints);
    const std::uint64_t fsyncs = env.stats.get(stats::kFsyncs);
    const std::uint64_t fsync_waited =
        env.stats.get(stats::kBlockdevFsyncWaitNs);
    std::size_t i = 0;
    for (; i < config.workload.size() &&
           env.stats.get(stats::kFsSyncsStarted) == 0;
         ++i)
        runOpWithoutCrash(*db, config.workload, i, &conns);
    ASSERT_TRUE(log->roundSyncStarted());
    const std::uint64_t pages = env.stats.get(stats::kWalCkptPagesWritten);

    // Every commit up to the overdue one leaves the round open; the
    // commit that closes it, rewriting two leaves, takes the log to
    // twice the threshold.
    std::uint64_t writes = 0;
    for (; i < config.workload.size() &&
           env.stats.get(stats::kFsSyncsApplied) == 0;
         ++i) {
        writes = log->pageWritesSinceCheckpoint();
        runOpWithoutCrash(*db, config.workload, i, &conns);
    }
    EXPECT_GE(writes + 2, 2 * kGateThreshold);
    EXPECT_EQ(config.workload.phaseOf(i - 1).rfind("pin wait", 0), 0u);
    EXPECT_FALSE(log->roundSyncStarted());
    EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds + 1);
    EXPECT_EQ(env.stats.get(stats::kFsyncs), fsyncs + 1);
    EXPECT_EQ(env.stats.get(stats::kWalCkptPagesWritten), pages);
    EXPECT_GT(env.stats.get(stats::kBlockdevFsyncWaitNs), fsync_waited);
    EXPECT_EQ(env.stats.get(stats::kWalSegmentSwitches), 1u);
    EXPECT_GT(env.stats.get(stats::kWalRetiredPrefixNodes), 0u);
    EXPECT_LT(log->pageWritesSinceCheckpoint(), 2 * kGateThreshold);

    for (; i < config.workload.size(); ++i)
        runOpWithoutCrash(*db, config.workload, i, &conns);
    EXPECT_EQ(env.stats.get(stats::kFsSyncsStarted), 1u);
    EXPECT_EQ(env.stats.get(stats::kCheckpointsPinBlocked), 0u);
    EXPECT_EQ(env.stats.get(stats::kWalLogConflicts), 0u);
    EXPECT_EQ(env.heap.countBlocks(BlockState::InUse),
              log->reachableNvramBlocks() +
                  faultsim::recorderBlocks(env.heap,
                                           config.db.nvwal.heapNamespace));
}

/**
 * Exhaustive pessimistic sweep over the gate workload: crash points
 * inside the paced opener, slice and closer, inside commits that wait
 * for a workspace's pin, and inside the overdue blocking round that
 * the workspace's own commit runs.
 */
TEST(Multiwriter, CrashSweepAutoCheckpointGate)
{
    faultsim::SweepConfig config = gateSweepConfig();
    config.policies.push_back(faultsim::PolicyRun{});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_EQ(report.commitEvents, 15u);
    EXPECT_GT(report.asyncReplays, 0u);
}

/**
 * The gate workload with no idle phase, swept pessimistically and
 * adversarially: crash points while the opener's sync is in flight
 * under the commits that follow, and inside the overdue commit that
 * waits for that sync, applies it and retires the first segment.
 */
TEST(Multiwriter, CrashSweepOverdueCloserWithSyncInFlight)
{
    faultsim::SweepConfig config = gateSweepConfig(false);
    config.policies.push_back(faultsim::PolicyRun{});
    faultsim::PolicyRun adversarial;
    adversarial.policy = FailurePolicy::Adversarial;
    adversarial.seeds = {1, 2};
    config.policies.push_back(adversarial);

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_EQ(report.commitEvents, 15u);
}

} // namespace
} // namespace nvwal
