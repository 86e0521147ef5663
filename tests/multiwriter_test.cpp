/**
 * @file
 * Tests for the multi-writer engine (DESIGN.md §13) and the §13
 * Connection API: CommitOptions, ConnectOptions::autoWriteTxn,
 * ValueView statements, transact() retry loops, optimistic conflict
 * detection across per-connection NVRAM logs, the cached casual
 * snapshot, epoch-ordered recovery merges, and the multi-writer
 * crash-point sweeps (pessimistic and adversarial).
 *
 * Threaded tests only assert interleaving-independent properties:
 * conservation of committed transactions, zero conflicts for
 * page-disjoint writers, and eventual success under bounded retry
 * for overlapping ones.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "db/connection.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

DbConfig
mwConfig(std::uint32_t writer_logs = 4)
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = true;
    config.writerLogs = writer_logs;
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
    NVWAL_CHECK_OK(Database::open(env, mwConfig(4), &db));
    EXPECT_TRUE(db->multiWriterActive());

    // The direct statement API runs through the internal root
    // connection (autocommit epochs).
    NVWAL_CHECK_OK(db->insert(1, testutil::spanOf(rowValue(1))));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));
    EXPECT_NE(a->slot(), b->slot());

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
    EXPECT_EQ(db->mwPublishedEpoch(), db->mwHardenedEpoch());
    EXPECT_GT(db->statValue(stats::kWalMwHardens), 0u);

    // Single-writer-only surfaces are cleanly rejected, not wedged.
    EXPECT_TRUE(db->createTable("side").isUnsupported());
    EXPECT_TRUE(db->dropTable("side").isUnsupported());
    EXPECT_TRUE(db->vacuum().isUnsupported());
    EXPECT_TRUE(a->prepare(7).isUnsupported());
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Multiwriter, SnapshotReadsPinTheEpochFloor)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, mwConfig(2), &db));
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
    NVWAL_CHECK_OK(Database::open(env, mwConfig(4), &db));
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
    NVWAL_CHECK_OK(Database::open(env, mwConfig(8), &db));
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
    EXPECT_EQ(db->mwPublishedEpoch(), db->mwHardenedEpoch());
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
    NVWAL_CHECK_OK(Database::open(env, mwConfig(4), &db));
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

TEST(Multiwriter, ReopenMergesEpochLogsByGlobalOrder)
{
    EnvConfig env_config = envConfig();
    Env env(env_config);
    DbConfig config = mwConfig(3);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));
    CommitOptions no_wait;
    no_wait.durability = Durability::Async;
    no_wait.waitForHarden = false;

    // Interleave epochs across two logs, updating the same key from
    // both so the recovery merge must respect the global epoch order,
    // and leave the tail un-hardened (clean close, not a crash).
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

    // Reopen: the per-connection logs still hold the epochs; the
    // merge replays them in epoch order above the anchored base.
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    EXPECT_TRUE(db->multiWriterActive());
    EXPECT_GT(db->statValue(stats::kWalEpochMergeTxns), 0u);
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

    // The anchored log layout is part of the format: a mismatched
    // writerLogs is a configuration error, not silent re-sharding.
    DbConfig wrong = config;
    wrong.writerLogs = 8;
    EXPECT_EQ(Database::open(env, wrong, &db).code(),
              StatusCode::InvalidArgument);
    db.reset();

    // The rejected open left the layout intact.
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->get(100, &out));
    EXPECT_EQ(out, rowValue(100, 5));
    NVWAL_CHECK_OK(db->insert(999, testutil::spanOf(rowValue(999))));
}

// ---- multi-writer crash sweeps -------------------------------------

faultsim::SweepConfig
mwSweepConfig(std::uint32_t writer_logs)
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db = mwConfig(writer_logs);
    config.db.nvwal.nvBlockSize = 4096;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    return config;
}

/**
 * Exhaustive pessimistic sweep over interleaved multi-writer
 * transactions: every device op of every per-connection log append,
 * publish, group harden, and epoch merge is a crash point -- in
 * particular the window between one log's harden and the epoch
 * publish, where the other logs' epochs are still in flight.
 */
TEST(Multiwriter, CrashSweepPessimisticEveryDeviceOp)
{
    faultsim::SweepConfig config = mwSweepConfig(2);
    config.workload = faultsim::Workload::multiWriterTxns(2, 2);
    config.policies.push_back(faultsim::PolicyRun{});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_EQ(report.replays, report.crashes);
    EXPECT_EQ(report.commitEvents, 4u);
    // No-wait commits leave published-but-unhardened epochs, so some
    // crash points must land inside the cross-log loss window.
    EXPECT_GT(report.asyncReplays, 0u);
    // Forensics: every recovery parsed the surviving recorder ring.
    EXPECT_EQ(report.forensicsChecked, report.crashes);
    EXPECT_GT(report.frRecordsSurvived, 0u);
}

/**
 * Adversarial multi-seed sweep over three writers: random cache-line
 * survival across several per-connection log tails at once must
 * still recover to an epoch-ordered committed prefix above the
 * durable floor.
 */
TEST(Multiwriter, CrashSweepAdversarialMultiSeed)
{
    faultsim::SweepConfig config = mwSweepConfig(3);
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

} // namespace
} // namespace nvwal
