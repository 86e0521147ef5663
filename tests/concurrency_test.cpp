/**
 * @file
 * Tests for the concurrent-connection surface: snapshot-isolated
 * readers, the group-commit queue under real writer threads, the
 * background checkpointer, and the crash-sweep harness replaying a
 * scripted reader + incremental checkpointer alongside committing
 * transactions.
 *
 * Threaded tests only assert properties that hold under every legal
 * interleaving (snapshot stability, prefix visibility, conservation
 * of committed transactions); scheduling-dependent quantities like
 * the exact batch sizes are checked loosely.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
nvwalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
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
rowValue(RowId key)
{
    return testutil::makeValue(64, static_cast<std::uint64_t>(key));
}

// ---- single-threaded snapshot semantics ----------------------------

TEST(Concurrency, SnapshotIsolationAcrossCommits)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenConnections), 1u);
    NVWAL_CHECK_OK(conn->beginRead());
    EXPECT_TRUE(conn->inRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 1u);

    // Commits after the pin are invisible to the open snapshot.
    for (RowId k = 11; k <= 20; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    NVWAL_CHECK_OK(db->update(1, testutil::spanOf(rowValue(99))));

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 10u);
    ByteBuffer out;
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(1));   // pre-update value
    EXPECT_TRUE(conn->get(15, &out).isNotFound());
    EXPECT_GT(conn->snapshotFetches(), 0u);

    // A fresh snapshot sees the new horizon.
    NVWAL_CHECK_OK(conn->endRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 0u);
    NVWAL_CHECK_OK(conn->beginRead());
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 20u);
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(99));
    NVWAL_CHECK_OK(conn->endRead());

    EXPECT_GE(db->statValue(stats::kSnapshotsOpened), 2u);
    conn.reset();
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenConnections), 0u);
}

TEST(Concurrency, PinnedSnapshotBlocksTruncationThenDrains)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config = nvwalConfig();
    config.autoCheckpoint = false;   // checkpoint only by hand here
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->beginRead());
    for (RowId k = 11; k <= 20; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    // Drain as far as the pin allows: the step loop must terminate
    // (done despite the pin), report the block, and keep the frames
    // the snapshot needs.
    bool done = false;
    for (int round = 0; round < 100 && !done; ++round)
        NVWAL_CHECK_OK(db->checkpointStep(0, &done));
    EXPECT_TRUE(done);
    EXPECT_GE(db->statValue(stats::kCheckpointsPinBlocked), 1u);
    EXPECT_GT(db->walPageWritesSinceCheckpoint(), 0u);

    // The snapshot still reads exactly its pinned state.
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 10u);
    ByteBuffer out;
    EXPECT_TRUE(conn->get(15, &out).isNotFound());

    // Vacuum must refuse while the pin is open.
    EXPECT_TRUE(db->vacuum().isBusy());

    // Unpin: the log drains completely and the new state is visible.
    NVWAL_CHECK_OK(conn->endRead());
    done = false;
    for (int round = 0; round < 100 && !done; ++round)
        NVWAL_CHECK_OK(db->checkpointStep(0, &done));
    EXPECT_TRUE(done);
    EXPECT_EQ(db->walPageWritesSinceCheckpoint(), 0u);
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 20u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Concurrency, WriteTransactionThroughConnection)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    NVWAL_CHECK_OK(conn->begin());
    EXPECT_TRUE(conn->inWrite());
    NVWAL_CHECK_OK(conn->insert(1, "one"));
    NVWAL_CHECK_OK(conn->insert(2, "two"));
    NVWAL_CHECK_OK(conn->commit());
    EXPECT_FALSE(conn->inWrite());

    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(3, "three"));
    NVWAL_CHECK_OK(conn->rollback());

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 2u);
    ByteBuffer out;
    EXPECT_TRUE(db->get(3, &out).isNotFound());
}

// ---- threaded: snapshot readers vs a committing writer -------------

TEST(Concurrency, ReadersSeeCommittedPrefixesWhileWriterCommits)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));

    constexpr RowId kTxns = 40;
    constexpr int kReaders = 4;
    std::atomic<bool> writer_done{false};
    std::atomic<int> failures{0};

    // Commit the first transaction before any reader pins a
    // snapshot, so every snapshot has a committed horizon.
    std::unique_ptr<Connection> writer;
    ConnectOptions auto_txn;
    auto_txn.autoWriteTxn = true;
    NVWAL_CHECK_OK(db->connect(auto_txn, &writer));
    NVWAL_CHECK_OK(writer->insert(1, testutil::spanOf(rowValue(1))));

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            std::unique_ptr<Connection> conn;
            if (!db->connect(&conn).isOk()) {
                failures++;
                return;
            }
            std::uint64_t last_count = 0;
            do {
                if (!conn->beginRead().isOk()) {
                    failures++;
                    return;
                }
                std::uint64_t n = 0;
                bool consistent = true;
                // Writer commits key t at txn t, so every consistent
                // snapshot is exactly the keys 1..n for some n, each
                // with its per-key value.
                if (!conn->count(&n).isOk())
                    consistent = false;
                RowId max_seen = 0;
                if (consistent &&
                    !conn->scan(INT64_MIN, INT64_MAX,
                                [&](RowId k, ConstByteSpan v) {
                                    if (k != max_seen + 1 ||
                                        ByteBuffer(v.begin(), v.end()) !=
                                            rowValue(k))
                                        consistent = false;
                                    max_seen = k;
                                    return consistent;
                                }).isOk())
                    consistent = false;
                if (consistent && max_seen != static_cast<RowId>(n))
                    consistent = false;
                if (consistent && n < last_count)
                    consistent = false;   // horizons are monotonic
                last_count = n;
                // Re-reading the same snapshot is stable.
                std::uint64_t again = 0;
                if (consistent &&
                    (!conn->count(&again).isOk() || again != n))
                    consistent = false;
                if (!conn->endRead().isOk())
                    consistent = false;
                if (!consistent) {
                    failures++;
                    return;
                }
            } while (!writer_done.load());
        });
    }

    for (RowId t = 2; t <= kTxns; ++t)
        NVWAL_CHECK_OK(writer->insert(t, testutil::spanOf(rowValue(t))));
    writer_done.store(true);
    for (auto &r : readers)
        r.join();
    writer.reset();

    EXPECT_EQ(failures.load(), 0);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, static_cast<std::uint64_t>(kTxns));
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

// ---- threaded: group commit ----------------------------------------

TEST(Concurrency, GroupCommitBatchesConcurrentWriters)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));

    constexpr int kWriters = 4;
    // Batching needs writers whose transactions actually overlap in
    // time, which pure scheduling can deny on a single-core host: a
    // thread whose whole loop fits in one quantum runs to completion
    // before the next writer starts. Keep each loop well past a
    // timeslice so preemption lands mid-transaction, and hammer in
    // rounds until at least one batch combines; zero combining across
    // every round is the actual regression being tested for.
    constexpr int kTxnsPerWriter = 1000;
    constexpr int kMaxRounds = 5;
    std::atomic<int> failures{0};

    const std::uint64_t txns_before = db->statValue(stats::kTxnsCommitted);
    const std::uint64_t groups_before =
        db->statValue(stats::kGroupCommits);
    const std::uint64_t grouped_before =
        db->statValue(stats::kGroupCommitTxns);

    std::uint64_t total = 0;
    bool combined = false;
    for (int round = 0; round < kMaxRounds && !combined; ++round) {
        const std::uint64_t groups_at = db->statValue(stats::kGroupCommits);
        std::vector<std::thread> writers;
        writers.reserve(kWriters);
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&, w, round] {
                std::unique_ptr<Connection> conn;
                ConnectOptions auto_txn;
                auto_txn.autoWriteTxn = true;
                if (!db->connect(auto_txn, &conn).isOk()) {
                    failures++;
                    return;
                }
                for (int i = 0; i < kTxnsPerWriter; ++i) {
                    const RowId key =
                        static_cast<RowId>(round) * 1000000 +
                        static_cast<RowId>(w) * 1000 + i;
                    if (!conn->insert(key, testutil::spanOf(rowValue(key)))
                             .isOk()) {
                        failures++;
                        return;
                    }
                }
            });
        }
        for (auto &t : writers)
            t.join();
        ASSERT_EQ(failures.load(), 0);
        total += kWriters * kTxnsPerWriter;
        combined = db->statValue(stats::kGroupCommits) - groups_at <
                   static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter;
    }
    EXPECT_TRUE(combined)
        << "no batch ever combined more than one transaction";

    EXPECT_EQ(db->statValue(stats::kTxnsCommitted) - txns_before, total);
    // Every transaction went through the queue exactly once...
    EXPECT_EQ(db->statValue(stats::kGroupCommitTxns) - grouped_before,
              total);
    const std::uint64_t groups =
        db->statValue(stats::kGroupCommits) - groups_before;
    EXPECT_GE(groups, 1u);
    // ...and at least one group held several.
    EXPECT_LT(groups, total);

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, total);
    for (int w = 0; w < kWriters; ++w) {
        ByteBuffer out;
        const RowId key = static_cast<RowId>(w) * 1000 + kTxnsPerWriter - 1;
        NVWAL_CHECK_OK(db->get(key, &out));
        EXPECT_EQ(out, rowValue(key));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

// ---- threaded: background checkpointer -----------------------------

TEST(Concurrency, BackgroundCheckpointerDrainsWhileCommitting)
{
    Env env(envConfig());
    DbConfig config = nvwalConfig();
    config.backgroundCheckpointer = true;
    config.checkpointThreshold = 8;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    for (RowId k = 1; k <= 60; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    // The checkpointer drains asynchronously; wait for it to catch
    // up (a full drain after the last kick ends at zero frames, but
    // the last few commits may land below the kick threshold).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (db->walPageWritesSinceCheckpoint() >=
               config.checkpointThreshold &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    EXPECT_LT(db->walPageWritesSinceCheckpoint(),
              config.checkpointThreshold);
    EXPECT_GT(db->statValue(stats::kCheckpointerSteps), 0u);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 60u);
    NVWAL_CHECK_OK(db->verifyIntegrity());

    // Reopen: everything committed survives the restart.
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 60u);
}

TEST(Concurrency, CheckpointerRespectsSnapshotPin)
{
    Env env(envConfig());
    DbConfig config = nvwalConfig();
    config.backgroundCheckpointer = true;
    config.checkpointThreshold = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 5; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->beginRead());

    // Push the checkpointer well past its threshold with the pin
    // held: it may write back up to the pin but never truncate past
    // it, so the snapshot stays intact however long this runs.
    for (RowId k = 6; k <= 40; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 5u);
    ByteBuffer out;
    EXPECT_TRUE(conn->get(6, &out).isNotFound());
    NVWAL_CHECK_OK(conn->endRead());
    conn.reset();

    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 40u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

// ---- crash sweep with a scripted reader + checkpointer -------------

/**
 * The deterministic stand-in for "crash while readers and the
 * checkpointer are active": the sweep replays a scripted snapshot
 * reader (open early, verify after every commit and checkpoint step,
 * close late) interleaved with incremental checkpoint steps, and
 * must recover to exactly the same committed states as the plain
 * transaction-only sweep of the same transactions.
 */
TEST(Concurrency, CrashSweepWithReaderAndCheckpointerMatchesPlain)
{
    faultsim::SweepConfig plain;
    plain.env.cost = CostModel::tuna(500);
    plain.env.nvramBytes = 8 << 20;
    plain.env.flashBlocks = 2048;
    plain.db.walMode = WalMode::Nvwal;
    plain.db.nvwal.nvBlockSize = 4096;
    plain.db.autoCheckpoint = false;
    plain.warmup = faultsim::Workload::standardTxns(0, 1);
    plain.workload = faultsim::Workload::standardTxns(1, 3);
    plain.policies.push_back(faultsim::PolicyRun{});  // pessimistic

    faultsim::SweepReport plain_report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(plain).run(&plain_report));
    EXPECT_TRUE(plain_report.ok()) << plain_report.summary();

    // Same transactions, now with a pinned reader and checkpoint
    // steps woven between them.
    faultsim::SweepConfig busy = plain;
    faultsim::Workload w;
    w.phase("reader pin");
    w.snapshotOpen();
    for (int txn = 1; txn <= 3; ++txn) {
        w.phase("txn " + std::to_string(txn));
        w.begin();
        for (int i = 0; i < 3; ++i) {
            const RowId key = txn * 10 + i;
            w.insert(key, faultsim::Workload::valueFor(
                              80, static_cast<std::uint64_t>(txn) * 1000 +
                                      static_cast<std::uint64_t>(key)));
        }
        if (txn > 1) {
            const RowId prev = (txn - 1) * 10;
            w.update(prev, faultsim::Workload::valueFor(
                               80, static_cast<std::uint64_t>(txn) * 1000 +
                                       static_cast<std::uint64_t>(prev)));
        }
        w.commit();
        w.phase("reader+ckpt " + std::to_string(txn));
        w.snapshotVerify();
        w.checkpointStep();
        w.snapshotVerify();
    }
    w.phase("reader close");
    w.snapshotClose();
    w.checkpointStep();
    busy.workload = w;

    faultsim::SweepReport busy_report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(busy).run(&busy_report));
    EXPECT_TRUE(busy_report.ok()) << busy_report.summary();

    // "Recovers identically": the reader and the checkpoint steps add
    // device ops but no durable states, so both sweeps see the same
    // commit-event sequence and both recover every crash point to a
    // legal member of it.
    EXPECT_EQ(busy_report.commitEvents, plain_report.commitEvents);
    EXPECT_GT(busy_report.totalOps, plain_report.totalOps);
    EXPECT_EQ(busy_report.pointsSwept, busy_report.totalOps);
    EXPECT_EQ(busy_report.crashes, busy_report.replays);
}

} // namespace
} // namespace nvwal
