/**
 * @file
 * Tests for the durability-epoch pipeline (DESIGN.md §11): the
 * Durability::Async commit level, epoch sequencing and acks, the
 * bounded-staleness window, prefix-consistent recovery with torn
 * frame classification, and the crash sweeps that audit the
 * probabilistic-consistency claim. The AsyncConcurrency suite runs
 * concurrent async committers that harden each other's epochs inline
 * (with stepped checkpoint rounds riding their commits) and is part
 * of the TSan CI job.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "db/connection.hpp"
#include "db/database.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

EnvConfig
makeEnvConfig()
{
    EnvConfig c;
    c.cost = CostModel::tuna(500);
    return c;
}

DbConfig
asyncConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.nvwal.syncMode = SyncMode::Lazy;
    config.nvwal.diffLogging = true;
    config.nvwal.userHeap = true;
    return config;
}

// ---- the commit API ------------------------------------------------

TEST(AsyncDurability, UnsupportedOnFileWalKeepsTxnOpen)
{
    Env env(makeEnvConfig());
    DbConfig config;
    config.walMode = WalMode::FileOptimized;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->insert(1, "v"));
    EXPECT_TRUE(db->commit(Durability::Async).isUnsupported());
    // The transaction is still open and retryable at a strict level.
    EXPECT_TRUE(db->inTransaction());
    NVWAL_CHECK_OK(db->commit());
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(1, &out));
}

TEST(AsyncDurability, AcksCompleteWhenTheEpochHardens)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 100;       // never force by count
    config.asyncMaxStalenessNs = 0;    // never force by age
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    for (RowId k = 1; k <= 5; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
        EXPECT_GT(db->lastCommitEpoch(), 0u);
    }
    // Acked, visible, but not yet guaranteed durable.
    EXPECT_EQ(db->asyncAcksPending(), 5u);
    EXPECT_EQ(db->hardenedEpoch(), 0u);
    EXPECT_EQ(db->statValue(stats::kDbAsyncCommits), 5u);
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(3, &out));

    NVWAL_CHECK_OK(db->flushAsyncCommits());
    EXPECT_EQ(db->asyncAcksPending(), 0u);
    EXPECT_EQ(db->hardenedEpoch(), db->lastCommitEpoch());
    EXPECT_EQ(db->statValue(stats::kWalEpochsHardened), 5u);
    EXPECT_GE(db->statValue(stats::kWalHardenBatches), 1u);
    EXPECT_EQ(db->statGauge(stats::kGaugeAsyncAcksPending), 0u);
}

TEST(AsyncDurability, EpochCountBoundForcesHarden)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 2;
    config.asyncMaxStalenessNs = 0;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    for (RowId k = 1; k <= 8; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
        // The staleness window is the contract: never more than
        // asyncMaxEpochs epochs (here, commits) at risk.
        EXPECT_LE(db->asyncAcksPending(), 2u);
    }
    // 8 commits with a window of 2 force a harden after the 3rd and
    // the 6th; the final two stay pending within the window.
    EXPECT_GE(db->statValue(stats::kWalHardenBatches), 2u);
    EXPECT_EQ(db->asyncAcksPending(), 2u);
}

TEST(AsyncDurability, StalenessAgeBoundForcesHarden)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 1000;
    config.asyncMaxStalenessNs = 1;   // any simulated time forces it
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    for (RowId k = 1; k <= 4; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
        // Each commit advances the simulated clock, so the epoch
        // pending when the next one lands is already over-age.
        EXPECT_LE(db->asyncAcksPending(), 2u);
    }
}

TEST(AsyncDurability, WaitForEpochHardensInline)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 100;
    config.asyncMaxStalenessNs = 0;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->insert(1, "payload"));
    NVWAL_CHECK_OK(db->commit(Durability::Async));
    const std::uint64_t epoch = db->lastCommitEpoch();
    ASSERT_GT(epoch, 0u);
    NVWAL_CHECK_OK(db->waitForAsyncEpoch(epoch));
    EXPECT_GE(db->hardenedEpoch(), epoch);
    EXPECT_EQ(db->asyncAcksPending(), 0u);
}

TEST(AsyncDurability, FewerBarriersPerTxnThanLazyGroupCommit)
{
    // The pipeline's raison d'etre: N async commits cost ~1 barrier
    // pair at the forced harden, against one pair per (group of)
    // commit under Lazy. Single-threaded, so Lazy pays per commit.
    constexpr int kTxns = 16;
    std::uint64_t barriers_sync = 0;
    std::uint64_t barriers_async = 0;

    for (const bool async : {false, true}) {
        Env env(makeEnvConfig());
        DbConfig config = asyncConfig();
        config.asyncMaxEpochs = 100;
        config.asyncMaxStalenessNs = 0;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        const std::uint64_t before =
            db->statValue(stats::kPersistBarriers);
        for (RowId k = 1; k <= kTxns; ++k) {
            NVWAL_CHECK_OK(db->begin());
            NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
            NVWAL_CHECK_OK(db->commit(async ? Durability::Async
                                            : Durability::Sync));
        }
        if (async)
            NVWAL_CHECK_OK(db->flushAsyncCommits());
        const std::uint64_t delta =
            db->statValue(stats::kPersistBarriers) - before;
        (async ? barriers_async : barriers_sync) = delta;
    }
    // Both runs pay the same allocation/page barriers; async elides
    // the per-commit flush pair, so it lands well under 2/3 of Lazy.
    EXPECT_LT(barriers_async * 3, barriers_sync * 2)
        << "async=" << barriers_async << " sync=" << barriers_sync;
}

TEST(AsyncDurability, FlushedCommitsSurviveReopen)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 6; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(48, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
    }
    NVWAL_CHECK_OK(db->flushAsyncCommits());
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 6; ++k) {
        ByteBuffer out;
        NVWAL_CHECK_OK(db->get(k, &out));
        EXPECT_EQ(out, testutil::makeValue(48, k));
    }
}

TEST(AsyncDurability, PessimisticCrashRecoversHardenedPrefix)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 100;
    config.asyncMaxStalenessNs = 0;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    // Hardened prefix: keys 1..3 flushed explicitly.
    for (RowId k = 1; k <= 3; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(48, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
    }
    NVWAL_CHECK_OK(db->flushAsyncCommits());
    // At-risk suffix: keys 4..6 acked, never hardened. Each
    // transaction also inserts six 500-byte filler rows, so the
    // suffix tears at a known spot under multi-range diff frames.
    // Key 4's transaction fills the leaf, and the adaptive rule ships
    // it as ONE full-page frame carrying its commit mark, at the head
    // of a fresh log node. Key 5's split then writes more fresh pages
    // than that node has left, so the log links another node, and
    // the link's persist flushes the first line of key 4's node: the
    // mark lands on media, the page payload does not.
    constexpr int kFillers = 6;
    const auto fillerKey = [](RowId k, int j) {
        return static_cast<RowId>(1000 * k + j);
    };
    for (RowId k = 4; k <= 6; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(500, k)));
        for (int j = 0; j < kFillers; ++j)
            NVWAL_CHECK_OK(db->insert(fillerKey(k, j),
                                      testutil::makeValue(500, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
    }
    EXPECT_EQ(db->asyncAcksPending(), 3u);

    // Pessimistic power failure: every line still in the volatile
    // cache is lost, so the at-risk suffix must vanish cleanly.
    env.powerFail(FailurePolicy::Pessimistic);
    NVWAL_CHECK_OK(Database::recoverAfterCrash(env, config, &db));
    for (RowId k = 1; k <= 3; ++k) {
        ByteBuffer out;
        NVWAL_CHECK_OK(db->get(k, &out));
    }
    ByteBuffer out;
    for (RowId k = 4; k <= 6; ++k) {
        EXPECT_TRUE(db->get(k, &out).isNotFound()) << "key " << k;
        for (int j = 0; j < kFillers; ++j)
            EXPECT_TRUE(db->get(fillerKey(k, j), &out).isNotFound())
                << "filler " << fillerKey(k, j);
    }
    // Recovery classified (and counted) what it discarded.
    EXPECT_GT(db->statValue(stats::kWalTornFramesDetected) +
                  db->statValue(stats::kWalRecoveryFramesDiscarded),
              0u);
    EXPECT_GE(db->statValue(stats::kWalRecoveryLostMarks), 1u);
    // The recovered database accepts new writes.
    NVWAL_CHECK_OK(db->insert(100, "post-crash"));
}

// ---- crash sweeps over async workloads ------------------------------

faultsim::SweepConfig
sweepBase()
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db = asyncConfig();
    config.db.nvwal.nvBlockSize = 4096;
    return config;
}

TEST(FaultSimAsync, PessimisticSweepBoundedLossWindow)
{
    faultsim::SweepConfig config = sweepBase();
    config.db.asyncMaxEpochs = 2;
    config.db.asyncMaxStalenessNs = 0;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::asyncTxns(1, 3, /*flush_every=*/2);
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_EQ(report.replays, report.crashes);
    // The sweep crossed states with acks at risk, and every recovered
    // prefix stayed within the configured window (a floor breach
    // would have been a violation).
    EXPECT_GT(report.asyncReplays, 0u);
    EXPECT_LE(report.maxLossEvents, config.db.asyncMaxEpochs);
}

TEST(FaultSimAsync, AdversarialSweepDetectsEveryTornFrame)
{
    faultsim::SweepConfig config = sweepBase();
    config.db.asyncMaxEpochs = 3;
    config.db.asyncMaxStalenessNs = 0;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::asyncTxns(1, 3);
    // Default matrix: pessimistic plus adversarial with four seeds.

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    // Prefix consistency + the durable floor held at every point
    // under every seed; any torn frame recovery failed to detect
    // would have surfaced as a state mismatch here.
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.asyncReplays, 0u);
    // Random line survival must actually have torn something across
    // the whole sweep, and recovery classified every instance.
    EXPECT_GT(report.tornFramesDetected, 0u);
    EXPECT_GE(report.framesDiscarded, report.tornFramesDetected);
}

TEST(FaultSimAsync, MixedSyncAndAsyncCommitsKeepTheFloor)
{
    faultsim::SweepConfig config = sweepBase();
    config.db.asyncMaxEpochs = 4;
    config.db.asyncMaxStalenessNs = 0;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    // Async commits bracketed by strict ones: the strict appends
    // merge pending epochs into their barrier, so the floor climbs
    // with them and the adversary can only lose the async tail.
    faultsim::Workload w;
    w.phase("async 1").begin();
    w.insert(100, faultsim::Workload::valueFor(64, 100));
    w.commitAsync();
    w.phase("sync").begin();
    w.insert(110, faultsim::Workload::valueFor(64, 110));
    w.commit();
    w.phase("async 2").begin();
    w.insert(120, faultsim::Workload::valueFor(64, 120));
    w.commitAsync();
    config.workload = w;
    config.policies.push_back(faultsim::PolicyRun{});
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2}, 0.5});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    // At most the final async commit is ever at risk.
    EXPECT_LE(report.maxLossEvents, 1u);
}

/**
 * Run @p w on @p db without a crash. Covers the op kinds the async
 * sweeps below script.
 */
Status
replayWorkload(Database &db, const faultsim::Workload &w)
{
    for (std::size_t i = 0; i < w.size(); ++i) {
        const faultsim::WorkloadOp &op = w.op(i);
        const ConstByteSpan value(op.value.data(), op.value.size());
        bool done = false;
        switch (op.kind) {
          case faultsim::WorkloadOp::Kind::Begin:
            NVWAL_RETURN_IF_ERROR(db.begin());
            break;
          case faultsim::WorkloadOp::Kind::Insert:
            NVWAL_RETURN_IF_ERROR(db.insert(op.key, value));
            break;
          case faultsim::WorkloadOp::Kind::Update:
            NVWAL_RETURN_IF_ERROR(db.update(op.key, value));
            break;
          case faultsim::WorkloadOp::Kind::Commit:
            NVWAL_RETURN_IF_ERROR(db.commit());
            break;
          case faultsim::WorkloadOp::Kind::CommitAsync:
            NVWAL_RETURN_IF_ERROR(db.commit(Durability::Async));
            break;
          case faultsim::WorkloadOp::Kind::CheckpointStep:
            NVWAL_RETURN_IF_ERROR(
                db.checkpointStep(faultsim::kCheckpointStepPages, &done));
            break;
          default:
            return Status::invalidArgument("op kind not replayed here");
        }
    }
    return Status::ok();
}

TEST(FaultSimAsync, StalenessAndCheckpointHardensKeepTheWindow)
{
    // The two inline retire paths the sweeps above leave out: the age
    // bound in the group append (every other sweep disables it) and a
    // checkpoint step hardening the pending epochs before write-back.
    faultsim::SweepConfig config = sweepBase();
    config.db.asyncMaxEpochs = 2;
    // 100 us: shorter than one commit's simulated time, so each async
    // commit leaves its epoch pending and the next one ages it out.
    config.db.asyncMaxStalenessNs = 100000;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::asyncTxns(1, 3);
    config.workload.phase("checkpoint steps");
    config.workload.checkpointStep();
    config.workload.checkpointStep();
    config.policies.push_back(faultsim::PolicyRun{});
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2}, 0.5});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.asyncReplays, 0u);
    EXPECT_LE(report.maxLossEvents, config.db.asyncMaxEpochs);

    // Without a crash, the same workload retires its epochs through
    // both paths, and the flight recorder names each.
    Env env(config.env);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));
    NVWAL_CHECK_OK(replayWorkload(*db, config.warmup));
    NVWAL_CHECK_OK(db->checkpoint());
    NVWAL_CHECK_OK(replayWorkload(*db, config.workload));
    EXPECT_EQ(db->asyncAcksPending(), 0u);
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config.db, &db));
    const RecoveryReport &recovery = db->recoveryReport();
    ASSERT_TRUE(recovery.parsed);
    std::map<FrHardenReason, std::uint64_t> hardens;
    for (const FrRecord &r : recovery.recording.records)
        if (r.type == static_cast<std::uint8_t>(FrRecordType::Harden))
            ++hardens[static_cast<FrHardenReason>(r.a16)];
    EXPECT_GE(hardens[FrHardenReason::WindowStaleness], 1u);
    EXPECT_GE(hardens[FrHardenReason::Checkpoint], 1u);
}

// ---- concurrent async committers (TSan-covered) ---------------------

TEST(AsyncConcurrency, ConcurrentWaitersHardenTheirEpochs)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.asyncMaxEpochs = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    constexpr int kThreads = 4;
    constexpr int kTxnsPerThread = 12;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&db, t] {
            std::unique_ptr<Connection> conn;
            NVWAL_CHECK_OK(db->connect(&conn));
            for (int i = 0; i < kTxnsPerThread; ++i) {
                const RowId key = t * 1000 + i;
                NVWAL_CHECK_OK(conn->begin());
                NVWAL_CHECK_OK(
                    conn->insert(key, testutil::makeValue(48, key)));
                NVWAL_CHECK_OK(conn->commit(CommitOptions{
                    .durability = Durability::Async,
                    .waitForHarden = false}));
            }
            // Wait for this connection's newest epoch: a neighbour's
            // forced harden may already have completed it, otherwise
            // the wait hardens it inline.
            NVWAL_CHECK_OK(
                db->waitForAsyncEpoch(conn->lastCommitEpoch()));
        });
    }
    for (std::thread &w : workers)
        w.join();

    NVWAL_CHECK_OK(db->flushAsyncCommits());
    EXPECT_EQ(db->asyncAcksPending(), 0u);
    std::uint64_t rows = 0;
    NVWAL_CHECK_OK(db->count(&rows));
    EXPECT_EQ(rows, static_cast<std::uint64_t>(kThreads) *
                        kTxnsPerThread);
    EXPECT_GE(db->statValue(stats::kWalEpochsHardened), 1u);
}

TEST(AsyncConcurrency, MixedDurabilityLevelsAcrossThreads)
{
    Env env(makeEnvConfig());
    DbConfig config = asyncConfig();
    config.checkpointThreshold = 16;  // paced steps between the commits
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    constexpr int kThreads = 3;
    constexpr int kTxnsPerThread = 10;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&db, t] {
            std::unique_ptr<Connection> conn;
            NVWAL_CHECK_OK(db->connect(&conn));
            for (int i = 0; i < kTxnsPerThread; ++i) {
                const RowId key = t * 1000 + i;
                NVWAL_CHECK_OK(conn->begin());
                NVWAL_CHECK_OK(
                    conn->insert(key, testutil::makeValue(96, key)));
                // Thread 0 commits strictly, the rest async: sync
                // appends interleave with pending epochs.
                NVWAL_CHECK_OK(conn->commit(CommitOptions{
                    .durability =
                        t == 0 ? Durability::Group : Durability::Async,
                    .waitForHarden = false}));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    NVWAL_CHECK_OK(db->flushAsyncCommits());
    std::uint64_t rows = 0;
    NVWAL_CHECK_OK(db->count(&rows));
    EXPECT_EQ(rows, static_cast<std::uint64_t>(kThreads) *
                        kTxnsPerThread);
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->count(&rows));
    EXPECT_EQ(rows, static_cast<std::uint64_t>(kThreads) *
                        kTxnsPerThread);
}

} // namespace
} // namespace nvwal
