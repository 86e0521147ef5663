/**
 * @file
 * Tests for the NVRAM flight recorder and the crash-forensics pass
 * (DESIGN.md §12): ring survival and torn-slot scrubbing across
 * power failures, the zero-cost contract (recorder on/off must issue
 * identical persist barriers and flush syscalls), the recovery
 * report's durable-claim cross-checks, and the sweep-level forensics
 * audit.
 */

#include <gtest/gtest.h>

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
nvwalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    return config;
}

/** Count ring records of one type in a recording. */
std::uint64_t
countType(const FlightRecording &rec, FrRecordType type)
{
    std::uint64_t n = 0;
    for (const FrRecord &r : rec.records)
        if (r.type == static_cast<std::uint8_t>(type))
            ++n;
    return n;
}

// ---- ring survival across power failures ---------------------------

TEST(FlightRecorder, PublishedRecordsSurviveAPessimisticCrash)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
    // The engine never flushes the ring; a test-driven durable cut.
    NVWAL_CHECK_OK(db->publishFlightRecorder());
    db.reset();
    env.powerFail(FailurePolicy::Pessimistic);

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const RecoveryReport &report = db->recoveryReport();
    ASSERT_TRUE(report.recorderEnabled);
    ASSERT_TRUE(report.parsed);
    EXPECT_TRUE(report.inconsistencies.empty())
        << report.inconsistencies.front();
    EXPECT_GT(report.recording.validRecords, 0u);
    EXPECT_GT(countType(report.recording, FrRecordType::CommitAck), 0u);
    EXPECT_GT(countType(report.recording, FrRecordType::TxnBegin), 0u);
    // The published incarnation's RecorderOpen record survived, so
    // the boundary-derived fields are meaningful. Txn #1 is open's
    // catalog-init commit; the 10 inserts are #2..#11.
    EXPECT_TRUE(report.incarnationKnown);
    EXPECT_EQ(report.lastAckedTxn, 11u);
    EXPECT_TRUE(report.possiblyInFlight.empty());
}

TEST(FlightRecorder, UnpublishedRingDiesWithThePowerButDataDoesNot)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 5; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
    db.reset();
    // Plain stores only: the pessimistic policy drops every cached
    // line, so the telemetry vanishes -- by design, it bought zero
    // barriers -- while the WAL's committed data survives.
    env.powerFail(FailurePolicy::Pessimistic);

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const RecoveryReport &report = db->recoveryReport();
    ASSERT_TRUE(report.recorderEnabled);
    ASSERT_TRUE(report.parsed);
    EXPECT_EQ(report.recording.validRecords, 0u);
    EXPECT_FALSE(report.incarnationKnown);
    EXPECT_TRUE(report.inconsistencies.empty());
    ByteBuffer out;
    for (RowId k = 1; k <= 5; ++k)
        NVWAL_CHECK_OK(db->get(k, &out));
}

TEST(FlightRecorder, CleanReopenSeesTheWholeRing)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 8; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(32, k)));
    db.reset();

    // No crash: the simulated NVRAM keeps its cached lines, so the
    // un-flushed ring reads back complete.
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const RecoveryReport &report = db->recoveryReport();
    ASSERT_TRUE(report.parsed);
    // 8 inserts + the first open's catalog-init commit.
    EXPECT_EQ(countType(report.recording, FrRecordType::CommitAck), 9u);
    EXPECT_EQ(report.recording.tornSlots, 0u);
    EXPECT_TRUE(report.incarnationKnown);
    EXPECT_TRUE(report.inconsistencies.empty());
}

TEST(FlightRecorder, AdversarialCrashTearsSlotsButNeverTheReport)
{
    // Random line survival leaves half-written 40-byte records in
    // the ring; every one must be checksum-discarded, never parsed
    // into a bogus event, and never fail the open.
    std::uint64_t total_torn = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        EnvConfig env_config = makeEnvConfig();
        env_config.seed = seed;
        Env env(env_config);
        DbConfig config = nvwalConfig();
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        for (RowId k = 1; k <= 20; ++k)
            NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(48, k)));
        db.reset();
        env.powerFail(FailurePolicy::Adversarial, 0.5);

        NVWAL_CHECK_OK(Database::open(env, config, &db));
        const RecoveryReport &report = db->recoveryReport();
        ASSERT_TRUE(report.parsed);
        EXPECT_TRUE(report.inconsistencies.empty())
            << report.inconsistencies.front();
        total_torn += report.recording.tornSlots;
    }
    EXPECT_GT(total_torn, 0u);
}

TEST(FlightRecorder, RingWrapsWithoutLosingTheTail)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    // Every commit acks at least once, so this many commits lap the
    // ring at least twice.
    const RowId inserts = 2 * Database::kFrRingRecords + 8;
    for (RowId k = 1; k <= inserts; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(32, k)));
    db.reset();

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const RecoveryReport &report = db->recoveryReport();
    ASSERT_TRUE(report.parsed);
    EXPECT_EQ(report.recording.capacity, Database::kFrRingRecords);
    EXPECT_GT(report.recording.wraps, 0u);
    EXPECT_LE(report.recording.validRecords,
              static_cast<std::uint64_t>(Database::kFrRingRecords));
    // The newest ack is always among the survivors: the ring
    // overwrites oldest-first.
    std::uint64_t newest_ack = 0;
    for (const FrRecord &r : report.recording.records)
        if (r.type == static_cast<std::uint8_t>(FrRecordType::CommitAck))
            newest_ack = std::max(newest_ack, r.a64);
    // The catalog-init commit + the inserts.
    EXPECT_EQ(newest_ack, static_cast<std::uint64_t>(inserts) + 1);
    EXPECT_GT(env.stats.get(stats::kFrRingWraps), 0u);
}

TEST(FlightRecorder, DisabledRecorderIsInertAndUnsupported)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    config.flightRecorder = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "v"));
    EXPECT_FALSE(db->recoveryReport().recorderEnabled);
    EXPECT_TRUE(db->publishFlightRecorder().isUnsupported());
    EXPECT_EQ(env.stats.get(stats::kFrRecordsWritten), 0u);
}

TEST(FlightRecorder, OfflineCollectMatchesTheRecoveredRing)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 6; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(32, k)));
    NVWAL_CHECK_OK(db->publishFlightRecorder());
    db.reset();
    env.powerFail(FailurePolicy::Pessimistic);

    // The media walker decodes the same bytes the next open will.
    FlightRecording offline;
    NVWAL_CHECK_OK(FlightRecorder::collect(
        env.heap, env.pmem, FlightRecorder::namespaceFor("nvwal"),
        &offline));
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const FlightRecording &online = db->recoveryReport().recording;
    EXPECT_EQ(offline.validRecords, online.validRecords);
    EXPECT_EQ(offline.nextSeq, online.nextSeq);
    EXPECT_EQ(offline.capacity, online.capacity);

    EXPECT_TRUE(FlightRecorder::collect(env.heap, env.pmem, "no-such-ns",
                                        &offline)
                    .isNotFound());
}

// ---- record semantics ----------------------------------------------

TEST(FlightRecorder, CounterSnapshotsCarryResolvableNames)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    // Each autocommit insert is one group batch: enough batches for
    // several sampling periods.
    for (RowId k = 1; k <= 4 * Database::kFrSnapshotEveryBatches; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(32, k)));
    db.reset();

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const FlightRecording &rec = db->recoveryReport().recording;
    const std::uint64_t snapshots =
        countType(rec, FrRecordType::CounterSnapshot);
    ASSERT_GT(snapshots, 0u);
    for (const FrRecord &r : rec.records) {
        if (r.type !=
            static_cast<std::uint8_t>(FrRecordType::CounterSnapshot))
            continue;
        EXPECT_NE(frCounterNameForHash(r.a32), nullptr)
            << "unresolvable counter hash in snapshot record";
    }
    EXPECT_EQ(frCounterNameForHash(frCounterNameHash(
                  stats::kPersistBarriers.c_str())),
              std::string(stats::kPersistBarriers));
}

TEST(FlightRecorder, CheckpointRecordsBracketTheRound)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 6; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
    NVWAL_CHECK_OK(db->checkpoint());
    db.reset();

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const FlightRecording &rec = db->recoveryReport().recording;
    EXPECT_EQ(countType(rec, FrRecordType::CheckpointStart), 1u);
    EXPECT_EQ(countType(rec, FrRecordType::CheckpointEnd), 1u);
    EXPECT_EQ(countType(rec, FrRecordType::Truncation), 1u);
    // The truncation record is a durable claim stamped after the
    // round's barrier: new round in a32, marks truncated in a64.
    for (const FrRecord &r : rec.records) {
        if (r.type != static_cast<std::uint8_t>(FrRecordType::Truncation))
            continue;
        EXPECT_TRUE(r.durableClaim());
        EXPECT_EQ(r.a32, 1u);
        EXPECT_EQ(r.a64, 7u);  // catalog-init commit + 6 inserts
    }
}

TEST(FlightRecorder, SteppedCheckpointRoundsRecordTheirHardens)
{
    // A checkpoint round that hardens pending async commits records
    // Harden(Checkpoint) on every path, the inline paced rounds
    // included: each commit past the threshold may run one paced
    // step, and the step hardens before it writes back. Nothing else
    // hardens here: the staleness window is out of reach and nothing
    // flushes explicitly.
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    config.checkpointThreshold = 20;
    config.asyncMaxEpochs = 1000;
    config.asyncMaxStalenessNs = 0;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 60; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(64, k)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
    }
    ASSERT_GT(db->hardenedEpoch(), 0u);
    ASSERT_GT(db->statValue(stats::kWalCkptPagesWritten), 0u);
    db.reset();

    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const RecoveryReport &report = db->recoveryReport();
    ASSERT_TRUE(report.parsed);
    std::uint64_t checkpoint_hardens = 0;
    for (const FrRecord &r : report.recording.records)
        if (r.type == static_cast<std::uint8_t>(FrRecordType::Harden) &&
            r.a16 == static_cast<std::uint16_t>(FrHardenReason::Checkpoint))
            ++checkpoint_hardens;
    EXPECT_GT(checkpoint_hardens, 0u);
    EXPECT_TRUE(report.inconsistencies.empty());
}

TEST(FlightRecorder, JsonReportCarriesTheDocumentedKeys)
{
    Env env(makeEnvConfig());
    DbConfig config = nvwalConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "v"));
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    const std::string doc = recoveryReportJson(db->recoveryReport());
    for (const char *key :
         {"\"forensics\"", "\"recorderEnabled\"", "\"ring\"",
          "\"recovered\"", "\"incarnationKnown\"", "\"possiblyInFlight\"",
          "\"inconsistencies\"", "\"events\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
}

// ---- the zero-cost contract ----------------------------------------

/**
 * Persist barriers + flush syscalls one fixed workload issues,
 * measured from after open: the ring's one-time creation persist
 * (the only eager write the recorder ever does) stays out, every
 * commit / checkpoint / harden path is in.
 */
void
runWorkloadAndCount(DbConfig config, std::uint64_t *barriers,
                    std::uint64_t *flushes)
{
    Env env(makeEnvConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const std::uint64_t barriers_base =
        env.stats.get(stats::kPersistBarriers);
    const std::uint64_t flushes_base =
        env.stats.get(stats::kFlushSyscalls);
    for (RowId k = 1; k <= 30; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(96, k)));
        NVWAL_CHECK_OK(db->insert(k + 1000, testutil::makeValue(96, k)));
        NVWAL_CHECK_OK(db->commit());
    }
    NVWAL_CHECK_OK(db->checkpoint());
    for (RowId k = 31; k <= 40; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(96, k)));
    db.reset();
    *barriers = env.stats.get(stats::kPersistBarriers) - barriers_base;
    *flushes = env.stats.get(stats::kFlushSyscalls) - flushes_base;
}

TEST(FlightRecorder, RecorderAddsZeroBarriersAndZeroFlushes)
{
    // The headline contract: telemetry rides existing ordering
    // points. Identical workload, recorder on vs off, under every
    // sync mode -- persist barriers and flush syscalls must match
    // exactly, not approximately.
    for (const SyncMode mode :
         {SyncMode::Eager, SyncMode::Lazy, SyncMode::ChecksumAsync}) {
        DbConfig on = nvwalConfig();
        on.nvwal.syncMode = mode;
        DbConfig off = on;
        off.flightRecorder = false;
        std::uint64_t barriers_on = 0, flushes_on = 0;
        std::uint64_t barriers_off = 0, flushes_off = 0;
        runWorkloadAndCount(on, &barriers_on, &flushes_on);
        runWorkloadAndCount(off, &barriers_off, &flushes_off);
        EXPECT_EQ(barriers_on, barriers_off)
            << "sync mode " << static_cast<int>(mode);
        EXPECT_EQ(flushes_on, flushes_off)
            << "sync mode " << static_cast<int>(mode);
    }
}

// ---- sweep-level forensics audit -----------------------------------

TEST(FlightRecorderSweep, EveryCrashPointYieldsAConsistentReport)
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db.walMode = WalMode::Nvwal;
    config.db.nvwal.nvBlockSize = 4096;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::standardTxns(1, 3);
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic
    config.policies.push_back(
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2}, 0.5});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    // The recorder is on by default: every replay's recovery built a
    // report and the harness audited it.
    EXPECT_EQ(report.forensicsChecked, report.replays);
    // Adversarial replays keep random cached lines, so across the
    // sweep some ring records survive and some slots tear.
    EXPECT_GT(report.frRecordsSurvived, 0u);
    EXPECT_GT(report.frTornSlotsDiscarded, 0u);
}

TEST(FlightRecorderSweep, RecorderOffSweepStillPasses)
{
    faultsim::SweepConfig config;
    config.env.cost = CostModel::tuna(500);
    config.env.nvramBytes = 8 << 20;
    config.env.flashBlocks = 2048;
    config.db.walMode = WalMode::Nvwal;
    config.db.nvwal.nvBlockSize = 4096;
    config.db.flightRecorder = false;
    config.warmup = faultsim::Workload::standardTxns(0, 1);
    config.workload = faultsim::Workload::standardTxns(1, 2);
    config.policies.push_back(faultsim::PolicyRun{});

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(report.forensicsChecked, 0u);
    EXPECT_EQ(report.frRecordsSurvived, 0u);
}

} // namespace
} // namespace nvwal
