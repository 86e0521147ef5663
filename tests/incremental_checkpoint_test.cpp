/**
 * @file
 * Tests for incremental checkpointing: correctness under concurrent
 * commits (pages re-dirtied mid-round must be written back again
 * before truncation), crash safety at every step, and the latency
 * bound it exists for.
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

EnvConfig
smallEnv()
{
    EnvConfig c;
    c.cost = CostModel::nexus5(2000);
    c.nvramBytes = 32 << 20;
    c.flashBlocks = 8192;
    return c;
}

DbConfig
incrementalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 40;
    config.checkpointStepPages = 4;
    return config;
}

TEST(IncrementalCheckpoint, EventuallyTruncatesUnderLoad)
{
    Env env(smallEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, incrementalConfig(), &db));

    std::map<RowId, ByteBuffer> model;
    Rng rng(9);
    for (int txn = 0; txn < 400; ++txn) {
        const RowId key = static_cast<RowId>(rng.nextBelow(500));
        const ByteBuffer v =
            testutil::makeValue(1 + rng.nextBelow(200), rng.next());
        if (model.count(key)) {
            NVWAL_CHECK_OK(db->update(key, testutil::spanOf(v)));
        } else {
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(v)));
        }
        model[key] = v;
    }
    // The log was truncated at least once and is bounded.
    EXPECT_GE(env.stats.get(stats::kCheckpoints), 1u);
    EXPECT_LT(db->wal().framesSinceCheckpoint(), 200u);

    NVWAL_CHECK_OK(db->verifyIntegrity());
    std::map<RowId, ByteBuffer> content;
    NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                            [&](RowId k, ConstByteSpan v) {
                                content[k] = ByteBuffer(v.begin(), v.end());
                                return true;
                            }));
    EXPECT_EQ(content, model);
}

TEST(IncrementalCheckpoint, ReDirtiedPagesAreWrittenBackAgain)
{
    // Drive checkpointStep directly: start a round, then commit a
    // new version of an already-written-back page before finishing;
    // after the final truncation the .db file must hold the newest
    // version.
    Env env(smallEnv());
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    // Many pages in the log.
    for (RowId k = 0; k < 400; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    bool done = false;
    NVWAL_CHECK_OK(db->wal().checkpointStep(2, &done));
    EXPECT_FALSE(done);

    // Mutate between steps (re-dirties pages, some already written).
    NVWAL_CHECK_OK(db->update(
        0, testutil::spanOf(testutil::makeValue(100, 9999))));
    NVWAL_CHECK_OK(db->update(
        399, testutil::spanOf(testutil::makeValue(100, 8888))));

    int steps = 0;
    while (!done) {
        NVWAL_CHECK_OK(db->wal().checkpointStep(2, &done));
        ASSERT_LT(++steps, 1000);
    }
    EXPECT_EQ(db->wal().framesSinceCheckpoint(), 0u);

    // Power failure: only the .db file remains; it must hold the
    // updated values.
    env.powerFail(FailurePolicy::Pessimistic);
    db.reset();
    std::unique_ptr<Database> recovered;
    NVWAL_CHECK_OK(Database::open(env, config, &recovered));
    ByteBuffer out;
    NVWAL_CHECK_OK(recovered->get(0, &out));
    EXPECT_EQ(out, testutil::makeValue(100, 9999));
    NVWAL_CHECK_OK(recovered->get(399, &out));
    EXPECT_EQ(out, testutil::makeValue(100, 8888));
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(recovered->count(&n));
    EXPECT_EQ(n, 400u);
}

TEST(IncrementalCheckpoint, ZeroPageStepIsRejected)
{
    // checkpoint() is the full round; a zero-page step is a caller
    // error, not a way to ask for one.
    Env env(smallEnv());
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 0; k < 100; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    const std::uint64_t frames = db->wal().framesSinceCheckpoint();
    const std::uint64_t page_writes = db->walPageWritesSinceCheckpoint();
    ASSERT_GT(frames, 0u);

    bool done = false;
    const Status s = db->checkpointStep(0, &done);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument) << s.toString();
    EXPECT_FALSE(done);
    EXPECT_EQ(db->wal().framesSinceCheckpoint(), frames);
    EXPECT_EQ(db->walPageWritesSinceCheckpoint(), page_writes);
    EXPECT_EQ(env.stats.get(stats::kWalCkptPagesWritten), 0u);
    EXPECT_EQ(env.stats.histogram(stats::kHistCheckpointNs).count(), 0u);
}

TEST(IncrementalCheckpoint, SteppedRoundRecordsOneCheckpointSample)
{
    // wal.checkpoint_ns gets one sample per finished round however
    // it ran: from the start of the step that opened the round to
    // the end of the step that finished it.
    Env env(smallEnv());
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 0; k < 400; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    const Histogram &hist = env.stats.histogram(stats::kHistCheckpointNs);

    const SimTime begin = env.clock.now();
    bool done = false;
    int steps = 0;
    while (!done) {
        EXPECT_EQ(hist.count(), 0u);
        NVWAL_CHECK_OK(db->wal().checkpointStep(2, &done));
        ASSERT_LT(++steps, 1000);
    }
    EXPECT_GT(steps, 1);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.sum(), env.clock.now() - begin);

    // A full checkpoint() that finishes a round earlier steps opened
    // is timed from its own call, as one sample.
    for (RowId k = 0; k < 400; ++k)
        NVWAL_CHECK_OK(db->remove(k));
    NVWAL_CHECK_OK(db->wal().checkpointStep(2, &done));
    ASSERT_FALSE(done);
    const std::uint64_t sum_before = hist.sum();
    const SimTime full_begin = env.clock.now();
    NVWAL_CHECK_OK(db->wal().checkpoint());
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_EQ(hist.sum() - sum_before, env.clock.now() - full_begin);
}

TEST(IncrementalCheckpoint, CrashDuringRoundIsRecoverable)
{
    // Sweep crashes across incremental rounds (write-backs +
    // interleaved autocommit inserts); after recovery every committed
    // row must be present with its final value. Each insert outside a
    // transaction is its own commit event, so the harness oracle
    // tracks the exact per-insert durability frontier.
    faultsim::SweepConfig config;
    config.env = smallEnv();
    config.db = incrementalConfig();
    for (RowId k = 0; k < 40; ++k) {
        config.warmup.insert(
            k, faultsim::Workload::valueFor(
                   100, static_cast<std::uint64_t>(k) * 7 + 1));
    }
    config.workload.phase("incremental rounds");
    for (RowId k = 40; k < 120; ++k) {
        config.workload.insert(
            k, faultsim::Workload::valueFor(
                   100, static_cast<std::uint64_t>(k) * 7 + 1));
    }
    config.policies.push_back(faultsim::PolicyRun{});  // pessimistic
    config.maxPoints = 50;

    faultsim::SweepReport report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(config).run(&report));
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.crashes, 0u);
}

TEST(IncrementalCheckpoint, BoundsCommitLatencySpike)
{
    // A per-step fsync has a fixed floor (journal commit + device
    // barrier), so the bound shows against checkpoints large enough
    // to dwarf it -- which is exactly when the spike matters.
    auto maxCommitLatency = [](bool incremental) {
        Env env(smallEnv());
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        config.checkpointThreshold = 400;
        config.checkpointStepPages = incremental ? 2 : 0;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        SimTime worst = 0;
        Rng rng(3);
        for (RowId k = 0; k < 1200; ++k) {
            ByteBuffer v(100, static_cast<std::uint8_t>(rng.next()));
            const SimTime start = env.clock.now();
            NVWAL_CHECK_OK(
                db->insert(k, ConstByteSpan(v.data(), v.size())));
            worst = std::max(worst, env.clock.now() - start);
        }
        return worst;
    };
    const SimTime full = maxCommitLatency(false);
    const SimTime incremental = maxCommitLatency(true);
    EXPECT_LT(incremental, full / 2);
}

} // namespace
} // namespace nvwal
