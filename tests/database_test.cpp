/**
 * @file
 * Integration tests for the Database facade: transactions,
 * autocommit, rollback, checkpointing, reopen, and cross-mode
 * equivalence (the same workload must produce the same logical
 * database under stock WAL, optimized WAL, and every NVWAL variant).
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

struct ModeParam
{
    WalMode mode;
    SyncMode sync;
    bool diff;
    bool userHeap;
    const char *label;
};

DbConfig
configFor(const ModeParam &p)
{
    DbConfig config;
    config.walMode = p.mode;
    config.nvwal.syncMode = p.sync;
    config.nvwal.diffLogging = p.diff;
    config.nvwal.userHeap = p.userHeap;
    return config;
}

class DatabaseTest : public ::testing::TestWithParam<ModeParam>
{
  protected:
    DatabaseTest() : env(makeEnvConfig())
    {
        NVWAL_CHECK_OK(Database::open(env, configFor(GetParam()), &db));
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::nexus5();
        return c;
    }

    void
    reopenDb()
    {
        db.reset();
        NVWAL_CHECK_OK(Database::open(env, configFor(GetParam()), &db));
    }

    Env env;
    std::unique_ptr<Database> db;
};

TEST_P(DatabaseTest, AutocommitInsertGet)
{
    NVWAL_CHECK_OK(db->insert(1, "hello"));
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(1, &out));
    EXPECT_EQ(out, toBytes("hello"));
    EXPECT_FALSE(db->inTransaction());
}

TEST_P(DatabaseTest, ExplicitTransactionBatchesPages)
{
    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 1; k <= 20; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    EXPECT_TRUE(db->inTransaction());
    const std::uint64_t txns_before =
        env.stats.get(stats::kTxnsCommitted);
    NVWAL_CHECK_OK(db->commit());
    EXPECT_EQ(env.stats.get(stats::kTxnsCommitted), txns_before + 1);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 20u);
}

TEST_P(DatabaseTest, NestedBeginRejected)
{
    NVWAL_CHECK_OK(db->begin());
    EXPECT_EQ(db->begin().code(), StatusCode::Busy);
    NVWAL_CHECK_OK(db->rollback());
}

TEST_P(DatabaseTest, CommitWithoutBeginRejected)
{
    EXPECT_FALSE(db->commit().isOk());
    EXPECT_FALSE(db->rollback().isOk());
}

TEST_P(DatabaseTest, RollbackDiscardsChanges)
{
    NVWAL_CHECK_OK(db->insert(1, "keep"));
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->insert(2, "drop"));
    NVWAL_CHECK_OK(db->update(1, testutil::bytesOf("changed")));
    NVWAL_CHECK_OK(db->rollback());

    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(1, &out));
    EXPECT_EQ(out, toBytes("keep"));
    EXPECT_TRUE(db->get(2, &out).isNotFound());
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST_P(DatabaseTest, RollbackAfterSplitRestoresPageCount)
{
    // Fill enough to force page allocations inside the rolled-back
    // transaction.
    const std::uint32_t pages_before = db->pager().pageCount();
    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 1; k <= 200; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    EXPECT_GT(db->pager().pageCount(), pages_before);
    NVWAL_CHECK_OK(db->rollback());
    EXPECT_EQ(db->pager().pageCount(), pages_before);
    std::uint64_t n = 1;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 0u);
    // The tree still works after the rollback.
    NVWAL_CHECK_OK(db->insert(7, "after"));
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(7, &out));
    EXPECT_EQ(out, toBytes("after"));
}

TEST_P(DatabaseTest, FailedStatementInAutocommitRollsBack)
{
    NVWAL_CHECK_OK(db->insert(1, "v"));
    EXPECT_FALSE(db->insert(1, "dup").isOk());  // duplicate key
    EXPECT_FALSE(db->inTransaction());
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 1u);
}

TEST_P(DatabaseTest, ReopenSeesCommittedData)
{
    for (RowId k = 1; k <= 50; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    reopenDb();
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 50u);
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(25, &out));
    EXPECT_EQ(out, testutil::makeValue(100, 25));
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST_P(DatabaseTest, CheckpointThenReopen)
{
    for (RowId k = 1; k <= 100; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    NVWAL_CHECK_OK(db->checkpoint());
    EXPECT_EQ(db->wal().framesSinceCheckpoint(), 0u);
    reopenDb();
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 100u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST_P(DatabaseTest, AutoCheckpointTriggersAtThreshold)
{
    db.reset();
    DbConfig config = configFor(GetParam());
    config.name = "auto.db";
    config.checkpointThreshold = 50;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    const std::uint64_t ckpt_before = env.stats.get(stats::kCheckpoints);
    RowId k = 1;
    for (; k <= 200; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
        // The overdue round keeps every commit's log under twice the
        // threshold.
        EXPECT_LT(db->walPageWritesSinceCheckpoint(), 100u);
    }
    EXPECT_GT(env.stats.get(stats::kCheckpoints), ckpt_before);
    // A paced round keeps the NVRAM log's first segment until a
    // commit finds its sync complete: once the device is idle, the
    // next commit closes a round still open.
    if (env.stats.get(stats::kFsSyncsApplied) !=
        env.stats.get(stats::kFsSyncsStarted)) {
        env.fs.waitWriteOut();
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
        ++k;
        EXPECT_EQ(env.stats.get(stats::kFsSyncsApplied),
                  env.stats.get(stats::kFsSyncsStarted));
    }
    EXPECT_LT(db->wal().framesSinceCheckpoint(), 100u);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, k - 1);
}

TEST_P(DatabaseTest, CheckpointInsideTransactionRejected)
{
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->insert(1, "x"));
    EXPECT_EQ(db->checkpoint().code(), StatusCode::Busy);
    NVWAL_CHECK_OK(db->commit());
    NVWAL_CHECK_OK(db->checkpoint());
}

TEST_P(DatabaseTest, UpdateAndDeleteWorkloads)
{
    for (RowId k = 1; k <= 300; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    for (RowId k = 1; k <= 300; k += 2) {
        NVWAL_CHECK_OK(db->update(
            k, testutil::spanOf(testutil::makeValue(100, 1000 + k))));
    }
    for (RowId k = 2; k <= 300; k += 2)
        NVWAL_CHECK_OK(db->remove(k));

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 150u);
    ByteBuffer out;
    NVWAL_CHECK_OK(db->get(151, &out));
    EXPECT_EQ(out, testutil::makeValue(100, 1151));
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST_P(DatabaseTest, ScanAfterMixedWorkload)
{
    for (RowId k = 1; k <= 100; ++k)
        NVWAL_CHECK_OK(db->insert(k, "v"));
    for (RowId k = 1; k <= 100; k += 3)
        NVWAL_CHECK_OK(db->remove(k));
    std::vector<RowId> seen;
    NVWAL_CHECK_OK(db->scan(1, 100, [&](RowId k, ConstByteSpan) {
        seen.push_back(k);
        return true;
    }));
    for (RowId k : seen)
        EXPECT_NE((k - 1) % 3, 0) << k;
    EXPECT_EQ(seen.size(), 66u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DatabaseTest,
    ::testing::Values(
        ModeParam{WalMode::FileStock, SyncMode::Lazy, true, true,
                  "StockWal"},
        ModeParam{WalMode::FileOptimized, SyncMode::Lazy, true, true,
                  "OptimizedWal"},
        ModeParam{WalMode::Nvwal, SyncMode::Lazy, false, false,
                  "NvwalLS"},
        ModeParam{WalMode::Nvwal, SyncMode::Lazy, true, false,
                  "NvwalLSDiff"},
        ModeParam{WalMode::Nvwal, SyncMode::ChecksumAsync, true, false,
                  "NvwalCSDiff"},
        ModeParam{WalMode::Nvwal, SyncMode::Lazy, false, true,
                  "NvwalUHLS"},
        ModeParam{WalMode::Nvwal, SyncMode::Lazy, true, true,
                  "NvwalUHLSDiff"},
        ModeParam{WalMode::Nvwal, SyncMode::ChecksumAsync, true, true,
                  "NvwalUHCSDiff"},
        ModeParam{WalMode::Nvwal, SyncMode::Eager, true, true,
                  "NvwalUHEagerDiff"}),
    [](const auto &info) { return std::string(info.param.label); });

TEST(DatabaseEquivalence, AllModesProduceTheSameLogicalDatabase)
{
    // Run one mixed workload under every mode and compare the full
    // logical content (WAL-replay equivalence).
    const ModeParam modes[] = {
        {WalMode::FileStock, SyncMode::Lazy, true, true, "stock"},
        {WalMode::FileOptimized, SyncMode::Lazy, true, true, "opt"},
        {WalMode::Nvwal, SyncMode::Lazy, false, false, "ls"},
        {WalMode::Nvwal, SyncMode::Lazy, true, true, "uhlsdiff"},
        {WalMode::Nvwal, SyncMode::ChecksumAsync, true, true, "uhcsdiff"},
        {WalMode::Nvwal, SyncMode::Eager, true, true, "uheagerdiff"},
    };

    std::map<RowId, ByteBuffer> reference;
    bool first = true;
    for (const ModeParam &mode : modes) {
        EnvConfig env_config;
        env_config.cost = CostModel::nexus5();
        Env env(env_config);
        std::unique_ptr<Database> db;
        DbConfig config = configFor(mode);
        config.checkpointThreshold = 40;  // force mid-run checkpoints
        NVWAL_CHECK_OK(Database::open(env, config, &db));

        Rng rng(777);  // same workload for every mode
        for (int txn = 0; txn < 60; ++txn) {
            NVWAL_CHECK_OK(db->begin());
            for (int op = 0; op < 5; ++op) {
                const RowId key = static_cast<RowId>(rng.nextBelow(200));
                const ByteBuffer value =
                    testutil::makeValue(1 + rng.nextBelow(150), rng.next());
                switch (rng.nextBelow(3)) {
                  case 0:
                    (void)db->insert(key, testutil::spanOf(value));
                    break;
                  case 1:
                    (void)db->update(key, testutil::spanOf(value));
                    break;
                  default:
                    (void)db->remove(key);
                    break;
                }
            }
            NVWAL_CHECK_OK(db->commit());
        }
        NVWAL_CHECK_OK(db->verifyIntegrity());

        std::map<RowId, ByteBuffer> content;
        NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                                [&](RowId k, ConstByteSpan v) {
                                    content[k] =
                                        ByteBuffer(v.begin(), v.end());
                                    return true;
                                }));
        if (first) {
            reference = content;
            first = false;
            EXPECT_FALSE(reference.empty());
        } else {
            EXPECT_EQ(content, reference) << "mode " << mode.label;
        }
    }
}

TEST(DatabaseGeometry, MismatchedPageSizeRejectedOnReopen)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "x"));
    NVWAL_CHECK_OK(db->checkpoint());
    db.reset();

    DbConfig other = config;
    other.pageSize = 8192;
    std::unique_ptr<Database> bad;
    EXPECT_FALSE(Database::open(env, other, &bad).isOk());
}

} // namespace
} // namespace nvwal
