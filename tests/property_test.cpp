/**
 * @file
 * Property-based tests: long random workloads against a std::map
 * oracle, across WAL modes, page geometries and seeds, with
 * mid-stream reopens, checkpoints and (for the strict schemes)
 * injected power failures.
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

struct PropertyParam
{
    WalMode mode;
    SyncMode sync;
    bool diff;
    bool userHeap;
    std::uint64_t seed;
    const char *label;
};

DbConfig
dbConfigFor(const PropertyParam &p)
{
    DbConfig config;
    config.walMode = p.mode;
    config.nvwal.syncMode = p.sync;
    config.nvwal.diffLogging = p.diff;
    config.nvwal.userHeap = p.userHeap;
    config.checkpointThreshold = 60;
    return config;
}

class RandomWorkload : public ::testing::TestWithParam<PropertyParam>
{
};

TEST_P(RandomWorkload, OracleEquivalenceWithReopens)
{
    const PropertyParam param = GetParam();
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    env_config.nvramBytes = 16 << 20;
    env_config.flashBlocks = 4096;
    Env env(env_config);
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, dbConfigFor(param), &db));

    Rng rng(param.seed);
    std::map<RowId, ByteBuffer> oracle;

    for (int txn = 0; txn < 120; ++txn) {
        const bool explicit_txn = rng.nextBool(0.7);
        std::map<RowId, ByteBuffer> staged = oracle;
        if (explicit_txn)
            NVWAL_CHECK_OK(db->begin());
        const int ops = 1 + static_cast<int>(rng.nextBelow(6));
        for (int i = 0; i < ops; ++i) {
            const RowId key = static_cast<RowId>(rng.nextBelow(400));
            const bool exists = staged.count(key) > 0;
            const ByteBuffer value =
                testutil::makeValue(1 + rng.nextBelow(180), rng.next());
            switch (rng.nextBelow(4)) {
              case 0: {
                const Status s = db->insert(key, testutil::spanOf(value));
                EXPECT_EQ(s.isOk(), !exists);
                if (s.isOk())
                    staged[key] = value;
                break;
              }
              case 1: {
                const Status s = db->update(key, testutil::spanOf(value));
                EXPECT_EQ(s.isOk(), exists);
                if (s.isOk())
                    staged[key] = value;
                break;
              }
              case 2: {
                const Status s = db->remove(key);
                EXPECT_EQ(s.isOk(), exists);
                if (s.isOk())
                    staged.erase(key);
                break;
              }
              default: {
                ByteBuffer out;
                const Status s = db->get(key, &out);
                EXPECT_EQ(s.isOk(), exists);
                if (exists) {
                    EXPECT_EQ(out, staged[key]);
                }
                break;
              }
            }
            if (!explicit_txn) {
                // Autocommit: each successful statement is durable.
                oracle = staged;
            }
        }
        if (explicit_txn) {
            if (rng.nextBool(0.15)) {
                NVWAL_CHECK_OK(db->rollback());
            } else {
                NVWAL_CHECK_OK(db->commit());
                oracle = staged;
            }
        }

        if (rng.nextBool(0.05))
            NVWAL_CHECK_OK(db->checkpoint());
        if (rng.nextBool(0.04)) {
            db.reset();
            NVWAL_CHECK_OK(Database::open(env, dbConfigFor(param), &db));
        }
        if (txn % 30 == 29)
            NVWAL_CHECK_OK(db->verifyIntegrity());
    }

    NVWAL_CHECK_OK(db->verifyIntegrity());
    std::map<RowId, ByteBuffer> content;
    NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                            [&](RowId k, ConstByteSpan v) {
                                content[k] = ByteBuffer(v.begin(), v.end());
                                return true;
                            }));
    EXPECT_EQ(content, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, RandomWorkload,
    ::testing::Values(
        PropertyParam{WalMode::FileStock, SyncMode::Lazy, true, true, 1,
                      "Stock_s1"},
        PropertyParam{WalMode::FileOptimized, SyncMode::Lazy, true, true,
                      2, "Opt_s2"},
        PropertyParam{WalMode::Nvwal, SyncMode::Lazy, true, true, 3,
                      "UHLSDiff_s3"},
        PropertyParam{WalMode::Nvwal, SyncMode::Lazy, true, true, 4,
                      "UHLSDiff_s4"},
        PropertyParam{WalMode::Nvwal, SyncMode::Lazy, false, false, 5,
                      "LS_s5"},
        PropertyParam{WalMode::Nvwal, SyncMode::ChecksumAsync, true, true,
                      6, "UHCSDiff_s6"},
        PropertyParam{WalMode::Nvwal, SyncMode::Eager, true, true, 7,
                      "UHEDiff_s7"},
        PropertyParam{WalMode::Nvwal, SyncMode::Lazy, true, false, 8,
                      "LSDiff_s8"}),
    [](const auto &info) { return std::string(info.param.label); });

/**
 * Random workload with power failures injected at random points:
 * after each crash the recovered content must be the oracle state
 * with at most the in-flight transaction missing (strict schemes,
 * pessimistic and adversarial policies).
 */
class CrashingWorkload : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CrashingWorkload, RecoversToCommittedStateEveryTime)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 2048;
    env_config.seed = GetParam();
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 40;

    Rng rng(GetParam() * 31 + 7);
    std::map<RowId, ByteBuffer> oracle;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    for (int round = 0; round < 12; ++round) {
        const FailurePolicy policy = rng.nextBool(0.5)
                                         ? FailurePolicy::Pessimistic
                                         : FailurePolicy::Adversarial;
        env.nvramDevice.setScheduledCrashPolicy(policy, 0.5);
        env.nvramDevice.scheduleCrashAtOp(20 + rng.nextBelow(600));

        // `staged` always holds the content the in-flight (or just
        // committed) transaction would produce; when the crash fires
        // mid-commit the durable state may legitimately be either
        // `oracle` (aborted) or `staged` (commit landed).
        std::map<RowId, ByteBuffer> staged = oracle;
        try {
            for (int txn = 0; txn < 30; ++txn) {
                staged = oracle;
                NVWAL_CHECK_OK(db->begin());
                const int ops = 1 + static_cast<int>(rng.nextBelow(4));
                for (int i = 0; i < ops; ++i) {
                    const RowId key =
                        static_cast<RowId>(rng.nextBelow(150));
                    const ByteBuffer value = testutil::makeValue(
                        1 + rng.nextBelow(120), rng.next());
                    if (staged.count(key)) {
                        if (rng.nextBool(0.5)) {
                            NVWAL_CHECK_OK(
                                db->update(key, testutil::spanOf(value)));
                            staged[key] = value;
                        } else {
                            NVWAL_CHECK_OK(db->remove(key));
                            staged.erase(key);
                        }
                    } else {
                        NVWAL_CHECK_OK(
                            db->insert(key, testutil::spanOf(value)));
                        staged[key] = value;
                    }
                }
                NVWAL_CHECK_OK(db->commit());
                oracle = staged;
            }
            env.nvramDevice.scheduleCrashAtOp(0);
        } catch (const PowerFailure &) {
            env.fs.crash();
        }

        db.reset();
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        NVWAL_CHECK_OK(db->verifyIntegrity());

        std::map<RowId, ByteBuffer> content;
        NVWAL_CHECK_OK(db->scan(INT64_MIN, INT64_MAX,
                                [&](RowId k, ConstByteSpan v) {
                                    content[k] =
                                        ByteBuffer(v.begin(), v.end());
                                    return true;
                                }));
        // The crash may have hit mid-commit: the recovered state is
        // the last committed oracle state, or -- when the crash
        // fired after durability but before commit() returned --
        // the staged transaction's state. Treat the latter as
        // committed and carry it forward.
        const bool as_oracle = content == oracle;
        const bool as_staged = content == staged;
        EXPECT_TRUE(as_oracle || as_staged) << "round " << round;
        if (as_staged)
            oracle = staged;
        EXPECT_EQ(env.heap.countBlocks(BlockState::Pending), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashingWorkload,
                         ::testing::Values(101, 202, 303, 404, 505));

/**
 * Page-size sweep: the engine works at several geometries. The
 * reserved tail follows the mode (24 bytes for NVWAL, none for the
 * stock WAL), so each geometry picks the mode that gives it.
 */
class GeometrySweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>>
{
};

TEST_P(GeometrySweep, BasicWorkloadAtGeometry)
{
    const auto [page_size, reserved] = GetParam();
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    env_config.nvramBytes = 16 << 20;
    env_config.flashBlocks = 8192;
    Env env(env_config);
    DbConfig config;
    config.walMode = reserved == 0 ? WalMode::FileStock : WalMode::Nvwal;
    config.pageSize = page_size;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ASSERT_EQ(db->pager().reservedBytes(), reserved);

    for (RowId k = 1; k <= 500; ++k) {
        NVWAL_CHECK_OK(
            db->insert(k, testutil::spanOf(testutil::makeValue(60, k))));
    }
    for (RowId k = 1; k <= 500; k += 5)
        NVWAL_CHECK_OK(db->remove(k));
    NVWAL_CHECK_OK(db->verifyIntegrity());

    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 400u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(std::make_pair(1024u, 24u),
                      std::make_pair(2048u, 0u),
                      std::make_pair(4096u, 24u),
                      std::make_pair(8192u, 24u),
                      std::make_pair(16384u, 24u)));

} // namespace
} // namespace nvwal
