/**
 * @file
 * Sharded engine tests: config validation, routing determinism and
 * rebalance-free reopen, single- and cross-shard atomic transactions,
 * in-doubt recovery resolution, and the exhaustive cross-shard crash
 * sweep against the shadow-model oracle (DESIGN.md §10), and per-log
 * checksum-chain seeding for logs that share one NVRAM heap.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "core/nvwal_log.hpp"
#include "faultsim/shard_sweep.hpp"
#include "shard/sharded_connection.hpp"
#include "shard/sharded_database.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

using Op = ShardedConnection::Op;

EnvConfig
testEnv()
{
    EnvConfig c;
    c.cost = CostModel::nexus5();
    c.nvramBytes = 32 << 20;
    c.flashBlocks = 16384;
    return c;
}

ShardConfig
testShards(std::uint32_t count)
{
    ShardConfig c;
    c.baseName = "sharded";
    c.shardCount = count;
    c.dbTemplate.checkpointThreshold = 64;
    return c;
}

/** Merged content of every shard's default table. */
std::map<RowId, ByteBuffer>
dumpAll(ShardedDatabase &db)
{
    std::map<RowId, ByteBuffer> content;
    for (std::uint32_t k = 0; k < db.shardCount(); ++k) {
        NVWAL_CHECK_OK(db.shard(k).scan(
            INT64_MIN, INT64_MAX, [&](RowId key, ConstByteSpan v) {
                content[key] = ByteBuffer(v.begin(), v.end());
                return true;
            }));
    }
    return content;
}

// ---- configuration validation (DbConfig + ShardConfig) -------------

TEST(ShardConfigValidation, RejectsBadShardCounts)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    ShardConfig c = testShards(0);
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);
    c = testShards(ShardedDatabase::kMaxShards + 1);
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);
}

TEST(ShardConfigValidation, RejectsOverriddenDerivedFields)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    // A caller-set member name would collide across shards (all
    // members would share one .db path); it must be left derived.
    ShardConfig c = testShards(2);
    c.dbTemplate.name = "clash.db";
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = testShards(2);
    c.dbTemplate.nvwal.heapNamespace = "clash";
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = testShards(2);
    c.baseName = "";
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    // Non-NVWAL members cannot persist PREPARE/DECISION records.
    c = testShards(2);
    c.dbTemplate.walMode = WalMode::FileStock;
    EXPECT_EQ(ShardedDatabase::open(env, c, &db).code(),
              StatusCode::InvalidArgument);
}

TEST(ShardConfigValidation, DbConfigRejectedDescriptively)
{
    Env env(testEnv());
    std::unique_ptr<Database> db;

    DbConfig c;
    c.name = "";
    Status s = Database::open(env, c, &db);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.toString().find("name"), std::string::npos);

    c = DbConfig();
    c.pageSize = 0;
    EXPECT_EQ(Database::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = DbConfig();
    c.reservedBytes = 4096;  // == pageSize
    EXPECT_EQ(Database::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = DbConfig();
    c.nvwal.heapNamespace = "";
    EXPECT_EQ(Database::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = DbConfig();
    c.nvwal.heapNamespace = std::string(NvHeap::kNamespaceNameLen + 1,
                                        'x');
    EXPECT_EQ(Database::open(env, c, &db).code(),
              StatusCode::InvalidArgument);

    c = DbConfig();
    c.incrementalCheckpoint = true;
    c.checkpointStepPages = 0;
    EXPECT_EQ(Database::open(env, c, &db).code(),
              StatusCode::InvalidArgument);
}

// ---- routing --------------------------------------------------------

TEST(ShardRouting, DeterministicAndCoversAllShards)
{
    for (const RoutingKind kind :
         {RoutingKind::Hash, RoutingKind::Range}) {
        std::set<std::uint32_t> hit;
        for (RowId key = -500; key <= 500; ++key) {
            const std::uint32_t a = routeKey(kind, key, 4);
            const std::uint32_t b = routeKey(kind, key, 4);
            EXPECT_EQ(a, b);
            EXPECT_LT(a, 4u);
            hit.insert(a);
        }
        // Both kinds must spread a mixed key population; Range needs
        // the domain extremes to reach the outer shards.
        EXPECT_EQ(routeKey(kind, INT64_MIN, 4),
                  routeKey(kind, INT64_MIN, 4));
        hit.insert(routeKey(kind, INT64_MIN, 4));
        hit.insert(routeKey(kind, INT64_MAX, 4));
        EXPECT_EQ(hit.size(), 4u);
    }
    // Single shard: everything routes to 0.
    EXPECT_EQ(routeKey(RoutingKind::Hash, 12345, 1), 0u);
    EXPECT_EQ(routeKey(RoutingKind::Range, -12345, 1), 0u);
}

TEST(ShardRouting, RangePreservesKeyOrder)
{
    std::uint32_t prev = 0;
    for (RowId key = INT64_MIN / 2; key < INT64_MAX / 2;
         key += INT64_MAX / 64) {
        const std::uint32_t shard = routeKey(RoutingKind::Range, key, 8);
        EXPECT_GE(shard, prev);
        prev = shard;
    }
}

TEST(ShardRouting, SameKeySameShardAcrossReopenAndCrash)
{
    Env env(testEnv());
    const ShardConfig config = testShards(4);
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, config, &db));

    std::map<RowId, std::uint32_t> placed;
    {
        std::unique_ptr<ShardedConnection> conn;
        NVWAL_CHECK_OK(db->connect(&conn));
        for (RowId key = 1; key <= 200; ++key) {
            NVWAL_CHECK_OK(
                conn->insert(key, testutil::makeValue(40, key)));
            placed[key] = db->shardOf(key);
        }
    }

    // Plain reopen: same routing, every key readable through the
    // router and physically on the shard it routes to.
    db.reset();
    NVWAL_CHECK_OK(ShardedDatabase::open(env, config, &db));
    for (const auto &[key, shard] : placed) {
        EXPECT_EQ(db->shardOf(key), shard);
        ByteBuffer direct;
        NVWAL_CHECK_OK(db->shard(shard).get(key, &direct));
        EXPECT_EQ(direct, testutil::makeValue(40, key));
    }

    // Crash recovery path: routing still unchanged.
    NVWAL_CHECK_OK(
        ShardedDatabase::recoverAfterCrash(env, config, &db));
    std::unique_ptr<ShardedConnection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    for (const auto &[key, shard] : placed) {
        EXPECT_EQ(db->shardOf(key), shard);
        ByteBuffer value;
        NVWAL_CHECK_OK(conn->get(key, &value));
        EXPECT_EQ(value, testutil::makeValue(40, key));
    }
}

// ---- transactions ---------------------------------------------------

TEST(ShardTxn, SingleShardBatchCommitsLocally)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, testShards(4), &db));
    std::unique_ptr<ShardedConnection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    // Build a batch whose keys all route to one shard.
    const std::uint32_t target = db->shardOf(1);
    std::vector<Op> ops;
    for (RowId key = 1; ops.size() < 5; ++key) {
        if (db->shardOf(key) == target)
            ops.push_back(Op::insert(key, std::string("one-shard")));
    }
    NVWAL_CHECK_OK(conn->runAtomic(ops));
    EXPECT_EQ(env.stats.get(stats::kShardTxnsSingle), 1u);
    EXPECT_EQ(env.stats.get(stats::kShardTxnsCross), 0u);
    EXPECT_EQ(env.stats.get(stats::kWalPrepareRecords), 0u);

    std::uint64_t rows = 0;
    NVWAL_CHECK_OK(conn->count(&rows));
    EXPECT_EQ(rows, ops.size());
}

TEST(ShardTxn, CrossShardBatchRunsTwoPhase)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, testShards(4), &db));
    std::unique_ptr<ShardedConnection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    // 40 sequential keys hit all four hash shards with near
    // certainty; count the distinct participants for the record
    // assertions below.
    std::vector<Op> ops;
    std::set<std::uint32_t> participants;
    for (RowId key = 1; key <= 40; ++key) {
        ops.push_back(Op::insert(key, testutil::makeValue(24, key)));
        participants.insert(db->shardOf(key));
    }
    ASSERT_GT(participants.size(), 1u);
    NVWAL_CHECK_OK(conn->runAtomic(ops));

    EXPECT_EQ(env.stats.get(stats::kShardTxnsCross), 1u);
    EXPECT_EQ(env.stats.get(stats::kWalPrepareRecords),
              participants.size());
    EXPECT_EQ(env.stats.get(stats::kWalDecisionRecords),
              participants.size());

    // All-or-nothing content, readable through the router.
    for (RowId key = 1; key <= 40; ++key) {
        ByteBuffer value;
        NVWAL_CHECK_OK(conn->get(key, &value));
        EXPECT_EQ(value, testutil::makeValue(24, key));
    }

    // Mixed update+remove batch across shards.
    std::vector<Op> second;
    for (RowId key = 1; key <= 40; ++key) {
        if (key % 2 == 0)
            second.push_back(Op::remove(key));
        else
            second.push_back(Op::update(key, std::string("v2")));
    }
    NVWAL_CHECK_OK(conn->runAtomic(second));
    std::uint64_t rows = 0;
    NVWAL_CHECK_OK(conn->count(&rows));
    EXPECT_EQ(rows, 20u);
}

TEST(ShardTxn, MergedScanIsGloballyOrdered)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, testShards(4), &db));
    std::unique_ptr<ShardedConnection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    for (RowId key = 100; key >= 1; --key)
        NVWAL_CHECK_OK(conn->insert(key, testutil::makeValue(16, key)));

    RowId prev = 0;
    std::uint64_t seen = 0;
    NVWAL_CHECK_OK(
        conn->scan(INT64_MIN, INT64_MAX, [&](RowId key, ConstByteSpan) {
            EXPECT_GT(key, prev);
            prev = key;
            ++seen;
            return true;
        }));
    EXPECT_EQ(seen, 100u);
}

TEST(ShardTxn, FailedBatchLeavesNoTrace)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, testShards(4), &db));
    std::unique_ptr<ShardedConnection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    std::vector<Op> seedRows;
    for (RowId key = 1; key <= 20; ++key)
        seedRows.push_back(Op::insert(key, std::string("seed")));
    NVWAL_CHECK_OK(conn->runAtomic(seedRows));
    const auto before = dumpAll(*db);

    // Key 7 already exists: the duplicate insert fails mid-batch on
    // one participant and the whole cross-shard batch must abort.
    std::vector<Op> bad;
    for (RowId key = 21; key <= 40; ++key)
        bad.push_back(Op::insert(key, std::string("doomed")));
    bad.push_back(Op::insert(7, std::string("dup")));
    EXPECT_FALSE(conn->runAtomic(bad).isOk());
    EXPECT_GE(env.stats.get(stats::kShardCrossAborts), 1u);

    EXPECT_EQ(dumpAll(*db), before);
    // The engine stays fully usable.
    NVWAL_CHECK_OK(conn->insert(1000, std::string("alive")));
}

TEST(ShardTxn, GtidsMonotonicAcrossReopen)
{
    Env env(testEnv());
    const ShardConfig config = testShards(2);
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, config, &db));
    std::uint64_t last = 0;
    {
        std::unique_ptr<ShardedConnection> conn;
        NVWAL_CHECK_OK(db->connect(&conn));
        std::vector<Op> ops;
        for (RowId key = 1; key <= 16; ++key)
            ops.push_back(Op::insert(key, std::string("x")));
        NVWAL_CHECK_OK(conn->runAtomic(ops));
        last = db->nextGtid();
    }
    // A reopen must never reissue a gtid any surviving PREPARE or
    // DECISION record carries: a recycled id could make recovery
    // resolve a new in-doubt transaction against a stale decision.
    db.reset();
    NVWAL_CHECK_OK(ShardedDatabase::open(env, config, &db));
    EXPECT_GT(db->nextGtid(), last - 1);
}

TEST(ShardTxn, VacuumRefusedOnMembers)
{
    Env env(testEnv());
    std::unique_ptr<ShardedDatabase> db;
    NVWAL_CHECK_OK(ShardedDatabase::open(env, testShards(2), &db));
    EXPECT_EQ(db->shard(0).vacuum().code(), StatusCode::Unsupported);
}

// ---- crash sweep ----------------------------------------------------

/**
 * The acceptance sweep: a scripted workload mixing single-shard and
 * cross-shard batches, crash-injected at EVERY NVRAM device
 * operation it issues -- which covers every point between the first
 * PREPARE's first byte and the last DECISION's commit mark -- and
 * recovered across the shard set against the shadow-model oracle.
 * All-or-nothing across shards is checked at every point.
 */
TEST(ShardCrash, ExhaustiveSweepIsAtomicAcrossShards)
{
    faultsim::ShardSweepConfig config;
    config.env = testEnv();
    config.shard = testShards(3);
    config.shard.dbTemplate.checkpointThreshold = 1000;

    for (RowId key = 1; key <= 30; ++key) {
        config.warmup.push_back(faultsim::ShardTxnStep::txn(
            "warm", {Op::insert(key, testutil::makeValue(32, key))}));
    }

    // Single-shard updates, then cross-shard batches (the 2PC
    // window), then a mixed batch with removes, then a checkpoint
    // and one more cross-shard batch so post-checkpoint records are
    // swept too.
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "single", {Op::update(1, std::string("s1"))}));
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::update(2, std::string("c1")),
         Op::update(3, std::string("c2")),
         Op::update(4, std::string("c3")),
         Op::update(5, std::string("c4"))}));
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::insert(100, std::string("n1")),
         Op::insert(101, std::string("n2")),
         Op::insert(102, std::string("n3")),
         Op::remove(6), Op::remove(7)}));
    config.workload.push_back(faultsim::ShardTxnStep::checkpointAll());
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::update(8, std::string("z1")),
         Op::update(9, std::string("z2")),
         Op::update(10, std::string("z3"))}));

    config.policies = {
        faultsim::PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5},
        faultsim::PolicyRun{FailurePolicy::Adversarial, {1, 2}, 0.5},
    };

    faultsim::ShardSweepReport report;
    faultsim::ShardCrashSweep sweep(config);
    NVWAL_CHECK_OK(sweep.run(&report));
    EXPECT_GT(report.totalOps, 0u);
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.crashes, 0u);
    // The sweep must actually have caught shards between PREPARE and
    // DECISION: recovery resolved at least one in-doubt transaction.
    EXPECT_GT(report.indoubtResolved, 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}

/** Same sweep shape under Eager sync (per-frame persist barriers). */
TEST(ShardCrash, EagerSweepStaysAtomic)
{
    faultsim::ShardSweepConfig config;
    config.env = testEnv();
    config.shard = testShards(2);
    config.shard.dbTemplate.nvwal.syncMode = SyncMode::Eager;
    config.shard.dbTemplate.checkpointThreshold = 1000;

    for (RowId key = 1; key <= 10; ++key) {
        config.warmup.push_back(faultsim::ShardTxnStep::txn(
            "warm", {Op::insert(key, testutil::makeValue(24, key))}));
    }
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::update(1, std::string("a")),
         Op::update(2, std::string("b")),
         Op::update(3, std::string("c"))}));
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "single", {Op::update(4, std::string("d"))}));

    config.policies = {
        faultsim::PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5}};

    faultsim::ShardSweepReport report;
    faultsim::ShardCrashSweep sweep(config);
    NVWAL_CHECK_OK(sweep.run(&report));
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_TRUE(report.ok()) << report.summary();
}

/**
 * Under ChecksumAsync a single-shard step bypasses 2PC and commits
 * probabilistically; the strict shard oracle cannot express that
 * loss, so the sweep rejects such steps up front.
 */
TEST(ShardCrash, ChecksumAsyncRejected)
{
    faultsim::ShardSweepConfig config;
    config.env = testEnv();
    config.shard = testShards(2);
    config.shard.dbTemplate.nvwal.syncMode = SyncMode::ChecksumAsync;
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross", {Op::insert(1, std::string("x"))}));
    faultsim::ShardSweepReport report;
    faultsim::ShardCrashSweep sweep(config);
    EXPECT_EQ(sweep.run(&report).code(), StatusCode::InvalidArgument);
}

/**
 * Cross-shard 2PC stays strictly atomic even under ChecksumAsync:
 * PREPARE/DECISION units harden eagerly in every sync mode, so the
 * usual shard oracle applies unchanged. Regression for the bug
 * where writePrepare left staged data frames unflushed in CS mode
 * (a torn prepared unit could be re-staged as garbage and applied
 * by a later COMMIT decision).
 */
TEST(ShardCrash, ChecksumAsyncCrossShardSweepIsStrict)
{
    faultsim::ShardSweepConfig config;
    config.env = testEnv();
    config.shard = testShards(2);
    config.shard.dbTemplate.nvwal.syncMode = SyncMode::ChecksumAsync;
    config.shard.dbTemplate.checkpointThreshold = 1000;

    for (RowId key = 1; key <= 10; ++key) {
        config.warmup.push_back(faultsim::ShardTxnStep::txn(
            "warm", {Op::insert(key, testutil::makeValue(24, key))}));
    }
    // Key routing (hash, 2 shards): 1,2,3 -> shard 0; 4,9 -> shard 1.
    // Every step must span both shards: a single-shard step would be
    // rejected up front (see ChecksumAsyncRejected above).
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::update(1, std::string("a")),
         Op::update(2, std::string("b")),
         Op::update(4, std::string("c"))}));
    config.workload.push_back(faultsim::ShardTxnStep::txn(
        "cross",
        {Op::insert(100, std::string("n1")),
         Op::insert(102, std::string("n2")),
         Op::remove(9)}));

    config.policies = {
        faultsim::PolicyRun{FailurePolicy::Pessimistic, {0}, 0.5},
        faultsim::PolicyRun{FailurePolicy::Adversarial, {3, 4}, 0.5},
    };

    faultsim::ShardSweepReport report;
    faultsim::ShardCrashSweep sweep(config);
    NVWAL_CHECK_OK(sweep.run(&report));
    EXPECT_EQ(report.pointsSwept, report.totalOps);
    EXPECT_GT(report.indoubtResolved, 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(NvwalSharedHeap, ReusedBlockNeverValidatesAnotherLogsFrames)
{
    constexpr std::uint32_t kPageSize = 4096;
    constexpr std::uint32_t kReserved = 24;
    // Regression: logs sharing one heap (shards, multi-writer slots)
    // all restarted their checksum chains at 0 and their checkpoint
    // ids collide. Log A commits, truncates (its id moves to 1) and
    // frees its node; log B (still at id 0) then links that very
    // block. A crash after the link lands but before B's first frame
    // does left A's stale, chain-valid, commit-marked frames as the
    // head of B's chain, and B's recovery committed them. Every log
    // now seeds its chain per heap namespace. Sweep every device op
    // of B's first commit; B must never index a frame it did not
    // commit.
    bool completed = false;
    std::uint64_t window_hits = 0;
    for (std::uint64_t at = 1; !completed; ++at) {
        EnvConfig env_config;
        env_config.cost = CostModel::tuna(500);
        Env env(env_config);
        DbFile a_file(env.fs, "a.db", kPageSize);
        DbFile b_file(env.fs, "b.db", kPageSize);
        NVWAL_CHECK_OK(a_file.open());
        NVWAL_CHECK_OK(b_file.open());
        NvwalConfig a_config;
        a_config.heapNamespace = "nvwal-a";
        NvwalConfig b_config;
        b_config.heapNamespace = "nvwal-b";
        std::uint32_t db_size = 0;

        NvwalLog a(env.heap, env.pmem, a_file, kPageSize, kReserved,
                   a_config, env.stats);
        NVWAL_CHECK_OK(a.recover(&db_size));
        auto b = std::make_unique<NvwalLog>(env.heap, env.pmem, b_file,
                                            kPageSize, kReserved,
                                            b_config, env.stats);
        NVWAL_CHECK_OK(b->recover(&db_size));

        ByteBuffer page = testutil::makeValue(kPageSize, 5);
        std::memset(page.data() + kPageSize - kReserved, 0, kReserved);
        DirtyRanges ranges;
        ranges.mark(0, 200);
        std::vector<FrameWrite> frames{
            FrameWrite{3, testutil::spanOf(page), &ranges}};
        NVWAL_CHECK_OK(a.writeFrames(frames, true, 3));
        NvOffset a_header = kNullNvOffset;
        NVWAL_CHECK_OK(env.heap.getRoot("nvwal-a", &a_header));
        const NvOffset a_node = env.nvramDevice.readU64(a_header + 24);
        NVWAL_CHECK_OK(a.checkpoint());
        ASSERT_EQ(a.checkpointId(), b->checkpointId() + 1);

        env.nvramDevice.setScheduledCrashPolicy(
            FailurePolicy::Pessimistic);
        env.nvramDevice.scheduleCrashAtOp(at);
        bool crashed = false;
        try {
            NVWAL_CHECK_OK(b->writeFrames(frames, true, 3));
            completed = true;
        } catch (const PowerFailure &) {
            crashed = true;
        }
        env.nvramDevice.scheduleCrashAtOp(0);
        NvOffset b_header = kNullNvOffset;
        NVWAL_CHECK_OK(env.heap.getRoot("nvwal-b", &b_header));
        const NvOffset b_node = env.nvramDevice.readU64(b_header + 24);
        if (completed) {
            // B really did reuse A's freed block.
            ASSERT_EQ(b_node, a_node);
            break;
        }
        ASSERT_TRUE(crashed);
        env.fs.crash();
        NVWAL_CHECK_OK(env.heap.attach());
        if (b_node == a_node &&
            env.heap.blockStateAt(a_node) == BlockState::InUse)
            ++window_hits;  // A's block is live at the head of B's chain

        b = std::make_unique<NvwalLog>(env.heap, env.pmem, b_file,
                                       kPageSize, kReserved, b_config,
                                       env.stats);
        NVWAL_CHECK_OK(b->recover(&db_size));
        EXPECT_EQ(b->commitSeq(), 0u) << "op " << at;
        EXPECT_EQ(b->indexedFrames(), 0u) << "op " << at;
        EXPECT_EQ(db_size, 0u) << "op " << at;
    }
    EXPECT_GT(window_hits, 0u);
}

} // namespace
} // namespace nvwal
