/**
 * @file
 * The direct Database transaction API and a Connection are one
 * transaction path: the direct API forwards to an internal root
 * connection. DatabaseApi runs every case on both handles and pins
 * the shared policy -- Busy on a nested begin, InvalidArgument without
 * one, Unsupported-and-still-open for Async on a file WAL, poisoning
 * after a failed append, a per-handle lastCommitEpoch(), and an OK
 * durable commit whose auto-checkpoint round failed.
 * WriteTxnReads checks, on both engines, that a write transaction
 * reads its own uncommitted writes.
 */

#include <gtest/gtest.h>

#include <set>

#include "db/connection.hpp"
#include "db/database.hpp"
#include "sim/stats.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

enum class Handle
{
    Direct,
    Connection,
};

DbConfig
nvwalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    return config;
}

ByteBuffer
rowValue(RowId key, std::size_t size = 64)
{
    return testutil::makeValue(size, static_cast<std::uint64_t>(key));
}

class DatabaseApi : public ::testing::TestWithParam<Handle>
{
  protected:
    void
    open(const DbConfig &config, const EnvConfig &env_config = EnvConfig())
    {
        _config = config;
        env = std::make_unique<Env>(env_config);
        reopen();
    }

    /** Close every handle and open the database again. */
    void
    reopen()
    {
        conn.reset();
        db.reset();
        NVWAL_CHECK_OK(Database::open(*env, _config, &db));
        if (GetParam() == Handle::Connection)
            NVWAL_CHECK_OK(db->connect(&conn));
    }

    bool direct() const { return GetParam() == Handle::Direct; }

    Status begin() { return direct() ? db->begin() : conn->begin(); }

    /** The direct API's commit(d), spelled as CommitOptions for a
     *  Connection. */
    Status
    commit(Durability d = Durability::Sync)
    {
        if (direct())
            return db->commit(d);
        return conn->commit(CommitOptions{
            .durability = d, .waitForHarden = d != Durability::Async});
    }

    Status rollback() { return direct() ? db->rollback() : conn->rollback(); }

    bool inWrite() const
    { return direct() ? db->inTransaction() : conn->inWrite(); }

    Status
    insert(RowId key, const ByteBuffer &value)
    {
        return direct() ? db->insert(key, value) : conn->insert(key, value);
    }

    Status
    update(RowId key, const ByteBuffer &value)
    {
        return direct() ? db->update(key, value) : conn->update(key, value);
    }

    Status
    get(RowId key, ByteBuffer *out)
    {
        return direct() ? db->get(key, out) : conn->get(key, out);
    }

    std::uint64_t
    lastCommitEpoch() const
    {
        return direct() ? db->lastCommitEpoch() : conn->lastCommitEpoch();
    }

    std::unique_ptr<Env> env;
    std::unique_ptr<Database> db;
    std::unique_ptr<Connection> conn;

    DbConfig _config;
};

TEST_P(DatabaseApi, NestedBeginIsBusy)
{
    open(nvwalConfig());
    NVWAL_CHECK_OK(begin());
    EXPECT_EQ(begin().code(), StatusCode::Busy);
    EXPECT_TRUE(inWrite());
    NVWAL_CHECK_OK(rollback());
    EXPECT_FALSE(inWrite());
}

TEST_P(DatabaseApi, CommitAndRollbackWithoutBeginAreInvalid)
{
    open(nvwalConfig());
    EXPECT_EQ(commit().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(rollback().code(), StatusCode::InvalidArgument);
}

TEST_P(DatabaseApi, AsyncOnAFileWalIsUnsupportedAndKeepsTheTxnOpen)
{
    DbConfig config;
    config.walMode = WalMode::FileOptimized;
    open(config);
    NVWAL_CHECK_OK(begin());
    NVWAL_CHECK_OK(insert(1, rowValue(1)));
    EXPECT_TRUE(commit(Durability::Async).isUnsupported());
    EXPECT_TRUE(inWrite());
    NVWAL_CHECK_OK(commit(Durability::Sync));
    ByteBuffer out;
    NVWAL_CHECK_OK(get(1, &out));
    EXPECT_EQ(out, rowValue(1));
}

TEST_P(DatabaseApi, AppendFailurePoisonsUntilReopen)
{
    EnvConfig env_config;
    env_config.nvramBytes = 256 << 10;
    DbConfig config = nvwalConfig();
    config.autoCheckpoint = false;
    open(config, env_config);

    // Fill the NVRAM log until an append fails.
    std::set<RowId> acked;
    Status failed = Status::ok();
    for (RowId k = 1; k <= 1000 && failed.isOk(); ++k) {
        NVWAL_CHECK_OK(begin());
        NVWAL_CHECK_OK(insert(k, rowValue(k, 900)));
        failed = commit();
        if (failed.isOk())
            acked.insert(k);
    }
    ASSERT_FALSE(failed.isOk()) << "the log never filled";
    ASSERT_FALSE(acked.empty());
    EXPECT_FALSE(inWrite());

    // The failed transaction was already published: every later
    // transaction fails with the append's status until reopen.
    for (int i = 0; i < 2; ++i) {
        const Status s = begin();
        EXPECT_EQ(s.code(), failed.code()) << s.toString();
        EXPECT_FALSE(inWrite());
    }

    reopen();
    for (RowId k : acked) {
        ByteBuffer out;
        NVWAL_CHECK_OK(get(k, &out));
        EXPECT_EQ(out, rowValue(k, 900)) << "key " << k;
    }
}

TEST_P(DatabaseApi, LastCommitEpochReportsOnlyThisHandle)
{
    open(nvwalConfig());
    NVWAL_CHECK_OK(begin());
    NVWAL_CHECK_OK(insert(1, rowValue(1)));
    NVWAL_CHECK_OK(commit(Durability::Async));
    const std::uint64_t mine = lastCommitEpoch();
    EXPECT_GT(mine, 0u);

    // An async commit through the other handle issues a newer epoch.
    const CommitOptions no_wait{.durability = Durability::Async,
                                .waitForHarden = false};
    std::unique_ptr<Connection> peer;
    if (direct()) {
        NVWAL_CHECK_OK(db->connect(&peer));
        NVWAL_CHECK_OK(peer->begin());
        NVWAL_CHECK_OK(peer->insert(2, rowValue(2)));
        NVWAL_CHECK_OK(peer->commit(no_wait));
        EXPECT_GT(peer->lastCommitEpoch(), mine);
    } else {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(2, rowValue(2)));
        NVWAL_CHECK_OK(db->commit(Durability::Async));
        EXPECT_GT(db->lastCommitEpoch(), mine);
    }
    EXPECT_EQ(lastCommitEpoch(), mine);
    NVWAL_CHECK_OK(db->flushAsyncCommits());
}

TEST_P(DatabaseApi, AutoCheckpointFailureKeepsDurableCommitOk)
{
    // Checkpointed rows, then logged updates whose write-back must
    // read their base pages from the .db file.
    DbConfig config = nvwalConfig();
    config.autoCheckpoint = false;
    open(config);
    for (RowId k = 1; k <= 400; ++k)
        NVWAL_CHECK_OK(db->insert(k, rowValue(k)));
    NVWAL_CHECK_OK(db->checkpoint());
    for (RowId k = 1; k <= 400; k += 20)
        NVWAL_CHECK_OK(db->update(k, rowValue(k + 1000)));

    // The next commit trips the auto-checkpoint, whose round fails.
    config.autoCheckpoint = true;
    config.checkpointThreshold = db->walPageWritesSinceCheckpoint() + 1;
    _config = config;
    reopen();
    const ByteBuffer v = rowValue(7777);
    NVWAL_CHECK_OK(begin());
    NVWAL_CHECK_OK(update(5, v));
    env->fs.injectReadFaults(1);
    // SQLite's policy: the commit is durable, so it reports OK.
    NVWAL_CHECK_OK(commit());
    EXPECT_EQ(env->stats.get(stats::kAutoCheckpointFailures), 1u);
    EXPECT_GT(db->walPageWritesSinceCheckpoint(), 0u);

    // The next commit past the threshold retries the round.
    const std::uint64_t rounds = env->stats.get(stats::kCheckpoints);
    NVWAL_CHECK_OK(begin());
    NVWAL_CHECK_OK(update(6, v));
    NVWAL_CHECK_OK(commit());
    EXPECT_EQ(env->stats.get(stats::kAutoCheckpointFailures), 1u);
    EXPECT_EQ(env->stats.get(stats::kCheckpoints), rounds + 1);
    EXPECT_EQ(db->walPageWritesSinceCheckpoint(), 0u);

    reopen();
    ByteBuffer out;
    for (const RowId k : {5, 6}) {
        NVWAL_CHECK_OK(get(k, &out));
        EXPECT_EQ(out, v) << "key " << k;
    }
    NVWAL_CHECK_OK(get(21, &out));
    EXPECT_EQ(out, rowValue(1021));
}

INSTANTIATE_TEST_SUITE_P(Handles, DatabaseApi,
                         ::testing::Values(Handle::Direct,
                                           Handle::Connection),
                         [](const ::testing::TestParamInfo<Handle> &info) {
                             return info.param == Handle::Direct
                                        ? "Direct"
                                        : "Connection";
                         });

// ---- reads inside a write transaction, on both engines ---------------

class WriteTxnReads : public ::testing::TestWithParam<bool>
{};

TEST_P(WriteTxnReads, SeeTheTransactionsOwnUncommittedWrites)
{
    Env env;
    DbConfig config = nvwalConfig();
    config.multiWriter = GetParam();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, rowValue(1)));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->update(1, rowValue(101)));
    NVWAL_CHECK_OK(conn->insert(2, rowValue(2)));
    ByteBuffer out;
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(101));
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 2u);
    std::vector<RowId> keys;
    NVWAL_CHECK_OK(conn->scan(INT64_MIN, INT64_MAX,
                              [&](RowId key, ConstByteSpan) {
                                  keys.push_back(key);
                                  return true;
                              }));
    EXPECT_EQ(keys, (std::vector<RowId>{1, 2}));

    // Rolled back, the writes are gone for the connection too.
    NVWAL_CHECK_OK(conn->rollback());
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(1));
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, WriteTxnReads, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "MultiWriter"
                                               : "SingleWriter";
                         });

} // namespace
} // namespace nvwal
