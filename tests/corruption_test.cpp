/**
 * @file
 * Corruption-injection (fuzz-style) tests: random byte flips in the
 * durable NVWAL media and in the WAL file must never crash recovery
 * or let corrupt data through silently -- recovery either lands on a
 * valid committed prefix (checksum chain cut) or reports Corruption.
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "db/inspect.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

/** All states of the oracle after each commit, oldest first. */
using PrefixList = std::vector<std::map<RowId, ByteBuffer>>;

std::map<RowId, ByteBuffer>
dump(Database &db)
{
    std::map<RowId, ByteBuffer> content;
    NVWAL_CHECK_OK(db.scan(INT64_MIN, INT64_MAX,
                           [&](RowId k, ConstByteSpan v) {
                               content[k] = ByteBuffer(v.begin(), v.end());
                               return true;
                           }));
    return content;
}

class NvwalCorruption : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NvwalCorruption, RandomFlipsInLogPayloadYieldCommittedPrefix)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 2048;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;

    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    PrefixList prefixes;
    prefixes.push_back({});
    std::map<RowId, ByteBuffer> oracle;
    for (int txn = 0; txn < 12; ++txn) {
        NVWAL_CHECK_OK(db->begin());
        for (int i = 0; i < 3; ++i) {
            const RowId key = txn * 10 + i;
            const ByteBuffer v = testutil::makeValue(
                90, static_cast<std::uint64_t>(key));
            NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(v)));
            oracle[key] = v;
        }
        NVWAL_CHECK_OK(db->commit());
        prefixes.push_back(oracle);
    }
    db.reset();
    env.powerFail(FailurePolicy::Pessimistic);  // flush everything

    // Find the log's node span via the media inspector, then flip
    // random bytes inside frame payloads (not heap metadata, whose
    // integrity the heap itself owns).
    NvwalMediaReport media;
    NVWAL_CHECK_OK(collectNvwalMediaReport(env, 4096, &media));
    ASSERT_GT(media.nodes.size(), 0u);
    Rng rng(GetParam());
    const int flips = 1 + static_cast<int>(rng.nextBelow(8));
    for (int i = 0; i < flips; ++i) {
        const NodeInfo &node =
            media.nodes[rng.nextBelow(media.nodes.size())];
        const NvOffset addr =
            node.offset + 8 + rng.nextBelow(node.capacity - 8);
        std::uint8_t byte;
        env.nvramDevice.read(addr, ByteSpan(&byte, 1));
        byte ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        env.nvramDevice.write(addr, ConstByteSpan(&byte, 1));
        env.nvramDevice.flushLine(addr);
    }
    env.nvramDevice.drainPersistQueue();

    // Recovery must not crash; if it succeeds, the recovered content
    // must be one of the committed prefixes (the chain detects the
    // corruption and cuts there).
    std::unique_ptr<Database> recovered;
    const Status open = Database::open(env, config, &recovered);
    if (!open.isOk()) {
        EXPECT_TRUE(open.isCorruption()) << open.toString();
        return;
    }
    NVWAL_CHECK_OK(recovered->verifyIntegrity());
    const auto content = dump(*recovered);
    bool is_prefix = false;
    for (const auto &prefix : prefixes)
        is_prefix = is_prefix || content == prefix;
    EXPECT_TRUE(is_prefix) << "corruption leaked into recovered state";
}

INSTANTIATE_TEST_SUITE_P(Seeds, NvwalCorruption,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

class FileWalCorruption : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FileWalCorruption, RandomFlipsInWalFileYieldCommittedPrefix)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 4096;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::FileOptimized;
    config.autoCheckpoint = false;

    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    PrefixList prefixes;
    prefixes.push_back({});
    std::map<RowId, ByteBuffer> oracle;
    for (int txn = 0; txn < 10; ++txn) {
        const RowId key = txn;
        const ByteBuffer v =
            testutil::makeValue(90, static_cast<std::uint64_t>(key));
        NVWAL_CHECK_OK(db->insert(key, testutil::spanOf(v)));
        oracle[key] = v;
        prefixes.push_back(oracle);
    }
    db.reset();

    // Flip random bytes in the WAL file past its header.
    Rng rng(GetParam());
    const std::uint64_t size = env.fs.fileSize("app.db-wal");
    ASSERT_GT(size, 4096u);
    const int flips = 1 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < flips; ++i) {
        const std::uint64_t off = 4096 + rng.nextBelow(size - 4096);
        std::uint8_t byte;
        NVWAL_CHECK_OK(env.fs.pread("app.db-wal", off, ByteSpan(&byte, 1)));
        byte ^= static_cast<std::uint8_t>(1 + rng.nextBelow(255));
        NVWAL_CHECK_OK(
            env.fs.pwrite("app.db-wal", off, ConstByteSpan(&byte, 1)));
    }
    NVWAL_CHECK_OK(env.fs.fsync("app.db-wal"));

    std::unique_ptr<Database> recovered;
    const Status open = Database::open(env, config, &recovered);
    if (!open.isOk()) {
        EXPECT_TRUE(open.isCorruption()) << open.toString();
        return;
    }
    NVWAL_CHECK_OK(recovered->verifyIntegrity());
    const auto content = dump(*recovered);
    bool is_prefix = false;
    for (const auto &prefix : prefixes)
        is_prefix = is_prefix || content == prefix;
    EXPECT_TRUE(is_prefix) << "corruption leaked into recovered state";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileWalCorruption,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27,
                                           28));

TEST(HeaderCorruption, NvwalHeaderMagicDamageIsReported)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 2048;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "x"));
    db.reset();
    env.powerFail(FailurePolicy::Pessimistic);

    NvOffset header_off;
    NVWAL_CHECK_OK(env.heap.getRoot("nvwal", &header_off));
    std::uint8_t garbage[8] = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0};
    env.nvramDevice.write(header_off, ConstByteSpan(garbage, 8));
    env.nvramDevice.flushLine(header_off);
    env.nvramDevice.drainPersistQueue();

    std::unique_ptr<Database> recovered;
    const Status open = Database::open(env, config, &recovered);
    EXPECT_TRUE(open.isCorruption()) << open.toString();
}

/**
 * Stamp the magic of log format @p version ('2', '3') on a committed
 * log; both readers must refuse it with Corruption.
 */
void
expectOldLogVersionRefused(char version)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 2048;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "x"));
    db.reset();
    env.powerFail(FailurePolicy::Pessimistic);

    NvOffset header_off;
    NVWAL_CHECK_OK(env.heap.getRoot("nvwal", &header_off));
    std::uint8_t old_magic[8] = {'N', 'V', 'W', 'A', 'L', '0', '0', '0'};
    old_magic[7] = static_cast<std::uint8_t>(version);
    env.nvramDevice.write(header_off, ConstByteSpan(old_magic, 8));
    env.nvramDevice.flushLine(header_off);
    env.nvramDevice.drainPersistQueue();

    NvwalMediaReport media;
    const Status inspected =
        collectNvwalMediaReport(env, config.pageSize, &media);
    EXPECT_TRUE(inspected.isCorruption()) << inspected.toString();
    std::unique_ptr<Database> recovered;
    const Status open = Database::open(env, config, &recovered);
    EXPECT_TRUE(open.isCorruption()) << open.toString();
}

TEST(HeaderCorruption, Version2LogIsRefusedNotMisread)
{
    // Version 2 logs could hold two-phase-commit control frames
    // (page 0xFFFFFFFF); the current reader has no such frame and
    // would replay one as data, so a version-2 header must be
    // refused with Corruption by both readers.
    expectOldLogVersionRefused('2');
}

TEST(HeaderCorruption, Version3LogIsRefusedNotMisread)
{
    // Version 3 headers end before the segment and retired-prefix
    // records, and their commit words carry no checksum bits, so the
    // current reader would take stray bytes for the records and no
    // frame for a commit mark (docs/FORMAT.md §2).
    expectOldLogVersionRefused('3');
}

TEST(HeaderCorruption, DbHeaderMagicDamageIsReported)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5();
    env_config.nvramBytes = 8 << 20;
    env_config.flashBlocks = 2048;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::FileOptimized;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->insert(1, "x"));
    NVWAL_CHECK_OK(db->checkpoint());
    db.reset();

    std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0xff};
    NVWAL_CHECK_OK(
        env.fs.pwrite("app.db", 0, ConstByteSpan(garbage, 4)));
    NVWAL_CHECK_OK(env.fs.fsync("app.db"));

    std::unique_ptr<Database> recovered;
    EXPECT_FALSE(Database::open(env, config, &recovered).isOk());
}

} // namespace
} // namespace nvwal
