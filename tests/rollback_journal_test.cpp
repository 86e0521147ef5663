/**
 * @file
 * Tests for the rollback-journal (DELETE mode) baseline: commit
 * protocol, recovery from every crash window, and the fsync/I-O
 * profile the paper's introduction contrasts WAL against.
 */

#include <gtest/gtest.h>

#include <map>

#include "db/database.hpp"
#include "wal/rollback_journal.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

EnvConfig
nexusEnv()
{
    EnvConfig c;
    c.cost = CostModel::nexus5();
    c.nvramBytes = 8 << 20;
    c.flashBlocks = 4096;
    return c;
}

DbConfig
journalConfig()
{
    DbConfig config;
    config.walMode = WalMode::RollbackJournal;
    return config;
}

TEST(RollbackJournal, BasicCommitAndReopen)
{
    Env env(nexusEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, journalConfig(), &db));
    for (RowId k = 1; k <= 100; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());

    db.reset();
    std::unique_ptr<Database> reopened;
    NVWAL_CHECK_OK(Database::open(env, journalConfig(), &reopened));
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(reopened->count(&n));
    EXPECT_EQ(n, 100u);
    ByteBuffer out;
    NVWAL_CHECK_OK(reopened->get(42, &out));
    EXPECT_EQ(out, testutil::makeValue(100, 42));
}

TEST(RollbackJournal, CommittedDataIsDurableWithoutCheckpoints)
{
    // Journal mode writes pages in place: a crash right after commit
    // loses nothing even though no checkpoint ever runs.
    Env env(nexusEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, journalConfig(), &db));
    NVWAL_CHECK_OK(db->insert(1, "persisted"));
    EXPECT_EQ(db->wal().framesSinceCheckpoint(), 0u);
    env.fs.crash();

    db.reset();
    std::unique_ptr<Database> recovered;
    NVWAL_CHECK_OK(Database::open(env, journalConfig(), &recovered));
    ByteBuffer out;
    NVWAL_CHECK_OK(recovered->get(1, &out));
    EXPECT_EQ(out, toBytes("persisted"));
}

TEST(RollbackJournal, RollsBackFromSurvivingJournal)
{
    // Simulate a crash between phase 2 (db overwritten) and phase 3
    // (journal deleted): drive the journal object directly.
    Env env(nexusEnv());
    DbFile db_file(env.fs, "t.db", 4096);
    NVWAL_CHECK_OK(db_file.open());
    Pager pager(db_file, 4096, 0);
    NVWAL_CHECK_OK(pager.open());
    NVWAL_CHECK_OK(db_file.sync());

    // Old content of page 2.
    ByteBuffer old_page(4096);
    NVWAL_CHECK_OK(db_file.readPage(2, ByteSpan(old_page.data(), 4096)));

    // Phase 1 by hand: journal the pre-image, fsync.
    std::uint8_t header[RollbackJournal::kHeaderSize];
    std::memset(header, 0, sizeof(header));
    storeU64(header, RollbackJournal::kMagic);
    storeU32(header + 8, db_file.pageCount());
    storeU32(header + 12, 1);
    NVWAL_CHECK_OK(env.fs.pwrite("t.db-journal", 0,
                                 ConstByteSpan(header, sizeof(header))));
    ByteBuffer record(4 + 4096);
    storeU32(record.data(), 2);
    std::memcpy(record.data() + 4, old_page.data(), 4096);
    NVWAL_CHECK_OK(
        env.fs.pwrite("t.db-journal", RollbackJournal::kHeaderSize,
                      ConstByteSpan(record.data(), record.size())));
    NVWAL_CHECK_OK(env.fs.fsync("t.db-journal"));

    // Phase 2: clobber page 2 in the database file.
    ByteBuffer clobber(4096, 0xEE);
    NVWAL_CHECK_OK(
        db_file.writePage(2, ConstByteSpan(clobber.data(), 4096)));
    NVWAL_CHECK_OK(db_file.sync());

    // Crash before phase 3; recovery must restore the pre-image.
    env.fs.crash();
    RollbackJournal journal(env.fs, "t.db-journal", db_file, 4096,
                            env.stats);
    std::uint32_t db_size = 9;
    NVWAL_CHECK_OK(journal.recover(&db_size));
    EXPECT_EQ(db_size, 0u);
    EXPECT_FALSE(env.fs.exists("t.db-journal"));
    ByteBuffer now(4096);
    NVWAL_CHECK_OK(db_file.readPage(2, ByteSpan(now.data(), 4096)));
    EXPECT_EQ(now, old_page);
}

TEST(RollbackJournal, TornJournalIsDiscarded)
{
    // A journal whose fsync never completed (shorter than its record
    // count claims) means the database was never modified: recovery
    // must discard it and leave the database alone.
    Env env(nexusEnv());
    DbFile db_file(env.fs, "t.db", 4096);
    NVWAL_CHECK_OK(db_file.open());
    Pager pager(db_file, 4096, 0);
    NVWAL_CHECK_OK(pager.open());
    NVWAL_CHECK_OK(db_file.sync());
    ByteBuffer before(4096);
    NVWAL_CHECK_OK(db_file.readPage(2, ByteSpan(before.data(), 4096)));

    std::uint8_t header[RollbackJournal::kHeaderSize];
    std::memset(header, 0, sizeof(header));
    storeU64(header, RollbackJournal::kMagic);
    storeU32(header + 8, db_file.pageCount());
    storeU32(header + 12, 5);  // claims 5 records, has none
    NVWAL_CHECK_OK(env.fs.pwrite("t.db-journal", 0,
                                 ConstByteSpan(header, sizeof(header))));
    NVWAL_CHECK_OK(env.fs.fsync("t.db-journal"));

    RollbackJournal journal(env.fs, "t.db-journal", db_file, 4096,
                            env.stats);
    std::uint32_t db_size = 0;
    NVWAL_CHECK_OK(journal.recover(&db_size));
    EXPECT_FALSE(env.fs.exists("t.db-journal"));
    ByteBuffer after(4096);
    NVWAL_CHECK_OK(db_file.readPage(2, ByteSpan(after.data(), 4096)));
    EXPECT_EQ(after, before);
}

TEST(RollbackJournal, AbortedGrowthIsTruncatedAway)
{
    // A transaction that grew the file and then rolled back must not
    // leave the file longer.
    Env env(nexusEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, journalConfig(), &db));
    for (RowId k = 1; k <= 30; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    const std::uint64_t size_before = env.fs.fileSize("app.db");

    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 100; k <= 300; ++k) {
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    }
    NVWAL_CHECK_OK(db->rollback());
    EXPECT_EQ(env.fs.fileSize("app.db"), size_before);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(RollbackJournal, NeedsMoreFsyncsAndIoThanWal)
{
    // The paper's section 1 claim: WAL improves on journal modes
    // because it needs fewer fsync() calls and touches one file.
    auto profile = [](WalMode mode) {
        Env env(nexusEnv());
        DbConfig config;
        config.walMode = mode;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        const StatsSnapshot before = env.stats.snapshot();
        const SimTime start = env.clock.now();
        for (RowId k = 1; k <= 50; ++k) {
            NVWAL_CHECK_OK(db->insert(
                k, testutil::spanOf(testutil::makeValue(100, k))));
        }
        const StatsSnapshot delta =
            MetricsRegistry::delta(before, env.stats.snapshot());
        struct Result
        {
            std::uint64_t fsyncs;
            std::uint64_t blocks;
            SimTime elapsed;
        };
        return Result{delta.count(stats::kFsyncs.c_str())
                          ? delta.at(stats::kFsyncs.c_str())
                          : 0,
                      delta.count(stats::kBlocksWritten.c_str())
                          ? delta.at(stats::kBlocksWritten.c_str())
                          : 0,
                      env.clock.now() - start};
    };

    const auto journal = profile(WalMode::RollbackJournal);
    const auto wal = profile(WalMode::FileOptimized);
    EXPECT_GE(journal.fsyncs, 3 * wal.fsyncs / 2);
    EXPECT_GT(journal.blocks, wal.blocks);
    EXPECT_GT(journal.elapsed, wal.elapsed);
}

TEST(RollbackJournal, EquivalentContentToWalModes)
{
    std::map<RowId, ByteBuffer> reference;
    bool first = true;
    for (WalMode mode : {WalMode::RollbackJournal, WalMode::FileOptimized,
                         WalMode::Nvwal}) {
        Env env(nexusEnv());
        DbConfig config;
        config.walMode = mode;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        Rng rng(2024);
        for (int txn = 0; txn < 40; ++txn) {
            NVWAL_CHECK_OK(db->begin());
            for (int i = 0; i < 4; ++i) {
                const RowId key = static_cast<RowId>(rng.nextBelow(120));
                const ByteBuffer v =
                    testutil::makeValue(1 + rng.nextBelow(150),
                                        rng.next());
                switch (rng.nextBelow(3)) {
                  case 0:
                    (void)db->insert(key, testutil::spanOf(v));
                    break;
                  case 1:
                    (void)db->update(key, testutil::spanOf(v));
                    break;
                  default:
                    (void)db->remove(key);
                    break;
                }
            }
            NVWAL_CHECK_OK(db->commit());
        }
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
            EXPECT_EQ(content, reference);
        }
        NVWAL_CHECK_OK(db->verifyIntegrity());
    }
}

} // namespace
} // namespace nvwal
