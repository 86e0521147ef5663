/**
 * @file
 * Committed pages served from the shared pager (DESIGN.md §16).
 *
 * A snapshot-cache miss and a checkpoint write-back copy the pager's
 * clean image instead of rebuilding the page from the .db base plus
 * its logged diffs, whenever that image provably equals the page at
 * the requested horizon. These tests pin the rule down:
 *  - every page served from the pager equals the rebuilt page byte
 *    for byte, at the current horizon and at pinned older ones;
 *  - a checkpoint fed from the pager writes the same .db file as one
 *    that replays the log (a reopened database's empty pager);
 *  - a published commit that never reached the log -- lost to a
 *    failed append (poisoned database) or cut by a power failure
 *    mid-append -- is never served to a reader or written back;
 *  - a pinned reader still reads its own image of a page changed
 *    after the pin.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "db/connection.hpp"
#include "db/database.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

DbConfig
manualCheckpointConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    return config;
}

ByteBuffer
rowValue(RowId key, std::uint64_t version, std::size_t size)
{
    return testutil::makeValue(
        size, static_cast<std::uint64_t>(key) * 1000003 + version);
}

/**
 * A seeded single-writer script: one to four statements per
 * transaction over 400 keys (insert, update or delete, chosen against
 * a model), values of 40-700 bytes so leaves split and merge.
 */
class Script
{
  public:
    explicit Script(std::uint64_t seed) : _rng(seed) {}

    void
    runTxn(Database &db)
    {
        NVWAL_CHECK_OK(db.begin());
        const std::uint64_t statements = 1 + _rng.nextBelow(4);
        for (std::uint64_t i = 0; i < statements; ++i) {
            const RowId key = static_cast<RowId>(_rng.nextBelow(400));
            const std::size_t size = 40 + _rng.nextBelow(660);
            const ByteBuffer value = rowValue(key, ++_version, size);
            const auto it = _model.find(key);
            if (it == _model.end()) {
                NVWAL_CHECK_OK(db.insert(key, value));
                _model[key] = value;
            } else if (_rng.nextBelow(3) == 0) {
                NVWAL_CHECK_OK(db.remove(key));
                _model.erase(it);
            } else {
                NVWAL_CHECK_OK(db.update(key, value));
                it->second = value;
            }
        }
        NVWAL_CHECK_OK(db.commit());
    }

    const std::map<RowId, ByteBuffer> &model() const { return _model; }

  private:
    Rng _rng;
    std::uint64_t _version = 0;
    std::map<RowId, ByteBuffer> _model;
};

/** A database size in pages as of the newest commit. */
std::uint32_t
committedPages(Database &db)
{
    const std::uint32_t pages = db.wal().committedDbSize();
    return pages != 0 ? pages : db.pager().pageCount();
}

/**
 * Fetch every page of a @p pages-page database at @p horizon both
 * ways; each page the pager served must equal the rebuilt one.
 * Returns how many pages the pager served.
 */
std::uint32_t
expectServedPagesMatch(Database &db, CommitSeq horizon,
                       std::uint32_t pages)
{
    const std::uint32_t page_size = db.config().pageSize;
    ByteBuffer served(page_size);
    ByteBuffer rebuilt(page_size);
    std::uint32_t from_pager_count = 0;
    for (PageNo p = 1; p <= pages; ++p) {
        const std::uint64_t before =
            db.statValue(stats::kSnapshotPagerFetches);
        NVWAL_CHECK_OK(db.fetchCommittedPage(
            p, horizon, ByteSpan(served.data(), page_size)));
        NVWAL_CHECK_OK(db.rebuildCommittedPage(
            p, horizon, ByteSpan(rebuilt.data(), page_size)));
        if (db.statValue(stats::kSnapshotPagerFetches) == before)
            continue;
        ++from_pager_count;
        EXPECT_EQ(served, rebuilt)
            << "page " << p << " at horizon " << horizon;
    }
    return from_pager_count;
}

/** The whole .db file of @p db. */
ByteBuffer
dbFileBytes(Env &env, const DbConfig &config)
{
    ByteBuffer bytes(env.fs.fileSize(config.name));
    NVWAL_CHECK_OK(env.fs.pread(config.name, 0,
                                ByteSpan(bytes.data(), bytes.size())));
    return bytes;
}

TEST(PagerImages, ServedPagesMatchTheRebuildAtEveryPinnedHorizon)
{
    Env env;
    std::unique_ptr<Database> db;
    const DbConfig config = manualCheckpointConfig();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    Script script(17);

    struct Pinned
    {
        std::unique_ptr<Connection> conn;
        std::uint32_t pages = 0;
    };
    std::vector<Pinned> readers;
    std::uint64_t served = 0;
    std::uint64_t declined_pinned = 0;
    for (int txn = 1; txn <= 360; ++txn) {
        script.runTxn(*db);
        if (txn % 45 == 0) {
            // Pin a reader here; release the oldest once four are open.
            Pinned r;
            NVWAL_CHECK_OK(db->connect(&r.conn));
            NVWAL_CHECK_OK(r.conn->beginRead());
            r.pages = committedPages(*db);
            readers.push_back(std::move(r));
            if (readers.size() > 4) {
                NVWAL_CHECK_OK(readers.front().conn->endRead());
                readers.erase(readers.begin());
            }
        }
        if (txn % 120 == 0)
            NVWAL_CHECK_OK(db->checkpoint());  // clamped at the pins
        if (txn % 30 != 0)
            continue;
        served += expectServedPagesMatch(*db, db->wal().commitSeq(),
                                         committedPages(*db));
        for (const Pinned &r : readers) {
            const std::uint32_t n = expectServedPagesMatch(
                *db, r.conn->snapshotHorizon(), r.pages);
            served += n;
            declined_pinned += r.pages - n;
        }
    }
    EXPECT_GT(served, 0u);
    // Pinned readers fell behind the writer: some of their pages
    // changed after the pin and must have been declined.
    EXPECT_GT(declined_pinned, 0u);

    // The readers' own snapshots agree with the model at the end.
    for (Pinned &r : readers)
        NVWAL_CHECK_OK(r.conn->endRead());
    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    for (const auto &[key, value] : script.model()) {
        ByteBuffer out;
        NVWAL_CHECK_OK(reader->get(key, &out));
        EXPECT_EQ(out, value) << "key " << key;
    }
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(reader->count(&n));
    EXPECT_EQ(n, script.model().size());
    NVWAL_CHECK_OK(reader->endRead());
    EXPECT_GT(db->statValue(stats::kSnapshotPagerFetches), 0u);
}

TEST(PagerImages, CheckpointFromThePagerWritesTheSameFileAsReplay)
{
    const DbConfig config = manualCheckpointConfig();
    Env warm_env;
    Env cold_env;
    std::unique_ptr<Database> warm;
    std::unique_ptr<Database> cold;
    NVWAL_CHECK_OK(Database::open(warm_env, config, &warm));
    NVWAL_CHECK_OK(Database::open(cold_env, config, &cold));
    Script warm_script(23);
    Script cold_script(23);

    for (int round = 0; round < 3; ++round) {
        for (int txn = 0; txn < 150; ++txn) {
            warm_script.runTxn(*warm);
            cold_script.runTxn(*cold);
        }
        // Reopen one database before its checkpoint: its pager holds
        // only the pages open() read, so write-back replays the log.
        cold.reset();
        NVWAL_CHECK_OK(Database::open(cold_env, config, &cold));

        const std::uint64_t warm_before =
            warm->statValue(stats::kWalCkptPagesFromPager);
        const std::uint64_t cold_before =
            cold->statValue(stats::kWalCkptPagesFromPager);
        const std::uint64_t cold_written_before =
            cold->statValue(stats::kWalCkptPagesWritten);
        NVWAL_CHECK_OK(warm->checkpoint());
        NVWAL_CHECK_OK(cold->checkpoint());
        const std::uint64_t warm_from_pager =
            warm->statValue(stats::kWalCkptPagesFromPager) - warm_before;
        const std::uint64_t cold_from_pager =
            cold->statValue(stats::kWalCkptPagesFromPager) - cold_before;
        const std::uint64_t cold_written =
            cold->statValue(stats::kWalCkptPagesWritten) -
            cold_written_before;
        EXPECT_GT(warm_from_pager, 0u) << "round " << round;
        EXPECT_LT(cold_from_pager, cold_written / 2) << "round " << round;

        EXPECT_EQ(dbFileBytes(warm_env, config),
                  dbFileBytes(cold_env, config))
            << "round " << round;
    }
    NVWAL_CHECK_OK(warm->verifyIntegrity());
}

TEST(PagerImages, PoisonedDatabaseServesOnlyLoggedPages)
{
    EnvConfig env_config;
    env_config.nvramBytes = 256 << 10;
    Env env(env_config);
    const DbConfig config = manualCheckpointConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    // Fill the NVRAM log until an append fails.
    std::set<RowId> acked;
    RowId lost = 0;
    for (RowId k = 1; k <= 1000 && lost == 0; ++k) {
        NVWAL_CHECK_OK(db->begin());
        NVWAL_CHECK_OK(db->insert(k, rowValue(k, 0, 900)));
        if (db->commit().isOk())
            acked.insert(k);
        else
            lost = k;
    }
    ASSERT_NE(lost, 0) << "the log never filled";
    ASSERT_FALSE(acked.empty());

    // The lost row sits, published, in a clean pager page; a fresh
    // snapshot must rebuild that page from the log instead.
    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    ByteBuffer out;
    EXPECT_TRUE(reader->get(lost, &out).isNotFound());
    for (RowId k : acked) {
        EXPECT_TRUE(reader->get(k, &out).isOk()) << "key " << k;
        EXPECT_EQ(out, rowValue(k, 0, 900)) << "key " << k;
    }
    NVWAL_CHECK_OK(reader->endRead());
    EXPECT_EQ(db->statValue(stats::kSnapshotPagerFetches), 0u);

    // The checkpoint writes back the logged state, not the pager's.
    NVWAL_CHECK_OK(db->checkpoint());
    EXPECT_EQ(db->statValue(stats::kWalCkptPagesFromPager), 0u);
    reader.reset();
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    EXPECT_TRUE(db->get(lost, &out).isNotFound());
    std::uint64_t n = 0;
    EXPECT_TRUE(db->count(&n).isOk());
    EXPECT_EQ(n, acked.size());
    for (RowId k : acked) {
        EXPECT_TRUE(db->get(k, &out).isOk()) << "key " << k;
        EXPECT_EQ(out, rowValue(k, 0, 900)) << "key " << k;
    }
}

TEST(PagerImages, CommitCutByPowerFailureMidAppendIsNeverServed)
{
    Env env;
    const DbConfig config = manualCheckpointConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 40; ++k)
        NVWAL_CHECK_OK(db->insert(k, rowValue(k, 0, 200)));

    // Freeze the window between publishing a commit to the pager and
    // logging it: the power fails at the append's first device write,
    // so the engine neither logs the commit nor poisons itself.
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->update(7, rowValue(7, 1, 200)));
    NVWAL_CHECK_OK(db->insert(41, rowValue(41, 1, 200)));
    env.nvramDevice.scheduleCrashAtOp(1);
    EXPECT_THROW((void)db->commit(), PowerFailure);

    const auto expect_logged_state = [&] {
        std::unique_ptr<Connection> reader;
        NVWAL_CHECK_OK(db->connect(&reader));
        NVWAL_CHECK_OK(reader->beginRead());
        ByteBuffer out;
        EXPECT_TRUE(reader->get(41, &out).isNotFound());
        NVWAL_CHECK_OK(reader->get(7, &out));
        EXPECT_EQ(out, rowValue(7, 0, 200));
        NVWAL_CHECK_OK(reader->endRead());
    };
    expect_logged_state();
    NVWAL_CHECK_OK(db->checkpoint());
    expect_logged_state();
    EXPECT_EQ(db->statValue(stats::kSnapshotPagerFetches), 0u);
    EXPECT_EQ(db->statValue(stats::kWalCkptPagesFromPager), 0u);
}

TEST(PagerImages, OpenWriteTransactionPagesAreNeverServed)
{
    Env env;
    const DbConfig config = manualCheckpointConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 40; ++k)
        NVWAL_CHECK_OK(db->insert(k, rowValue(k, 0, 200)));

    // The writer's uncommitted change sits in a dirty pager page that
    // no commit past the reader's horizon has touched.
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(db->update(7, rowValue(7, 1, 200)));
    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    ByteBuffer out;
    NVWAL_CHECK_OK(reader->get(7, &out));
    EXPECT_EQ(out, rowValue(7, 0, 200));
    NVWAL_CHECK_OK(reader->endRead());
    NVWAL_CHECK_OK(db->rollback());
}

TEST(PagerImages, PinnedReaderKeepsItsImageOfAPageChangedAfterThePin)
{
    Env env;
    const DbConfig config = manualCheckpointConfig();
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 200; ++k)
        NVWAL_CHECK_OK(db->insert(k, rowValue(k, 0, 300)));

    // Pin before the change and read nothing yet, so every page the
    // reader needs is fetched after the change.
    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    NVWAL_CHECK_OK(db->update(150, rowValue(150, 1, 300)));

    ByteBuffer out;
    NVWAL_CHECK_OK(reader->get(150, &out));
    EXPECT_EQ(out, rowValue(150, 0, 300));
    // Unchanged pages on the path (the catalog) came from the pager.
    EXPECT_GT(db->statValue(stats::kSnapshotPagerFetches), 0u);

    // A checkpoint clamped at the pin does not move the old image.
    NVWAL_CHECK_OK(db->checkpoint());
    NVWAL_CHECK_OK(reader->get(150, &out));
    EXPECT_EQ(out, rowValue(150, 0, 300));
    NVWAL_CHECK_OK(reader->endRead());

    NVWAL_CHECK_OK(reader->beginRead());
    NVWAL_CHECK_OK(reader->get(150, &out));
    EXPECT_EQ(out, rowValue(150, 1, 300));
    NVWAL_CHECK_OK(reader->endRead());
}

} // namespace
} // namespace nvwal
