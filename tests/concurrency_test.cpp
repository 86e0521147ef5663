/**
 * @file
 * Tests for the concurrent-connection surface: snapshot-isolated
 * readers, the group-commit queue under real writer threads, inline
 * checkpoint steps under a snapshot pin, and the crash-sweep harness
 * replaying a scripted reader + incremental checkpoint steps
 * alongside committing transactions.
 *
 * Threaded tests only assert properties that hold under every legal
 * interleaving (snapshot stability, prefix visibility, conservation
 * of committed transactions); scheduling-dependent quantities like
 * the exact batch sizes are checked loosely.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "db/connection.hpp"
#include "faultsim/crash_sweep.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

DbConfig
nvwalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    return config;
}

EnvConfig
envConfig()
{
    EnvConfig c;
    c.cost = CostModel::nexus5();
    return c;
}

ByteBuffer
rowValue(RowId key)
{
    return testutil::makeValue(64, static_cast<std::uint64_t>(key));
}

// ---- single-threaded snapshot semantics ----------------------------

TEST(Concurrency, SnapshotIsolationAcrossCommits)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenConnections), 1u);
    NVWAL_CHECK_OK(conn->beginRead());
    EXPECT_TRUE(conn->inRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 1u);

    // Commits after the pin are invisible to the open snapshot.
    for (RowId k = 11; k <= 20; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    NVWAL_CHECK_OK(db->update(1, testutil::spanOf(rowValue(99))));

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 10u);
    ByteBuffer out;
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(1));   // pre-update value
    EXPECT_TRUE(conn->get(15, &out).isNotFound());
    EXPECT_GT(conn->snapshotFetches(), 0u);

    // A fresh snapshot sees the new horizon.
    NVWAL_CHECK_OK(conn->endRead());
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenSnapshots), 0u);
    NVWAL_CHECK_OK(conn->beginRead());
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 20u);
    NVWAL_CHECK_OK(conn->get(1, &out));
    EXPECT_EQ(out, rowValue(99));
    NVWAL_CHECK_OK(conn->endRead());

    EXPECT_GE(db->statValue(stats::kSnapshotsOpened), 2u);
    conn.reset();
    EXPECT_EQ(db->statGauge(stats::kGaugeOpenConnections), 0u);
}

/**
 * A snapshot cache over @p db at its current horizon, built as the
 * database builds one, with every fetch counted in @p fetched.
 */
SnapshotCache
snapshotOf(Database &db, int *fetched)
{
    const CommitSeq horizon = db.wal().commitSeq();
    return SnapshotCache(
        db.pager().pageSize(), db.pager().reservedBytes(),
        db.pager().rootPage(), horizon, db.pager().pageCount(),
        [&db, horizon, fetched](PageNo page_no, ByteSpan out) {
            ++*fetched;
            return db.fetchCommittedPage(page_no, horizon, out);
        });
}

TEST(Concurrency, SnapshotBTreeWritesSurfaceUnsupported)
{
    // PageSource's contract: a B-tree over a read-only source serves
    // reads, and a write that needs a page allocated or freed fails
    // with Unsupported rather than crashing.
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    for (RowId k = 1; k <= 200; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    // A value too big for a leaf spills into an overflow chain.
    const ByteBuffer big = testutil::makeValue(3 * 4096, 7);
    NVWAL_CHECK_OK(db->insert(1000, testutil::spanOf(big)));
    Table *table;
    NVWAL_CHECK_OK(db->openTable(Database::kDefaultTable, &table));
    const PageNo root = table->btree().rootPage();

    int fetched = 0;
    SnapshotCache snap = snapshotOf(*db, &fetched);
    BTree tree(snap, root);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(tree.count(&n));
    EXPECT_EQ(n, 201u);
    ByteBuffer out;
    NVWAL_CHECK_OK(tree.get(1000, &out));
    EXPECT_EQ(out, big);

    // Removing the big row frees its overflow pages.
    EXPECT_TRUE(tree.remove(1000).isUnsupported());
    // Appends fill the last leaf until it must split.
    Status s = Status::ok();
    for (RowId k = 1001; s.isOk() && k <= 1200; ++k)
        s = tree.insert(k, testutil::spanOf(rowValue(k)));
    EXPECT_TRUE(s.isUnsupported()) << s.toString();

    // Nothing reached the database.
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 201u);
    NVWAL_CHECK_OK(db->get(1000, &out));
    EXPECT_EQ(out, big);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Concurrency, SnapshotFetchesInOrderAndRejectsPagesPastItsSize)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    for (RowId k = 1; k <= 200; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    int fetched = 0;
    SnapshotCache snap = snapshotOf(*db, &fetched);
    const std::uint32_t size = snap.pageCount();
    ASSERT_GE(size, 3u);
    CachedPage *page;
    EXPECT_EQ(snap.getPage(size + 1, &page).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(fetched, 0);   // rejected before any fetch

    // Every fetch is recorded once, in fetch order; hits are not.
    NVWAL_CHECK_OK(snap.getPage(size, &page));
    NVWAL_CHECK_OK(snap.getPage(1, &page));
    NVWAL_CHECK_OK(snap.getPage(size, &page));
    NVWAL_CHECK_OK(snap.getPage(2, &page));
    EXPECT_EQ(snap.readSet(), (std::vector<PageNo>{size, 1, 2}));
    EXPECT_EQ(snap.fetches(), 3u);
    EXPECT_EQ(snap.cacheHits(), 1u);
    EXPECT_EQ(fetched, 3);

    // A page committed after the horizon stays out of reach.
    for (RowId k = 201; k <= 400; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    ASSERT_GT(db->pager().pageCount(), size);
    EXPECT_EQ(snap.getPage(size + 1, &page).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(fetched, 3);
}

TEST(Concurrency, PinnedSnapshotBlocksTruncationThenDrains)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    DbConfig config = nvwalConfig();
    config.autoCheckpoint = false;   // checkpoint only by hand here
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 10; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->beginRead());
    for (RowId k = 11; k <= 20; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));

    // Drain as far as the pin allows: the step loop must terminate
    // (done despite the pin), report the block, and keep the frames
    // the snapshot needs.
    bool done = false;
    for (int round = 0; round < 100 && !done; ++round)
        NVWAL_CHECK_OK(db->checkpointStep(8, &done));
    EXPECT_TRUE(done);
    EXPECT_GE(db->statValue(stats::kCheckpointsPinBlocked), 1u);
    EXPECT_GT(db->walPageWritesSinceCheckpoint(), 0u);

    // The snapshot still reads exactly its pinned state.
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 10u);
    ByteBuffer out;
    EXPECT_TRUE(conn->get(15, &out).isNotFound());

    // Vacuum must refuse while the pin is open.
    EXPECT_TRUE(db->vacuum().isBusy());

    // Unpin: the log drains completely and the new state is visible.
    NVWAL_CHECK_OK(conn->endRead());
    done = false;
    for (int round = 0; round < 100 && !done; ++round)
        NVWAL_CHECK_OK(db->checkpointStep(8, &done));
    EXPECT_TRUE(done);
    EXPECT_EQ(db->walPageWritesSinceCheckpoint(), 0u);
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 20u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Concurrency, WriteTransactionThroughConnection)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));

    NVWAL_CHECK_OK(conn->begin());
    EXPECT_TRUE(conn->inWrite());
    NVWAL_CHECK_OK(conn->insert(1, "one"));
    NVWAL_CHECK_OK(conn->insert(2, "two"));
    NVWAL_CHECK_OK(conn->commit());
    EXPECT_FALSE(conn->inWrite());

    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(3, "three"));
    NVWAL_CHECK_OK(conn->rollback());

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 2u);
    ByteBuffer out;
    EXPECT_TRUE(db->get(3, &out).isNotFound());
}

// ---- threaded: snapshot readers vs a committing writer -------------

TEST(Concurrency, ReadersSeeCommittedPrefixesWhileWriterCommits)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));

    constexpr RowId kTxns = 40;
    constexpr int kReaders = 4;
    std::atomic<bool> writer_done{false};
    std::atomic<int> failures{0};

    // Commit the first transaction before any reader pins a
    // snapshot, so every snapshot has a committed horizon.
    std::unique_ptr<Connection> writer;
    ConnectOptions auto_txn;
    auto_txn.autoWriteTxn = true;
    NVWAL_CHECK_OK(db->connect(auto_txn, &writer));
    NVWAL_CHECK_OK(writer->insert(1, testutil::spanOf(rowValue(1))));

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            std::unique_ptr<Connection> conn;
            if (!db->connect(&conn).isOk()) {
                failures++;
                return;
            }
            std::uint64_t last_count = 0;
            do {
                if (!conn->beginRead().isOk()) {
                    failures++;
                    return;
                }
                std::uint64_t n = 0;
                bool consistent = true;
                // Writer commits key t at txn t, so every consistent
                // snapshot is exactly the keys 1..n for some n, each
                // with its per-key value.
                if (!conn->count(&n).isOk())
                    consistent = false;
                RowId max_seen = 0;
                if (consistent &&
                    !conn->scan(INT64_MIN, INT64_MAX,
                                [&](RowId k, ConstByteSpan v) {
                                    if (k != max_seen + 1 ||
                                        ByteBuffer(v.begin(), v.end()) !=
                                            rowValue(k))
                                        consistent = false;
                                    max_seen = k;
                                    return consistent;
                                }).isOk())
                    consistent = false;
                if (consistent && max_seen != static_cast<RowId>(n))
                    consistent = false;
                if (consistent && n < last_count)
                    consistent = false;   // horizons are monotonic
                last_count = n;
                // Re-reading the same snapshot is stable.
                std::uint64_t again = 0;
                if (consistent &&
                    (!conn->count(&again).isOk() || again != n))
                    consistent = false;
                if (!conn->endRead().isOk())
                    consistent = false;
                if (!consistent) {
                    failures++;
                    return;
                }
            } while (!writer_done.load());
        });
    }

    for (RowId t = 2; t <= kTxns; ++t)
        NVWAL_CHECK_OK(writer->insert(t, testutil::spanOf(rowValue(t))));
    writer_done.store(true);
    for (auto &r : readers)
        r.join();
    writer.reset();

    EXPECT_EQ(failures.load(), 0);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, static_cast<std::uint64_t>(kTxns));
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

// ---- threaded: group commit ----------------------------------------

TEST(Concurrency, GroupCommitBatchesConcurrentWriters)
{
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));

    constexpr int kWriters = 4;
    // Batching needs writers whose transactions actually overlap in
    // time, which pure scheduling can deny on a single-core host: a
    // thread whose whole loop fits in one quantum runs to completion
    // before the next writer starts. Keep each loop well past a
    // timeslice so preemption lands mid-transaction, and hammer in
    // rounds until at least one batch combines; zero combining across
    // every round is the actual regression being tested for.
    constexpr int kTxnsPerWriter = 1000;
    constexpr int kMaxRounds = 5;
    std::atomic<int> failures{0};

    const std::uint64_t txns_before = db->statValue(stats::kTxnsCommitted);
    const std::uint64_t groups_before =
        db->statValue(stats::kGroupCommits);
    const std::uint64_t grouped_before =
        db->statValue(stats::kGroupCommitTxns);

    std::uint64_t total = 0;
    bool combined = false;
    for (int round = 0; round < kMaxRounds && !combined; ++round) {
        const std::uint64_t groups_at = db->statValue(stats::kGroupCommits);
        std::vector<std::thread> writers;
        writers.reserve(kWriters);
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&, w, round] {
                std::unique_ptr<Connection> conn;
                ConnectOptions auto_txn;
                auto_txn.autoWriteTxn = true;
                if (!db->connect(auto_txn, &conn).isOk()) {
                    failures++;
                    return;
                }
                for (int i = 0; i < kTxnsPerWriter; ++i) {
                    const RowId key =
                        static_cast<RowId>(round) * 1000000 +
                        static_cast<RowId>(w) * 1000 + i;
                    if (!conn->insert(key, testutil::spanOf(rowValue(key)))
                             .isOk()) {
                        failures++;
                        return;
                    }
                }
            });
        }
        for (auto &t : writers)
            t.join();
        ASSERT_EQ(failures.load(), 0);
        total += kWriters * kTxnsPerWriter;
        combined = db->statValue(stats::kGroupCommits) - groups_at <
                   static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter;
    }
    EXPECT_TRUE(combined)
        << "no batch ever combined more than one transaction";

    EXPECT_EQ(db->statValue(stats::kTxnsCommitted) - txns_before, total);
    // Every transaction went through the queue exactly once...
    EXPECT_EQ(db->statValue(stats::kGroupCommitTxns) - grouped_before,
              total);
    const std::uint64_t groups =
        db->statValue(stats::kGroupCommits) - groups_before;
    EXPECT_GE(groups, 1u);
    // ...and at least one group held several.
    EXPECT_LT(groups, total);

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, total);
    for (int w = 0; w < kWriters; ++w) {
        ByteBuffer out;
        const RowId key = static_cast<RowId>(w) * 1000 + kTxnsPerWriter - 1;
        NVWAL_CHECK_OK(db->get(key, &out));
        EXPECT_EQ(out, rowValue(key));
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

/**
 * Writers on their own connections group-commit while readers take
 * fresh snapshots, whose cache misses may be served from the shared
 * pager (DESIGN.md §16), and the commits' inline checkpoint steps
 * write pages back from it. Each transaction of writer w bumps its
 * counter row w to n and inserts row n of its range, so the rows sit
 * in a different leaf than the counter: a snapshot mixing a published
 * but not yet logged page with a page rebuilt at its horizon shows a
 * counter that disagrees with the rows.
 */
TEST(Concurrency, SnapshotReadersDuringGroupCommitSeeOnlyLoggedPages)
{
    Env env(envConfig());
    DbConfig config = nvwalConfig();
    config.checkpointThreshold = 32;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    constexpr int kWriters = 4;
    constexpr int kReaders = 2;
    constexpr std::uint64_t kTxnsPerWriter = 300;
    const auto counter_value = [](std::uint64_t n) {
        ByteBuffer v(64, 0);
        storeU64(v.data(), n);
        return v;
    };
    const auto row_key = [](int w, std::uint64_t n) {
        return static_cast<RowId>(w + 1) * 1000000 +
               static_cast<RowId>(n);
    };
    for (int w = 0; w < kWriters; ++w)
        NVWAL_CHECK_OK(db->insert(w, counter_value(0)));

    std::atomic<int> writers_left{kWriters};
    std::atomic<int> failures{0};
    std::atomic<std::uint64_t> snapshots{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            std::unique_ptr<Connection> conn;
            bool ok = db->connect(&conn).isOk();
            for (std::uint64_t n = 1; ok && n <= kTxnsPerWriter; ++n) {
                const RowId key = row_key(w, n);
                ok = conn->begin().isOk() &&
                     conn->update(w, counter_value(n)).isOk() &&
                     conn->insert(key, rowValue(key)).isOk() &&
                     conn->commit().isOk();
            }
            if (!ok)
                failures++;
            writers_left--;
        });
    }
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&] {
            std::unique_ptr<Connection> conn;
            if (!db->connect(&conn).isOk()) {
                failures++;
                return;
            }
            std::uint64_t last[kWriters] = {};
            bool consistent = true;
            while (consistent && writers_left.load() > 0) {
                if (!conn->beginRead().isOk()) {
                    failures++;
                    return;
                }
                for (int w = 0; consistent && w < kWriters; ++w) {
                    ByteBuffer v;
                    if (!conn->get(w, &v).isOk() || v.size() != 64) {
                        consistent = false;
                        break;
                    }
                    const std::uint64_t n = loadU64(v.data());
                    // Exactly rows 1..n of writer w, each with its value.
                    std::uint64_t seen = 0;
                    const Status s = conn->scan(
                        row_key(w, 1), row_key(w + 1, 0),
                        [&](RowId k, ConstByteSpan value) {
                            ++seen;
                            consistent =
                                k == row_key(w, seen) &&
                                ByteBuffer(value.begin(), value.end()) ==
                                    rowValue(k);
                            return consistent;
                        });
                    consistent = consistent && s.isOk() && seen == n &&
                                 n >= last[w];
                    last[w] = n;
                }
                if (!conn->endRead().isOk())
                    consistent = false;
                snapshots++;
            }
            if (!consistent)
                failures++;
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_GT(snapshots.load(), 0u);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, kWriters * (kTxnsPerWriter + 1));
    NVWAL_CHECK_OK(db->verifyIntegrity());
    db.reset();
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (int w = 0; w < kWriters; ++w) {
        ByteBuffer v;
        NVWAL_CHECK_OK(db->get(w, &v));
        EXPECT_EQ(v, counter_value(kTxnsPerWriter));
    }
}

TEST(Concurrency, CheckpointerRespectsSnapshotPin)
{
    Env env(envConfig());
    DbConfig config = nvwalConfig();
    config.checkpointThreshold = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 5; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    // These inserts opened a round whose sync is still in flight.
    ASSERT_EQ(db->statValue(stats::kFsSyncsStarted),
              db->statValue(stats::kFsSyncsApplied) + 1);

    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->beginRead());

    // The round's horizon froze before the pin, at or below it, so
    // once the device is idle the next commit closes it under the
    // pin: one checkpoint, not cut short.
    const std::uint64_t before = db->statValue(stats::kCheckpoints);
    env.fs.waitWriteOut();
    NVWAL_CHECK_OK(db->insert(6, testutil::spanOf(rowValue(6))));
    EXPECT_EQ(db->statValue(stats::kFsSyncsApplied),
              db->statValue(stats::kFsSyncsStarted));
    EXPECT_EQ(db->statValue(stats::kCheckpoints), before + 1);
    EXPECT_EQ(db->statValue(stats::kCheckpointsPinBlocked), 0u);

    // Every commit past the threshold would run a paced step inline,
    // but the pin would stop the round short of truncation, so the
    // steps wait for it: nothing is written back or truncated.
    const std::uint64_t checkpoints = db->statValue(stats::kCheckpoints);
    const std::uint64_t pages = db->statValue(stats::kWalCkptPagesWritten);
    for (RowId k = 7; k <= 40; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(rowValue(k))));
    EXPECT_EQ(db->statValue(stats::kCheckpoints), checkpoints);
    EXPECT_EQ(db->statValue(stats::kWalCkptPagesWritten), pages);

    // A full round run by hand with the pin held may write back up to
    // the pin but never truncate past it: it finishes pin-blocked and
    // the snapshot stays intact.
    NVWAL_CHECK_OK(db->checkpoint());
    EXPECT_GT(db->statValue(stats::kCheckpointsPinBlocked), 0u);
    EXPECT_EQ(db->statValue(stats::kCheckpoints), checkpoints);

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(conn->count(&n));
    EXPECT_EQ(n, 5u);
    ByteBuffer out;
    EXPECT_TRUE(conn->get(6, &out).isNotFound());
    NVWAL_CHECK_OK(conn->endRead());
    conn.reset();

    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 40u);
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

// ---- threaded: one writer slot for every handle ----------------------

TEST(Concurrency, DurableCommitIsOkWhenAPeerBeginsBeforeItsCheckpoint)
{
    // A commit releases the writer slot as soon as its entry is
    // queued, so a peer can begin before the committer's inline
    // auto-checkpoint runs. That round is skipped -- the next commit
    // re-trips the threshold -- and never becomes the status of a
    // commit that landed (a caller retrying it would write twice).
    Env env(envConfig());
    DbConfig config = nvwalConfig();
    config.checkpointThreshold = 1;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    std::unique_ptr<Connection> a;
    std::unique_ptr<Connection> b;
    NVWAL_CHECK_OK(db->connect(&a));
    NVWAL_CHECK_OK(db->connect(&b));

    constexpr int kRounds = 20;
    constexpr RowId kRowsPerTxn = 40;
    RowId next = 1;
    for (int round = 0; round < kRounds; ++round) {
        NVWAL_CHECK_OK(a->begin());
        for (RowId i = 0; i < kRowsPerTxn; ++i, ++next)
            NVWAL_CHECK_OK(a->insert(next, testutil::spanOf(rowValue(next))));
        const RowId peer_key = next++;
        std::atomic<bool> peer_started{false};
        std::atomic<bool> a_committed{false};
        Status peer_status;
        std::thread peer([&] {
            peer_started.store(true, std::memory_order_release);
            // Blocks on the writer slot until a's commit is queued,
            // then keeps its transaction open past a's commit.
            Status s = b->begin();
            if (s.isOk())
                s = b->insert(peer_key, testutil::spanOf(rowValue(peer_key)));
            while (!a_committed.load(std::memory_order_acquire))
                std::this_thread::yield();
            if (s.isOk())
                s = b->commit();
            else if (b->inWrite())
                (void)b->rollback();
            peer_status = s;
        });
        while (!peer_started.load(std::memory_order_acquire))
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const Status s = a->commit();
        a_committed.store(true, std::memory_order_release);
        EXPECT_TRUE(s.isOk()) << "round " << round << ": " << s.toString();
        peer.join();
        EXPECT_TRUE(peer_status.isOk()) << peer_status.toString();
    }

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, static_cast<std::uint64_t>(next - 1));
    NVWAL_CHECK_OK(db->verifyIntegrity());
}

TEST(Concurrency, DirectBeginWaitsForAConnectionWriter)
{
    // The direct API's transaction is the root connection's: while
    // another Connection holds the writer slot, begin() waits for it
    // instead of failing.
    Env env(envConfig());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, nvwalConfig(), &db));
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    NVWAL_CHECK_OK(conn->begin());
    NVWAL_CHECK_OK(conn->insert(1, testutil::spanOf(rowValue(1))));

    std::atomic<bool> begun{false};
    Status direct_status;
    std::thread direct([&] {
        Status s = db->begin();
        begun.store(true, std::memory_order_release);
        if (s.isOk())
            s = db->insert(2, testutil::spanOf(rowValue(2)));
        if (s.isOk())
            s = db->commit();
        direct_status = s;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(begun.load(std::memory_order_acquire));
    NVWAL_CHECK_OK(conn->commit());
    direct.join();
    NVWAL_CHECK_OK(direct_status);

    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 2u);
}

// ---- crash sweep with a scripted reader + checkpointer -------------

/**
 * The deterministic stand-in for "crash while readers and the
 * checkpointer are active": the sweep replays a scripted snapshot
 * reader (open early, verify after every commit and checkpoint step,
 * close late) interleaved with incremental checkpoint steps, and
 * must recover to exactly the same committed states as the plain
 * transaction-only sweep of the same transactions.
 */
TEST(Concurrency, CrashSweepWithReaderAndCheckpointerMatchesPlain)
{
    faultsim::SweepConfig plain;
    plain.env.cost = CostModel::tuna(500);
    plain.env.nvramBytes = 8 << 20;
    plain.env.flashBlocks = 2048;
    plain.db.walMode = WalMode::Nvwal;
    plain.db.nvwal.nvBlockSize = 4096;
    plain.db.autoCheckpoint = false;
    plain.warmup = faultsim::Workload::standardTxns(0, 1);
    plain.workload = faultsim::Workload::standardTxns(1, 3);
    plain.policies.push_back(faultsim::PolicyRun{});  // pessimistic

    faultsim::SweepReport plain_report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(plain).run(&plain_report));
    EXPECT_TRUE(plain_report.ok()) << plain_report.summary();

    // Same transactions, now with a pinned reader and checkpoint
    // steps woven between them.
    faultsim::SweepConfig busy = plain;
    faultsim::Workload w;
    w.phase("reader pin");
    w.snapshotOpen();
    for (int txn = 1; txn <= 3; ++txn) {
        w.phase("txn " + std::to_string(txn));
        w.begin();
        for (int i = 0; i < 3; ++i) {
            const RowId key = txn * 10 + i;
            w.insert(key, faultsim::Workload::valueFor(
                              80, static_cast<std::uint64_t>(txn) * 1000 +
                                      static_cast<std::uint64_t>(key)));
        }
        if (txn > 1) {
            const RowId prev = (txn - 1) * 10;
            w.update(prev, faultsim::Workload::valueFor(
                               80, static_cast<std::uint64_t>(txn) * 1000 +
                                       static_cast<std::uint64_t>(prev)));
        }
        w.commit();
        w.phase("reader+ckpt " + std::to_string(txn));
        w.snapshotVerify();
        w.checkpointStep();
        w.snapshotVerify();
    }
    w.phase("reader close");
    w.snapshotClose();
    w.checkpointStep();
    busy.workload = w;

    faultsim::SweepReport busy_report;
    NVWAL_CHECK_OK(faultsim::CrashSweep(busy).run(&busy_report));
    EXPECT_TRUE(busy_report.ok()) << busy_report.summary();

    // "Recovers identically": the reader and the checkpoint steps add
    // device ops but no durable states, so both sweeps see the same
    // commit-event sequence and both recover every crash point to a
    // legal member of it.
    EXPECT_EQ(busy_report.commitEvents, plain_report.commitEvents);
    EXPECT_GT(busy_report.totalOps, plain_report.totalOps);
    EXPECT_EQ(busy_report.pointsSwept, busy_report.totalOps);
    EXPECT_EQ(busy_report.crashes, busy_report.replays);
}

} // namespace
} // namespace nvwal
