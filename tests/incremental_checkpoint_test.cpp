/**
 * @file
 * Tests for incremental and paced checkpointing (DESIGN.md §8.4):
 * correctness under concurrent commits (pages re-dirtied mid-round
 * must be written back again before truncation), crash safety at
 * every step, the bounded log, the latency bound the paced round
 * exists for, and the gate's wait for pinned snapshots.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "db/connection.hpp"
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

/** The paced auto-checkpoint at a small threshold. */
DbConfig
incrementalConfig()
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 40;
    return config;
}

/**
 * YCSB's Zipfian generator over [0, n) with skew theta: rank 0 is the
 * most popular item.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double theta) : _n(n), _theta(theta)
    {
        for (std::uint64_t i = 1; i <= n; ++i)
            _zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        _alpha = 1.0 / (1.0 - theta);
        _eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / _zetan);
    }

    /**
     * An item in [0, n): the rank scrambled by a hash, so the hot
     * items spread over the key space instead of sharing the first
     * leaves.
     */
    std::uint64_t
    item(Rng &rng) const
    {
        std::uint64_t x = rank(rng) + 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return (x ^ (x >> 31)) % _n;
    }

    std::uint64_t
    rank(Rng &rng) const
    {
        const double u =
            static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
        const double uz = u * _zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, _theta))
            return 1;
        const auto r = static_cast<std::uint64_t>(
            static_cast<double>(_n) *
            std::pow(_eta * u - _eta + 1.0, _alpha));
        return std::min(r, _n - 1);
    }

  private:
    std::uint64_t _n;
    double _theta;
    double _zetan = 0.0;
    double _alpha = 0.0;
    double _eta = 0.0;
};

/**
 * A phone-app write mix over a 20,000-row table: transactions of 1-8
 * statements, 40% inserts at the tail, 40% updates and 20% deletes of
 * Zipfian rows. @p paced leaves checkpoints to the paced
 * auto-checkpoint at @p threshold page writes; otherwise a commit
 * that leaves the log at the threshold runs the blocking round.
 * Returns every transaction's latency (sim ns, begin to commit),
 * sorted, and fills @p log_peak with the most page writes the log
 * held after any commit.
 */
std::vector<SimTime>
runPhoneMix(Env &env, bool paced, std::uint64_t threshold, int txns,
            std::uint64_t *log_peak)
{
    constexpr RowId kRows = 20000;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = threshold;
    config.autoCheckpoint = paced;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    const ByteBuffer fill(100, 0x5a);
    for (RowId lo = 0; lo < kRows; lo += 1000) {
        NVWAL_CHECK_OK(db->begin());
        for (RowId k = lo; k < lo + 1000; ++k)
            NVWAL_CHECK_OK(db->insert(k, testutil::spanOf(fill)));
        NVWAL_CHECK_OK(db->commit());
    }
    NVWAL_CHECK_OK(db->checkpoint());

    Rng rng(27);
    const Zipf zipf(kRows, 0.99);
    std::vector<RowId> live(kRows);
    for (RowId k = 0; k < kRows; ++k)
        live[static_cast<std::size_t>(k)] = k;
    RowId tail = kRows;
    std::vector<SimTime> latencies;
    *log_peak = 0;
    for (int t = 0; t < txns; ++t) {
        const SimTime start = env.clock.now();
        NVWAL_CHECK_OK(db->begin());
        const std::uint64_t statements = 1 + rng.nextBelow(8);
        for (std::uint64_t i = 0; i < statements; ++i) {
            const std::uint64_t p = rng.nextBelow(100);
            const ByteBuffer v = testutil::makeValue(100, rng.next());
            const std::size_t at =
                static_cast<std::size_t>(zipf.item(rng) % live.size());
            if (p < 40) {
                NVWAL_CHECK_OK(db->insert(tail, testutil::spanOf(v)));
                live.push_back(tail++);
            } else if (p < 80) {
                NVWAL_CHECK_OK(db->update(live[at], testutil::spanOf(v)));
            } else {
                NVWAL_CHECK_OK(db->remove(live[at]));
                live[at] = live.back();
                live.pop_back();
            }
        }
        NVWAL_CHECK_OK(db->commit());
        if (!paced && db->walPageWritesSinceCheckpoint() >= threshold)
            NVWAL_CHECK_OK(db->checkpoint());
        latencies.push_back(env.clock.now() - start);
        *log_peak = std::max(*log_peak, db->walPageWritesSinceCheckpoint());
    }
    NVWAL_CHECK_OK(db->verifyIntegrity());
    std::sort(latencies.begin(), latencies.end());
    return latencies;
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
    // new version of an already-written-back page before finishing.
    // The round's set was frozen when it opened, so the new versions
    // stay in the log's second segment when it retires the first, and
    // the next round writes them back; after its truncation the .db
    // file must hold the newest version.
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
    EXPECT_EQ(env.stats.get(stats::kWalSegmentSwitches), 1u);
    EXPECT_GT(db->wal().framesSinceCheckpoint(), 0u);
    done = false;
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
    // The paced round leaves the block programs to the device's
    // timeline, so no commit pays the round's write-back; the
    // blocking round (run by hand at the threshold) hits one commit
    // with all of it.
    const auto worst = [](bool paced) {
        Env env(smallEnv());
        std::uint64_t log_peak = 0;
        const SimTime w =
            runPhoneMix(env, paced, 400, 1500, &log_peak).back();
        EXPECT_GE(env.stats.get(stats::kCheckpoints), 3u);
        return w;
    };
    const SimTime full = worst(false);
    const SimTime paced = worst(true);
    EXPECT_LT(paced, full / 2);
}

TEST(PacedCheckpoint, P999CommitStaysUnderFiveMs)
{
    // The paced round on the paper's Mobibench-like mix: the opener
    // copies the round's pages into the file system and queues them
    // on the device, and the first commit that finds the device idle
    // closes the round with its fsync. At threshold 1000 the blocking round
    // programs ~300 pages inside one commit (~60 sim ms). The 99.9th
    // percentile and the worst commit stay under 5 ms: the worst is a
    // closer that carries an 8-statement body, the round's fsync and
    // the retirement of the first segment.
    Env env(smallEnv());
    std::uint64_t log_peak = 0;
    const std::vector<SimTime> latencies =
        runPhoneMix(env, true, 1000, 3000, &log_peak);
    EXPECT_GE(env.stats.get(stats::kCheckpoints), 3u);
    EXPECT_GT(env.stats.get(stats::kFsBlocksWrittenOut), 0u);
    EXPECT_LE(latencies[latencies.size() * 999 / 1000], 5'000'000u);
    EXPECT_LE(latencies.back(), 5'000'000u);
}

TEST(PacedCheckpoint, BlockingRoundHoldsOneCacheChunk)
{
    // The blocking round writes back in 16-page write-out batches and
    // waits for each, so the .db file's page cache never needs more
    // than one 16-slot chunk, however many pages the round holds.
    Env env(smallEnv());
    DbConfig config = incrementalConfig();
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 0; k < 400; ++k)
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(1000, k))));
    NVWAL_CHECK_OK(db->commit());
    const std::uint64_t pages = env.stats.get(stats::kWalCkptPagesWritten);
    const SimTime begin = env.clock.now();
    NVWAL_CHECK_OK(db->checkpoint());
    EXPECT_GE(env.stats.get(stats::kWalCkptPagesWritten) - pages, 100u);
    EXPECT_LE(env.fs.cacheChunks(), 1u);
    // The round still pays every program inside the call.
    EXPECT_GE(env.clock.now() - begin,
              100 * smallEnv().cost.blockProgramNs);
    EXPECT_GT(env.stats.get(stats::kBlockdevWaitNs), 0u);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 400u);
}

TEST(PacedCheckpoint, WriterThatNeverPausesKeepsTheLogBounded)
{
    // A writer whose pages the device cannot catch up with: a round
    // still open at twice the threshold finishes blocking, so the log
    // never holds more than that plus the commit that crossed it.
    Env env(smallEnv());
    std::uint64_t log_peak = 0;
    (void)runPhoneMix(env, true, 200, 1500, &log_peak);
    EXPECT_GE(env.stats.get(stats::kCheckpoints), 5u);
    EXPECT_GT(env.stats.get(stats::kFsBlocksWrittenOut), 0u);
    // One transaction writes at most 8 rows: a few leaves, their
    // parents, the root and the header page.
    EXPECT_LE(log_peak, 2u * 200u + 32u);
}

TEST(PacedCheckpoint, RoundWaitsForAPinnedSnapshot)
{
    // A reader pinned below the newest commit would stop the round
    // short of truncation, so paced steps wait for it; once it is
    // released the next commits finish the round.
    Env env(smallEnv());
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, incrementalConfig(), &db));
    for (RowId k = 0; k < 20; ++k)
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    std::unique_ptr<Connection> reader;
    NVWAL_CHECK_OK(db->connect(&reader));
    NVWAL_CHECK_OK(reader->beginRead());
    const std::uint64_t rounds = env.stats.get(stats::kCheckpoints);
    const std::uint64_t pages = env.stats.get(stats::kWalCkptPagesWritten);
    for (RowId k = 20; k < 120; ++k)
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds);
    EXPECT_EQ(env.stats.get(stats::kWalCkptPagesWritten), pages);
    EXPECT_EQ(env.stats.get(stats::kCheckpointsPinBlocked), 0u);
    NVWAL_CHECK_OK(reader->endRead());
    for (RowId k = 120; k < 200; ++k)
        NVWAL_CHECK_OK(db->insert(
            k, testutil::spanOf(testutil::makeValue(100, k))));
    EXPECT_GT(env.stats.get(stats::kCheckpoints), rounds);
    EXPECT_LT(db->walPageWritesSinceCheckpoint(), 2u * 40u + 8u);
    std::uint64_t n = 0;
    NVWAL_CHECK_OK(db->count(&n));
    EXPECT_EQ(n, 200u);
}

/** What holds the pin in PinWaitOpensNoRound. */
enum class PinHolder
{
    NvwalReader,
    FileWalReader,
    Workspace,
};

const char *
pinHolderName(PinHolder holder)
{
    switch (holder) {
      case PinHolder::NvwalReader: return "NVWAL reader";
      case PinHolder::FileWalReader: return "file WAL reader";
      case PinHolder::Workspace: return "multi-writer workspace";
    }
    return "?";
}

/**
 * One commit through @p writer; returns the flight-recorder records
 * and fsyncs it added.
 */
std::pair<std::uint64_t, std::uint64_t>
commitOneRow(Env &env, Connection &writer, RowId key)
{
    const std::uint64_t records = env.stats.get(stats::kFrRecordsWritten);
    const std::uint64_t fsyncs = env.stats.get(stats::kFsyncs);
    NVWAL_CHECK_OK(writer.begin());
    NVWAL_CHECK_OK(writer.insert(
        key, testutil::spanOf(testutil::makeValue(100, key))));
    NVWAL_CHECK_OK(writer.commit());
    return {env.stats.get(stats::kFrRecordsWritten) - records,
            env.stats.get(stats::kFsyncs) - fsyncs};
}

TEST(PacedCheckpoint, PinWaitOpensNoRound)
{
    // While a reader or a multi-writer workspace is pinned below the
    // newest commit, the auto-checkpoint gate waits, up to and past
    // twice the threshold: a commit past the threshold enters no
    // round, so it adds no CheckpointStart/End records and no fsync
    // beyond what a commit below the threshold adds, and no round
    // ends pin-blocked. db.auto_checkpoint_pin_waits counts each
    // such commit. Once the pin is released, the next commit runs
    // the blocking round and truncates. The whole run stays under
    // Database::kFrSnapshotEveryBatches commits, so no counter
    // snapshot lands among them.
    constexpr std::uint64_t kThreshold = 12;
    for (const PinHolder holder :
         {PinHolder::NvwalReader, PinHolder::FileWalReader,
          PinHolder::Workspace}) {
        SCOPED_TRACE(pinHolderName(holder));
        Env env(smallEnv());
        DbConfig config;
        config.checkpointThreshold = kThreshold;
        config.walMode = holder == PinHolder::FileWalReader
                             ? WalMode::FileOptimized
                             : WalMode::Nvwal;
        config.multiWriter = holder == PinHolder::Workspace;
        std::unique_ptr<Database> db;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        std::unique_ptr<Connection> writer;
        std::unique_ptr<Connection> pinner;
        NVWAL_CHECK_OK(db->connect(&writer));
        NVWAL_CHECK_OK(db->connect(&pinner));

        RowId next = 0;
        (void)commitOneRow(env, *writer, next++);
        const auto below = commitOneRow(env, *writer, next++);
        ASSERT_LT(db->walPageWritesSinceCheckpoint(), kThreshold);
        if (holder == PinHolder::Workspace) {
            ByteBuffer out;
            NVWAL_CHECK_OK(pinner->begin());
            NVWAL_CHECK_OK(pinner->get(0, &out));
        } else {
            NVWAL_CHECK_OK(pinner->beginRead());
        }

        const std::uint64_t rounds = env.stats.get(stats::kCheckpoints);
        std::uint64_t waits = 0;
        while (db->walPageWritesSinceCheckpoint() < 2 * kThreshold) {
            const auto cost = commitOneRow(env, *writer, next++);
            if (db->walPageWritesSinceCheckpoint() >= kThreshold)
                ++waits;
            EXPECT_EQ(cost.first, below.first) << "row " << next - 1;
            EXPECT_EQ(cost.second, below.second) << "row " << next - 1;
            EXPECT_EQ(env.stats.get(stats::kAutoCheckpointPinWaits), waits)
                << "row " << next - 1;
        }
        EXPECT_GE(waits, 2u);
        EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds);
        EXPECT_EQ(env.stats.get(stats::kCheckpointsPinBlocked), 0u);

        if (holder == PinHolder::Workspace)
            NVWAL_CHECK_OK(pinner->rollback());
        else
            NVWAL_CHECK_OK(pinner->endRead());
        (void)commitOneRow(env, *writer, next++);
        EXPECT_EQ(env.stats.get(stats::kCheckpoints), rounds + 1);
        EXPECT_EQ(db->walPageWritesSinceCheckpoint(), 0u);
        EXPECT_EQ(env.stats.get(stats::kAutoCheckpointPinWaits), waits);
        EXPECT_EQ(env.stats.get(stats::kCheckpointsPinBlocked), 0u);
        EXPECT_LT(env.stats.get(stats::kTxnsCommitted),
                  Database::kFrSnapshotEveryBatches);
        std::uint64_t n = 0;
        NVWAL_CHECK_OK(db->count(&n));
        EXPECT_EQ(n, static_cast<std::uint64_t>(next));
    }
}

} // namespace
} // namespace nvwal
