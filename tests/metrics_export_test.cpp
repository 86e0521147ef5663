/**
 * @file
 * Thread-safety tests for the observability exporters: snapshot(),
 * histogramsSnapshot(), gaugesSnapshot() and metricsJson() are the
 * only way to read the registry, and they must be safe to call from
 * a monitoring thread while committers and their inline checkpoint
 * steps mutate counters, gauges and histograms. The suite name is
 * part of the TSan CI matrix (ci.yml runs -R "Concurrency|...").
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "db/connection.hpp"
#include "db/database.hpp"
#include "db/inspect.hpp"
#include "test_util.hpp"

namespace nvwal
{
namespace
{

TEST(MetricsExportConcurrency, SnapshotsRaceCleanlyWithBackgroundWork)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    env.stats.tracer().setEnabled(true);

    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.nvwal.syncMode = SyncMode::Lazy;
    config.nvwal.diffLogging = true;
    config.nvwal.userHeap = true;
    config.checkpointThreshold = 16;  // keep the paced steps busy
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> exports{0};

    // The monitoring thread: hammer every exporter while the engine
    // is at its busiest. TSan is the real assertion here.
    std::thread exporter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const StatsSnapshot counters = env.stats.snapshot();
            EXPECT_FALSE(counters.empty());
            const auto histograms = env.stats.histogramsSnapshot();
            const auto gauges = env.stats.gaugesSnapshot();
            (void)histograms;
            (void)gauges;
            const std::string doc = metricsJson(env.stats);
            EXPECT_NE(doc.find("\"counters\""), std::string::npos);
            exports.fetch_add(1, std::memory_order_relaxed);
        }
    });

    constexpr int kWriters = 3;
    constexpr RowId kTxnsPerWriter = 60;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            std::unique_ptr<Connection> conn;
            NVWAL_CHECK_OK(db->connect(&conn));
            const RowId lo = 1 + w * 10000;
            for (RowId k = lo; k < lo + kTxnsPerWriter; ++k) {
                NVWAL_CHECK_OK(conn->begin());
                NVWAL_CHECK_OK(
                    conn->insert(k, testutil::makeValue(64, k)));
                NVWAL_CHECK_OK(conn->commit(CommitOptions{
                    .durability =
                        k % 3 == 0 ? Durability::Async : Durability::Sync,
                    .waitForHarden = false}));
            }
        });
    }
    for (std::thread &t : writers)
        t.join();
    // A root commit past the threshold, with the writers gone, runs
    // one paced checkpoint step while the exporter still reads.
    NVWAL_CHECK_OK(db->begin());
    for (RowId k = 1000000; k < 1000002; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(9 * 4096, k)));
    NVWAL_CHECK_OK(db->commit());
    NVWAL_CHECK_OK(db->flushAsyncCommits());
    stop.store(true, std::memory_order_relaxed);
    exporter.join();

    EXPECT_GT(exports.load(), 0u);
    EXPECT_GT(env.stats.get(stats::kWalCkptPagesWritten), 0u);
    // The workload really exercised the racy paths the exporters
    // snapshot against.
    const StatsSnapshot final_counters = env.stats.snapshot();
    EXPECT_GE(final_counters.at(stats::kTxnsCommitted.c_str()),
              static_cast<std::uint64_t>(kWriters) * kTxnsPerWriter);
    EXPECT_GT(env.stats.get(stats::kFrRecordsWritten), 0u);
    db.reset();
}

TEST(MetricsExportConcurrency, DroppedTraceEventsSurfaceInSnapshots)
{
    EnvConfig env_config;
    env_config.cost = CostModel::tuna(500);
    Env env(env_config);
    env.stats.tracer().setCapacity(8);  // tiny ring: drops are certain
    env.stats.tracer().setEnabled(true);

    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    for (RowId k = 1; k <= 30; ++k)
        NVWAL_CHECK_OK(db->insert(k, testutil::makeValue(32, k)));

    ASSERT_GT(env.stats.tracer().dropped(), 0u);
    const StatsSnapshot counters = env.stats.snapshot();
    ASSERT_TRUE(counters.count(stats::kTraceEventsDropped.c_str()));
    EXPECT_EQ(counters.at(stats::kTraceEventsDropped.c_str()),
              env.stats.tracer().dropped());
    const std::string doc = metricsJson(env.stats);
    EXPECT_NE(doc.find(stats::kTraceEventsDropped), std::string::npos);
}

} // namespace
} // namespace nvwal
