/**
 * @file
 * Concurrent-connection benchmark for the redesigned Connection API:
 *
 *  1. snapshot-read scaling -- N reader threads, each on its own
 *     Connection and pinned snapshot, hammer point reads; total
 *     wall-clock reads/sec should grow with N because a warm
 *     snapshot cache serves reads without any shared lock. Each
 *     row also reports what a snapshot-cache miss costs: flash
 *     blocks read and sim ns per fetch (a miss copies the shared
 *     pager's clean page instead of rebuilding it, DESIGN.md §16);
 *  2. single-writer commit latency through the group-commit queue --
 *     a single-entry batch issues the same device-op sequence as the
 *     pre-queue commit path, so sim-time percentiles must stay within
 *     noise of bench_commit_latency's incremental row;
 *  3. multi-writer group commit -- W writer threads autocommitting
 *     through the queue; the leader appends each batch with one
 *     barrier pair, so persist barriers per transaction fall as W
 *     grows (below 1.0 once batches average 3+ transactions).
 *
 * `--json <path>` exports all three sections; `--smoke` shrinks the
 * run for CI validation.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "db/connection.hpp"

using namespace nvwal;
using namespace nvwal::bench;

namespace
{

double
wallSeconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

// ---- 1. snapshot-read scaling --------------------------------------

struct ReaderResult
{
    double readsPerSec = 0.0;
    double cacheHitRate = 0.0;
    double flashBlocksPerFetch = 0.0;
    double simNsPerFetch = 0.0;
};

ReaderResult
runReaders(int threads, int reads_per_thread, int rows)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    Rng fill(7);
    for (RowId k = 0; k < rows; ++k) {
        ByteBuffer v(100, static_cast<std::uint8_t>(fill.next()));
        NVWAL_CHECK_OK(db->insert(k, ConstByteSpan(v.data(), v.size())));
    }

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fetches{0};
    std::atomic<bool> failed{false};
    const std::uint64_t blocks_before = env.stats.get(stats::kBlocksRead);
    const SimTime sim_before = env.clock.now();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::unique_ptr<Connection> conn;
            if (!db->connect(&conn).isOk() || !conn->beginRead().isOk()) {
                failed.store(true);
                return;
            }
            Rng rng(100 + static_cast<std::uint64_t>(t));
            ByteBuffer out;
            for (int i = 0; i < reads_per_thread; ++i) {
                const RowId key = static_cast<RowId>(
                    rng.nextBelow(static_cast<std::uint64_t>(rows)));
                if (!conn->get(key, &out).isOk()) {
                    failed.store(true);
                    return;
                }
            }
            hits += conn->snapshotCacheHits();
            fetches += conn->snapshotFetches();
            (void)conn->endRead();
        });
    }
    for (auto &t : pool)
        t.join();
    const double seconds = wallSeconds(start);
    NVWAL_ASSERT(!failed.load(), "reader thread failed");

    ReaderResult r;
    r.readsPerSec =
        static_cast<double>(threads) * reads_per_thread / seconds;
    const double touched =
        static_cast<double>(hits.load() + fetches.load());
    r.cacheHitRate =
        touched > 0 ? static_cast<double>(hits.load()) / touched : 0.0;
    // Every point read charges one statement; the rest of the
    // simulated time is what the snapshot-cache misses cost.
    const double n_fetches = static_cast<double>(fetches.load());
    const double statement_ns = static_cast<double>(threads) *
                                reads_per_thread *
                                static_cast<double>(env.cost.cpuOpNs);
    if (n_fetches > 0) {
        r.flashBlocksPerFetch =
            static_cast<double>(env.stats.get(stats::kBlocksRead) -
                                blocks_before) /
            n_fetches;
        r.simNsPerFetch =
            (static_cast<double>(env.clock.now() - sim_before) -
             statement_ns) /
            n_fetches;
    }
    return r;
}

// ---- 2. single-writer commit latency through the queue -------------

struct LatencyResult
{
    double txnsPerSec = 0.0;
    Histogram latencyNs;
    StatsSnapshot delta;
};

LatencyResult
runSingleWriter(int txns)
{
    // Mirrors bench_commit_latency's incremental configuration so the
    // two reports are directly comparable.
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 1000;
    config.checkpointStepPages = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    std::unique_ptr<Connection> conn;
    ConnectOptions auto_txn;
    auto_txn.autoWriteTxn = true;
    NVWAL_CHECK_OK(db->connect(auto_txn, &conn));

    Rng rng(12);
    LatencyResult r;
    const StatsSnapshot before = env.stats.snapshot();
    const SimTime begin = env.clock.now();
    for (RowId k = 0; k < txns; ++k) {
        ByteBuffer v(100, static_cast<std::uint8_t>(rng.next()));
        const SimTime start = env.clock.now();
        NVWAL_CHECK_OK(
            conn->insert(k, ConstByteSpan(v.data(), v.size())));
        r.latencyNs.record(env.clock.now() - start);
    }
    r.txnsPerSec = txns / (static_cast<double>(env.clock.now() - begin) /
                           1e9);
    r.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    return r;
}

// ---- 3. multi-writer group commit ----------------------------------

struct GroupResult
{
    double wallTxnsPerSec = 0.0;
    double barriersPerTxn = 0.0;
    double txnsPerGroup = 0.0;
    StatsSnapshot delta;
};

GroupResult
runWriters(int threads, int txns_per_thread)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 1000;
    // Checkpoints ride commits inline in 4-page steps, as in the
    // single-writer section.
    config.checkpointStepPages = 4;
    // Large pre-allocated log blocks (paper section 5.3): the
    // per-node heap persists would otherwise dominate the barrier
    // count and mask the group-commit amortization being measured.
    config.nvwal.nvBlockSize = 64 * 1024;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    std::atomic<bool> failed{false};
    const StatsSnapshot before = env.stats.snapshot();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::unique_ptr<Connection> conn;
            ConnectOptions auto_txn;
            auto_txn.autoWriteTxn = true;
            if (!db->connect(auto_txn, &conn).isOk()) {
                failed.store(true);
                return;
            }
            Rng rng(200 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < txns_per_thread; ++i) {
                ByteBuffer v(100, static_cast<std::uint8_t>(rng.next()));
                const RowId key =
                    static_cast<RowId>(t) * 1000000 + i;
                if (!conn->insert(key,
                                  ConstByteSpan(v.data(), v.size()))
                         .isOk()) {
                    failed.store(true);
                    return;
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    const double seconds = wallSeconds(start);
    NVWAL_ASSERT(!failed.load(), "writer thread failed");

    GroupResult r;
    r.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    const double total =
        static_cast<double>(threads) * txns_per_thread;
    r.wallTxnsPerSec = total / seconds;
    const auto stat = [&](const char *name) -> double {
        auto it = r.delta.find(name);
        return it == r.delta.end() ? 0.0
                                   : static_cast<double>(it->second);
    };
    r.barriersPerTxn = stat(stats::kPersistBarriers) / total;
    const double groups = stat(stats::kGroupCommits);
    r.txnsPerGroup =
        groups > 0 ? stat(stats::kGroupCommitTxns) / groups : 0.0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_concurrent", args);

    // ---- snapshot-read scaling -------------------------------------
    const int rows = args.smoke ? 400 : 2000;
    const int reads = args.smoke ? 2000 : 40000;
    TablePrinter readers_table(
        "Snapshot readers, NVWAL, 100-byte rows: each thread pins one "
        "snapshot and point-reads it (wall clock)");
    readers_table.setHeader(
        {"reader threads", "reads/sec (wall)", "cache hit rate",
         "flash blocks/fetch", "sim ns/fetch"});
    double one_reader = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
        const ReaderResult r = runReaders(threads, reads, rows);
        if (threads == 1)
            one_reader = r.readsPerSec;
        readers_table.addRow(
            {std::to_string(threads), TablePrinter::num(r.readsPerSec, 0),
             TablePrinter::num(r.cacheHitRate, 3),
             TablePrinter::num(r.flashBlocksPerFetch, 3),
             TablePrinter::num(r.simNsPerFetch, 0)});
        BenchRecord rec;
        rec.name = "readers." + std::to_string(threads);
        rec.params["threads"] = static_cast<std::uint64_t>(threads);
        rec.params["reads_per_thread"] =
            static_cast<std::uint64_t>(reads);
        rec.params["rows"] = static_cast<std::uint64_t>(rows);
        rec.values["reads_per_sec_wall"] = r.readsPerSec;
        rec.values["cache_hit_rate"] = r.cacheHitRate;
        rec.values["flash_blocks_per_fetch"] = r.flashBlocksPerFetch;
        rec.values["sim_ns_per_fetch"] = r.simNsPerFetch;
        rec.values["speedup_vs_one_thread"] =
            one_reader > 0 ? r.readsPerSec / one_reader : 1.0;
        json.add(std::move(rec));
    }
    readers_table.print();

    // ---- single-writer latency parity ------------------------------
    const int txns = args.smoke ? 200 : 4000;
    const LatencyResult lat = runSingleWriter(txns);
    TablePrinter lat_table(
        "Single writer through the group-commit queue (sim time; "
        "compare bench_commit_latency, incremental row)");
    lat_table.setHeader(
        {"txns/sec", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)"});
    lat_table.addRow(
        {TablePrinter::num(lat.txnsPerSec, 0),
         TablePrinter::num(static_cast<double>(lat.latencyNs.p50()) /
                               1000.0, 1),
         TablePrinter::num(static_cast<double>(lat.latencyNs.p95()) /
                               1000.0, 1),
         TablePrinter::num(static_cast<double>(lat.latencyNs.p99()) /
                               1000.0, 1),
         TablePrinter::num(static_cast<double>(lat.latencyNs.max()) /
                               1000.0, 1)});
    lat_table.print();
    {
        BenchRecord rec;
        rec.name = "single_writer.queue";
        rec.scheme = "NVWAL LS";
        rec.params["txns"] = static_cast<std::uint64_t>(txns);
        rec.txnsPerSec = lat.txnsPerSec;
        rec.latencyNs = lat.latencyNs;
        rec.counters = lat.delta;
        json.add(std::move(rec));
    }

    // ---- group commit under concurrent writers ---------------------
    // Not shrunk in smoke mode: a loop that fits inside one scheduler
    // quantum serializes the writers on a single-core host and no
    // batch ever combines; 1000 txns per writer keeps every thread
    // alive past a timeslice (still well under a second).
    const int per_writer = 1000;
    TablePrinter group_table(
        "Group commit, W writer threads autocommitting 100-byte "
        "inserts");
    group_table.setHeader({"writers", "txns/sec (wall)",
                           "persist barriers/txn", "txns/group commit"});
    for (const int threads : {1, 2, 4, 8}) {
        const GroupResult r = runWriters(threads, per_writer);
        group_table.addRow(
            {std::to_string(threads),
             TablePrinter::num(r.wallTxnsPerSec, 0),
             TablePrinter::num(r.barriersPerTxn, 2),
             TablePrinter::num(r.txnsPerGroup, 2)});
        BenchRecord rec;
        rec.name = "writers." + std::to_string(threads);
        rec.scheme = "NVWAL LS";
        rec.params["threads"] = static_cast<std::uint64_t>(threads);
        rec.params["txns_per_thread"] =
            static_cast<std::uint64_t>(per_writer);
        rec.counters = r.delta;
        rec.values["txns_per_sec_wall"] = r.wallTxnsPerSec;
        rec.values["persist_barriers_per_txn"] = r.barriersPerTxn;
        rec.values["txns_per_group_commit"] = r.txnsPerGroup;
        json.add(std::move(rec));
    }
    group_table.print();

    std::printf("\nsnapshot reads scale because a warm private cache "
                "serves them lock-free; the queue leaves the single-"
                "writer op stream untouched; concurrent committers "
                "share one barrier pair per batch, so barriers/txn "
                "drops as writers pile up.\n");
    json.write();
    return 0;
}
