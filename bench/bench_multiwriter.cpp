/**
 * @file
 * Multi-writer scaling curve: N optimistic connections committing
 * through the one group-commit pipeline (DESIGN.md §13). Writers run
 * disjoint key ranges, so every commit validates cleanly; the
 * no-wait async commits append without a barrier, and one tail harden
 * retires every writer's commits with a single barrier pair.
 *
 * `writers.N` is MODELED: the curve runs on one thread and charges
 * each writer's transactions to its own busy-time account (the sim
 * clock advances only while that writer runs), as if every writer
 * had its own device; the modeled makespan is max(busy_i) + the
 * shared tail harden.
 *
 * `threads.N` is MEASURED: N real std::thread writers on disjoint
 * ranges commit Group transactions concurrently, and the record
 * reports host wall-clock transactions per second (no bound: it
 * depends on the machine). It prints next to the modeled curve so
 * the model can be checked against what threads actually get.
 *
 * A final `overlap.N` record measures deterministic conflict
 * density: N writers race one contended page, the first commit of
 * each round wins, and the losers surface StatusCode::Conflict and
 * retry -- (N-1)/N conflicts per committed transaction.
 *
 * `--json <path>` exports the curve; `--smoke` shrinks it for CI.
 * The perf gate (baselines/multiwriter_bounds.json) holds the
 * 16-writer row at >= 3x the single-writer throughput and at most
 * one persist barrier per transaction.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "db/connection.hpp"

using namespace nvwal;
using namespace nvwal::bench;

namespace
{

constexpr RowId kStride = 1 << 20;   // writer ranges: disjoint leaves
constexpr RowId kMargin = 64;        // keep updates off boundary leaves
constexpr std::size_t kValueBytes = 64;  // same-size updates: no splits

struct ScalingProfile
{
    double txnsPerSec;
    Histogram latencyNs;
    StatsSnapshot delta;
    double barriersPerTxn;
    double conflictsPerTxn;
};

ByteBuffer
rowValue(RowId key, std::uint8_t tag)
{
    ByteBuffer v(kValueBytes);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<std::uint8_t>(key * 31 + i + tag);
    return v;
}

std::unique_ptr<Database>
openMw(Env &env)
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = true;
    config.nvwal.diffLogging = true;
    // An update rewrites the header, the pointer array, and a cell
    // deep in the page: SingleRange's bounding frame degenerates to
    // nearly the whole page, so log the disjoint ranges instead.
    config.nvwal.diffGranularity = DiffGranularity::MultiRange;
    config.nvwal.userHeap = true;
    // Fewer bump-heap refills: each node allocation costs a handful
    // of persist barriers off the shared heap manager.
    config.nvwal.nvBlockSize = 64 * 1024;
    config.checkpointThreshold = 100000;
    // One tail harden: the window never forces a barrier mid-curve,
    // so barriers/txn measures the group harden's amortization.
    config.asyncMaxEpochs = 1u << 20;
    config.asyncMaxStalenessNs = 0;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    return db;
}

/**
 * Seed every writer's range (plus margins) through the root
 * connection so update transactions never grow or split a page, and
 * open one connection per writer.
 */
std::vector<std::unique_ptr<Connection>>
seedWriters(Database &db, int writers, int txns_per_writer,
            int updates_per_txn)
{
    const RowId seeded =
        static_cast<RowId>(txns_per_writer) * updates_per_txn +
        2 * kMargin;
    NVWAL_CHECK_OK(db.begin());
    for (int w = 0; w < writers; ++w)
        for (RowId j = 0; j < seeded; ++j) {
            const RowId key = w * kStride + j;
            const ByteBuffer v = rowValue(key, 0);
            NVWAL_CHECK_OK(
                db.insert(key, ConstByteSpan(v.data(), v.size())));
        }
    NVWAL_CHECK_OK(db.commit(Durability::Sync));

    std::vector<std::unique_ptr<Connection>> conns;
    for (int w = 0; w < writers; ++w) {
        std::unique_ptr<Connection> conn;
        NVWAL_CHECK_OK(db.connect(&conn));
        conns.push_back(std::move(conn));
    }
    return conns;
}

/** Transaction @p t of writer @p w: its disjoint run of updates. */
Status
updateRun(Connection &conn, int w, int t, int updates_per_txn)
{
    for (int u = 0; u < updates_per_txn; ++u) {
        const RowId key = w * kStride + kMargin +
                          static_cast<RowId>(t) * updates_per_txn + u;
        const ByteBuffer v = rowValue(key, 7);
        NVWAL_RETURN_IF_ERROR(
            conn.update(key, ConstByteSpan(v.data(), v.size())));
    }
    return Status::ok();
}

ScalingProfile
runDisjoint(int writers, int txns_per_writer, int updates_per_txn)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    std::unique_ptr<Database> db = openMw(env);
    std::vector<std::unique_ptr<Connection>> conns =
        seedWriters(*db, writers, txns_per_writer, updates_per_txn);

    CommitOptions async_nowait;
    async_nowait.durability = Durability::Async;
    async_nowait.waitForHarden = false;

    // Round-robin the writers txn by txn so commits interleave the
    // way concurrent writers would produce them, while each writer's
    // sim-time cost lands in its own busy account.
    Histogram hist;
    std::vector<SimTime> busy(static_cast<std::size_t>(writers), 0);
    const StatsSnapshot before = env.stats.snapshot();
    for (int t = 0; t < txns_per_writer; ++t)
        for (int w = 0; w < writers; ++w) {
            Connection &conn = *conns[static_cast<std::size_t>(w)];
            const SimTime start = env.clock.now();
            NVWAL_CHECK_OK(conn.begin());
            NVWAL_CHECK_OK(updateRun(conn, w, t, updates_per_txn));
            NVWAL_CHECK_OK(conn.commit(async_nowait));
            const SimTime elapsed = env.clock.now() - start;
            busy[static_cast<std::size_t>(w)] += elapsed;
            hist.record(elapsed);
        }

    // The one shared harden: every writer's logged commits retire
    // behind a single barrier pair, charged once to the makespan.
    const SimTime tail_start = env.clock.now();
    NVWAL_CHECK_OK(db->flushAsyncCommits());
    const SimTime shared = env.clock.now() - tail_start;

    SimTime makespan = shared;
    for (const SimTime b : busy)
        if (b + shared > makespan)
            makespan = b + shared;

    const int txns = writers * txns_per_writer;
    ScalingProfile p;
    p.txnsPerSec = txns / (static_cast<double>(makespan) / 1e9);
    p.latencyNs = hist;
    p.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    const auto stat = [&](const char *name) {
        auto it = p.delta.find(name);
        return it == p.delta.end() ? 0.0
                                   : static_cast<double>(it->second);
    };
    p.barriersPerTxn = stat(stats::kPersistBarriers) / txns;
    p.conflictsPerTxn = stat(stats::kWalLogConflicts) / txns;
    return p;
}

/** The measured counterpart of one curve point (real threads). */
struct ThreadedProfile
{
    double hostTxnsPerSec;
    StatsSnapshot delta;
    double barriersPerTxn;
    double conflictsPerTxn;
};

/**
 * @p writers real threads, one connection each, commit Group
 * transactions on disjoint ranges as fast as they can. Host
 * wall-clock throughput; the group-commit leader batches whatever
 * commits overlap.
 */
ThreadedProfile
runThreads(int writers, int txns_per_writer, int updates_per_txn)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    std::unique_ptr<Database> db = openMw(env);
    std::vector<std::unique_ptr<Connection>> conns =
        seedWriters(*db, writers, txns_per_writer, updates_per_txn);

    CommitOptions retrying;
    retrying.maxConflictRetries = 64;
    std::vector<Status> results(static_cast<std::size_t>(writers),
                                Status::ok());
    const StatsSnapshot before = env.stats.snapshot();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w)
        threads.emplace_back([&, w] {
            Connection &conn = *conns[static_cast<std::size_t>(w)];
            for (int t = 0; t < txns_per_writer; ++t) {
                const Status s = conn.transact(
                    [&](Connection &c) {
                        return updateRun(c, w, t, updates_per_txn);
                    },
                    retrying);
                if (!s.isOk()) {
                    results[static_cast<std::size_t>(w)] = s;
                    return;
                }
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const Status &s : results)
        NVWAL_CHECK_OK(s);

    const int txns = writers * txns_per_writer;
    ThreadedProfile p;
    p.hostTxnsPerSec = txns / seconds;
    p.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    const auto stat = [&](const char *name) {
        auto it = p.delta.find(name);
        return it == p.delta.end() ? 0.0
                                   : static_cast<double>(it->second);
    };
    p.barriersPerTxn = stat(stats::kPersistBarriers) / txns;
    p.conflictsPerTxn = stat(stats::kWalLogConflicts) / txns;
    return p;
}

double
runOverlap(int writers, int rounds, StatsSnapshot *delta)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    std::unique_ptr<Database> db = openMw(env);

    const RowId contended = 42;
    const ByteBuffer seed = rowValue(contended, 0);
    NVWAL_CHECK_OK(db->begin());
    NVWAL_CHECK_OK(
        db->insert(contended, ConstByteSpan(seed.data(), seed.size())));
    NVWAL_CHECK_OK(db->commit(Durability::Sync));

    std::vector<std::unique_ptr<Connection>> conns;
    for (int w = 0; w < writers; ++w) {
        std::unique_ptr<Connection> conn;
        NVWAL_CHECK_OK(db->connect(&conn));
        conns.push_back(std::move(conn));
    }

    // Deterministic contention: all writers open transactions on the
    // same page, then commit in turn. The first commit of the round
    // wins; every later one conflicts and retries against the fresh
    // horizon, which succeeds unopposed.
    int committed = 0;
    const StatsSnapshot before = env.stats.snapshot();
    for (int r = 0; r < rounds; ++r) {
        for (auto &conn : conns)
            NVWAL_CHECK_OK(conn->begin());
        for (int w = 0; w < writers; ++w) {
            const ByteBuffer v =
                rowValue(contended, static_cast<std::uint8_t>(w + 1));
            NVWAL_CHECK_OK(conns[static_cast<std::size_t>(w)]->update(
                contended, ConstByteSpan(v.data(), v.size())));
        }
        for (int w = 0; w < writers; ++w) {
            Connection &conn = *conns[static_cast<std::size_t>(w)];
            Status s = conn.commit(CommitOptions{});
            if (s.isConflict()) {
                const ByteBuffer v = rowValue(
                    contended, static_cast<std::uint8_t>(w + 1));
                NVWAL_CHECK_OK(conn.begin());
                NVWAL_CHECK_OK(conn.update(
                    contended, ConstByteSpan(v.data(), v.size())));
                s = conn.commit(CommitOptions{});
            }
            NVWAL_CHECK_OK(s);
            ++committed;
        }
    }
    *delta = MetricsRegistry::delta(before, env.stats.snapshot());
    const auto it = delta->find(stats::kWalLogConflicts);
    const double conflicts =
        it == delta->end() ? 0.0 : static_cast<double>(it->second);
    return conflicts / committed;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_multiwriter", args);
    const int txns_per_writer = args.smoke ? 12 : 64;
    const int updates_per_txn = 4;

    TablePrinter table(
        "Multi-writer scaling, NVWAL one group-commit pipeline, Nexus 5 "
        "@ 2us, 4-update txns on disjoint ranges; modeled makespan = "
        "max per-writer busy time + the shared tail harden; measured = "
        "N real threads, Group commits, host wall clock");
    table.setHeader({"writers", "txns/sec (model)", "vs 1 writer",
                     "ack p50 (us)", "barriers/txn", "conflicts/txn",
                     "host txns/sec (threads)", "vs 1 thread"});

    const int curve[] = {1, 2, 4, 8, 16};
    const int max_threads = 8;
    double tps_one = 0.0;
    double host_tps_one = 0.0;
    for (const int writers : curve) {
        const ScalingProfile p =
            runDisjoint(writers, txns_per_writer, updates_per_txn);
        if (writers == 1)
            tps_one = p.txnsPerSec;
        const double speedup = p.txnsPerSec / tps_one;
        std::string host_tps = "-";
        std::string host_speedup = "-";
        if (writers <= max_threads) {
            const ThreadedProfile m =
                runThreads(writers, txns_per_writer, updates_per_txn);
            if (writers == 1)
                host_tps_one = m.hostTxnsPerSec;
            host_tps = TablePrinter::num(m.hostTxnsPerSec, 0);
            host_speedup =
                TablePrinter::num(m.hostTxnsPerSec / host_tps_one, 2);

            BenchRecord threaded;
            threaded.name = "threads." + std::to_string(writers);
            threaded.scheme = "NVWAL MW";
            threaded.params["writers"] =
                static_cast<std::uint64_t>(writers);
            threaded.params["txns_per_writer"] =
                static_cast<std::uint64_t>(txns_per_writer);
            threaded.params["ops_per_txn"] =
                static_cast<std::uint64_t>(updates_per_txn);
            threaded.counters = m.delta;
            threaded.values["host_txns_per_sec"] = m.hostTxnsPerSec;
            threaded.values["host_scaling_vs_1"] =
                m.hostTxnsPerSec / host_tps_one;
            threaded.values["persist_barriers_per_txn"] = m.barriersPerTxn;
            threaded.values["conflicts_per_txn"] = m.conflictsPerTxn;
            json.add(std::move(threaded));
        }
        table.addRow({std::to_string(writers),
                      TablePrinter::num(p.txnsPerSec, 0),
                      TablePrinter::num(speedup, 2),
                      TablePrinter::num(
                          static_cast<double>(p.latencyNs.p50()) /
                              1000.0,
                          1),
                      TablePrinter::num(p.barriersPerTxn, 3),
                      TablePrinter::num(p.conflictsPerTxn, 3), host_tps,
                      host_speedup});

        BenchRecord rec;
        rec.name = "writers." + std::to_string(writers);
        rec.scheme = "NVWAL MW";
        rec.params["writers"] =
            static_cast<std::uint64_t>(writers);
        rec.params["txns_per_writer"] =
            static_cast<std::uint64_t>(txns_per_writer);
        rec.params["ops_per_txn"] =
            static_cast<std::uint64_t>(updates_per_txn);
        rec.txnsPerSec = p.txnsPerSec;
        rec.latencyNs = p.latencyNs;
        rec.counters = p.delta;
        rec.values["txns_per_sec_model"] = p.txnsPerSec;
        // Inverted so the gate is an upper bound: 1/speedup <= 1/3
        // enforces >= 3x scaling at 16 writers.
        rec.values["inverse_scaling_vs_1"] = tps_one / p.txnsPerSec;
        rec.values["persist_barriers_per_txn"] = p.barriersPerTxn;
        rec.values["conflicts_per_txn"] = p.conflictsPerTxn;
        json.add(std::move(rec));
    }

    const int overlap_writers = 4;
    const int overlap_rounds = args.smoke ? 8 : 32;
    StatsSnapshot overlap_delta;
    const double overlap_conflicts =
        runOverlap(overlap_writers, overlap_rounds, &overlap_delta);
    table.addRow({"4 (1 page)", "-", "-", "-", "-",
                  TablePrinter::num(overlap_conflicts, 3), "-", "-"});

    BenchRecord overlap;
    overlap.name = "overlap." + std::to_string(overlap_writers);
    overlap.scheme = "NVWAL MW";
    overlap.params["writers"] =
        static_cast<std::uint64_t>(overlap_writers);
    overlap.params["rounds"] =
        static_cast<std::uint64_t>(overlap_rounds);
    overlap.counters = overlap_delta;
    overlap.values["conflicts_per_txn"] = overlap_conflicts;
    json.add(std::move(overlap));

    table.print();
    std::printf("\nmodel: no-wait commits append without a barrier and "
                "one tail harden retires every writer's commits, so "
                "barriers/txn collapses as writers scale.\nthreads: "
                "real writer threads share one writer lock and one "
                "group-commit queue; the host column is what they "
                "measure on this machine.\noverlap row: N writers "
                "racing one page surface (N-1)/N optimistic conflicts "
                "per commit and retry through.\n");
    json.write();
    return 0;
}
