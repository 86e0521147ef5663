/**
 * @file
 * Shared workload driver for the benchmark harness. Every bench
 * binary regenerates one table or figure of the paper's evaluation
 * (section 5) by running Mobibench-style workloads through this
 * driver and reporting simulated-time metrics.
 */

#ifndef NVWAL_BENCH_BENCH_UTIL_HPP
#define NVWAL_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "db/database.hpp"
#include "obs/json.hpp"

namespace nvwal::bench
{

/** Workload operation type (the paper's three Mobibench modes). */
enum class OpKind
{
    Insert,
    Update,
    Delete,
};

inline const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::Insert: return "insert";
      case OpKind::Update: return "update";
      case OpKind::Delete: return "delete";
    }
    return "?";
}

/** One workload configuration. */
struct WorkloadSpec
{
    OpKind op = OpKind::Insert;
    int txns = 1000;
    int opsPerTxn = 1;
    std::size_t recordSize = 100;  //!< the paper's 100-byte records
    /**
     * Checkpoint every DbConfig::checkpointThreshold page writes
     * inside the measured region (SQLite's default 1000), as the
     * paper does: the blocking round, run inside the commit that
     * filled the log, not the engine's paced auto-checkpoint
     * (DESIGN.md §8.4). Figure 7 excludes checkpoint time
     * (section 5.3); Figure 9 amortizes it (section 5.4).
     */
    bool checkpointDuringRun = true;
    std::uint64_t seed = 42;
};

/** Measured outcome of one workload run. */
struct WorkloadResult
{
    SimTime elapsedNs = 0;
    double txnsPerSec = 0.0;
    /** Host wall-clock spent in the measured region (real ns). */
    std::uint64_t hostNs = 0;
    StatsSnapshot delta;
    /** Per-transaction begin-to-commit latency (sim ns). */
    Histogram commitLatencyNs;

    std::uint64_t
    stat(const char *name) const
    {
        auto it = delta.find(name);
        return it == delta.end() ? 0 : it->second;
    }

    double
    perTxn(const char *name, int txns) const
    {
        return static_cast<double>(stat(name)) / txns;
    }
};

/**
 * Run @p spec against a database opened with @p db_config on a fresh
 * Env built from @p env_config. Update/delete workloads are
 * pre-populated (and checkpointed) outside the measured region.
 */
inline WorkloadResult
runWorkload(const EnvConfig &env_config, DbConfig db_config,
            const WorkloadSpec &spec)
{
    Env env(env_config);
    db_config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, db_config, &db));

    Rng rng(spec.seed);
    const int total_records = spec.txns * spec.opsPerTxn;
    if (spec.op != OpKind::Insert) {
        for (int k = 0; k < total_records; ++k) {
            ByteBuffer v(spec.recordSize,
                         static_cast<std::uint8_t>(rng.next()));
            NVWAL_CHECK_OK(
                db->insert(k, ConstByteSpan(v.data(), v.size())));
        }
        NVWAL_CHECK_OK(db->checkpoint());
    }

    const SimTime start = env.clock.now();
    const StatsSnapshot before = env.stats.snapshot();
    const auto host_start = std::chrono::steady_clock::now();
    WorkloadResult result;
    RowId key = 0;
    for (int t = 0; t < spec.txns; ++t) {
        const SimTime txn_start = env.clock.now();
        NVWAL_CHECK_OK(db->begin());
        for (int i = 0; i < spec.opsPerTxn; ++i, ++key) {
            ByteBuffer v(spec.recordSize,
                         static_cast<std::uint8_t>(rng.next()));
            const ConstByteSpan value(v.data(), v.size());
            switch (spec.op) {
              case OpKind::Insert:
                NVWAL_CHECK_OK(db->insert(key, value));
                break;
              case OpKind::Update:
                NVWAL_CHECK_OK(db->update(key, value));
                break;
              case OpKind::Delete:
                NVWAL_CHECK_OK(db->remove(key));
                break;
            }
        }
        NVWAL_CHECK_OK(db->commit());
        if (spec.checkpointDuringRun &&
            db->walPageWritesSinceCheckpoint() >=
                db_config.checkpointThreshold)
            NVWAL_CHECK_OK(db->checkpoint());
        result.commitLatencyNs.record(env.clock.now() - txn_start);
    }

    result.elapsedNs = env.clock.now() - start;
    result.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_start)
            .count());
    result.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    result.txnsPerSec = static_cast<double>(spec.txns) /
                        (static_cast<double>(result.elapsedNs) / 1e9);
    return result;
}

/** Warmup + repetition policy for noise-resistant measurements. */
struct RepeatSpec
{
    int warmup = 1;  //!< discarded runs before measuring
    int reps = 3;    //!< measured runs; the median is reported
};

/**
 * Run @p spec repeat.warmup times untimed, then repeat.reps times,
 * and return the run with the median *host* wall-clock. Simulated
 * metrics are deterministic across repetitions (same seed, same
 * cost model), so the median selects a representative host timing
 * without perturbing the simulated numbers.
 */
inline WorkloadResult
runWorkloadMedian(const EnvConfig &env_config, const DbConfig &db_config,
                  const WorkloadSpec &spec, const RepeatSpec &repeat)
{
    for (int i = 0; i < repeat.warmup; ++i)
        (void)runWorkload(env_config, db_config, spec);
    std::vector<WorkloadResult> runs;
    const int reps = std::max(1, repeat.reps);
    runs.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i)
        runs.push_back(runWorkload(env_config, db_config, spec));
    std::sort(runs.begin(), runs.end(),
              [](const WorkloadResult &a, const WorkloadResult &b) {
                  return a.hostNs < b.hostNs;
              });
    return runs[runs.size() / 2];
}

/** The six NVWAL schemes of Figure 7's legend, in paper order. */
struct Scheme
{
    const char *label;
    SyncMode sync;
    bool diff;
    bool userHeap;
};

inline const Scheme kFigure7Schemes[] = {
    {"NVWAL LS", SyncMode::Lazy, false, false},
    {"NVWAL LS+Diff", SyncMode::Lazy, true, false},
    {"NVWAL CS+Diff", SyncMode::ChecksumAsync, true, false},
    {"NVWAL UH+LS", SyncMode::Lazy, false, true},
    {"NVWAL UH+LS+Diff", SyncMode::Lazy, true, true},
    {"NVWAL UH+CS+Diff", SyncMode::ChecksumAsync, true, true},
};

inline DbConfig
nvwalDbConfig(const Scheme &scheme)
{
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.nvwal.syncMode = scheme.sync;
    config.nvwal.diffLogging = scheme.diff;
    config.nvwal.userHeap = scheme.userHeap;
    return config;
}

// ---- machine-readable output (--json) ------------------------------

/**
 * Common bench CLI: `--json <path>` writes a BENCH_*.json-compatible
 * record file next to the human-readable tables; `--smoke` shrinks
 * the workload so CI can validate the output shape in seconds. The
 * JSON schema is documented in docs/OBSERVABILITY.md.
 */
struct BenchArgs
{
    std::string jsonPath;  //!< empty = no JSON export
    bool smoke = false;
};

inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            args.jsonPath = argv[++i];
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            args.smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json <path>] [--smoke]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    return args;
}

/** One measured configuration in a bench's JSON export. */
struct BenchRecord
{
    std::string name;    //!< claim / figure row identifier
    std::string scheme;  //!< WAL scheme label ("" when n/a)
    /** Workload parameters (txns, ops_per_txn, record_size, ...). */
    std::map<std::string, std::uint64_t> params;
    double txnsPerSec = 0.0;
    /** Per-transaction latency; empty histogram = omitted. */
    Histogram latencyNs;
    /** Counter deltas over the measured region (zeros skipped). */
    StatsSnapshot counters;
    /** Extra named measurements (ratios, percentages, ...). */
    std::map<std::string, double> values;

    /** Fill params/latency/counters from a workload run. */
    void
    fromWorkload(const WorkloadSpec &spec, const WorkloadResult &r)
    {
        params["txns"] = static_cast<std::uint64_t>(spec.txns);
        params["ops_per_txn"] = static_cast<std::uint64_t>(spec.opsPerTxn);
        params["record_size"] = spec.recordSize;
        txnsPerSec = r.txnsPerSec;
        latencyNs = r.commitLatencyNs;
        counters = r.delta;
        if (r.hostNs != 0)
            values["host_ms"] = static_cast<double>(r.hostNs) / 1e6;
    }
};

/** Collects BenchRecords and writes the bench's JSON document. */
class BenchJson
{
  public:
    BenchJson(std::string bench_name, const BenchArgs &args)
        : _bench(std::move(bench_name)), _path(args.jsonPath),
          _smoke(args.smoke)
    {
    }

    bool enabled() const { return !_path.empty(); }

    void add(BenchRecord record) { _records.push_back(std::move(record)); }

    std::string
    document() const
    {
        JsonWriter w;
        w.beginObject();
        w.member("bench", _bench);
        w.member("smoke", _smoke);
        w.key("records");
        w.beginArray();
        for (const BenchRecord &r : _records) {
            w.beginObject();
            w.member("name", r.name);
            if (!r.scheme.empty())
                w.member("scheme", r.scheme);
            w.key("params");
            w.beginObject();
            for (const auto &[k, v] : r.params)
                w.member(k, v);
            w.endObject();
            w.member("throughput_txns_per_sec", r.txnsPerSec);
            if (r.latencyNs.count() > 0) {
                w.key("latency_us");
                w.beginObject();
                w.member("count", r.latencyNs.count());
                w.member("mean", r.latencyNs.mean() / 1000.0);
                w.member("p50",
                         static_cast<double>(r.latencyNs.p50()) / 1000.0);
                w.member("p95",
                         static_cast<double>(r.latencyNs.p95()) / 1000.0);
                w.member("p99",
                         static_cast<double>(r.latencyNs.p99()) / 1000.0);
                w.member("max",
                         static_cast<double>(r.latencyNs.max()) / 1000.0);
                w.endObject();
            }
            w.key("counters");
            w.beginObject();
            for (const auto &[k, v] : r.counters) {
                if (v != 0)
                    w.member(k, v);
            }
            w.endObject();
            if (!r.values.empty()) {
                w.key("values");
                w.beginObject();
                for (const auto &[k, v] : r.values)
                    w.member(k, v);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return w.str();
    }

    /** Write the document to the --json path (no-op when disabled). */
    void
    write() const
    {
        if (!enabled())
            return;
        const std::string doc = document();
        std::FILE *f = std::fopen(_path.c_str(), "wb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", _path.c_str());
            std::exit(1);
        }
        const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        if (n != doc.size()) {
            std::fprintf(stderr, "short write to %s\n", _path.c_str());
            std::exit(1);
        }
        std::printf("wrote %s (%zu records)\n", _path.c_str(),
                    _records.size());
    }

  private:
    std::string _bench;
    std::string _path;
    bool _smoke;
    std::vector<BenchRecord> _records;
};

/**
 * A pager holding 256 clean resident pages, visited in a seeded
 * random order, so every getPage is a hit: the lookup every B-tree
 * descent repeats. @p stats attaches a registry (each hit adds
 * `pager.cache_hits`); nullptr runs the same pager with none.
 */
struct HitPager
{
    HitPager(Env &env, const std::string &path, MetricsRegistry *stats)
        : file(env.fs, path, 4096), pager(file, 4096, 0, stats)
    {
        NVWAL_CHECK_OK(pager.open());
        for (int i = 0; i < 254; ++i) {
            CachedPage *page;
            PageNo no;
            NVWAL_CHECK_OK(pager.allocatePage(&page, &no));
        }
        NVWAL_CHECK_OK(pager.flushAllToFile());
        order.resize(pager.pageCount());
        Rng rng(0x9A6E);
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<PageNo>(1 + rng.nextBelow(order.size()));
    }

    /** The next page of the visiting order. */
    PageNo
    next()
    {
        const PageNo no = order[at];
        at = (at + 1) % order.size();
        return no;
    }

    DbFile file;
    Pager pager;
    std::vector<PageNo> order;
    std::size_t at = 0;
};

} // namespace nvwal::bench

#endif // NVWAL_BENCH_BENCH_UTIL_HPP
