/**
 * @file
 * Commit-latency distribution. The paper amortizes the sporadic
 * checkpoint cost over 1000 transactions ("checkpointing affects the
 * performance of only one out of hundreds of transactions",
 * section 5.3) -- this bench shows that spike and how the
 * incremental-checkpoint extension bounds it, at a small throughput
 * cost.
 *
 * It also measures commit bookkeeping against cache size: the host
 * cost of a one-dirty-page commit over 1,000 and 10,000 resident
 * pages (`resident_scaling.N` records, `host_ns_per_commit`) and
 * their ratio (`flatness`, `host_ns_ratio`), gated by
 * bench/baselines/commit_bounds.json. The pager walks only its dirty
 * set (DESIGN.md §17), so the ratio stays near 1.
 *
 * Last, the registry's cost on the hottest recording site: host ns
 * per Pager::getPage hit with the metrics registry attached (each hit
 * adds `pager.cache_hits`) and detached (`pager_hit.attached` /
 * `pager_hit.detached`, `host_ns_per_hit`), and their ratio
 * (`metrics_overhead`, `host_ns_ratio`), gated by
 * bench/baselines/metrics_bounds.json. A counter add on an interned
 * slot is one relaxed atomic add (DESIGN.md §19).
 *
 * `--json <path>` exports the per-configuration percentiles and
 * counter deltas; `--smoke` shrinks the run for CI validation.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"

using namespace nvwal;
using namespace nvwal::bench;

namespace
{

struct LatencyProfile
{
    double txnsPerSec;
    double p50Us;
    double p95Us;
    double p99Us;
    double maxUs;
    Histogram latencyNs;
    StatsSnapshot delta;
};

LatencyProfile
run(bool incremental, int txns)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = 1000;  // SQLite default
    config.incrementalCheckpoint = incremental;
    config.checkpointStepPages = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));

    Rng rng(12);
    std::vector<SimTime> latencies;
    Histogram hist;
    latencies.reserve(txns);
    const StatsSnapshot before = env.stats.snapshot();
    const SimTime begin = env.clock.now();
    for (RowId k = 0; k < txns; ++k) {
        ByteBuffer v(100, static_cast<std::uint8_t>(rng.next()));
        const SimTime start = env.clock.now();
        NVWAL_CHECK_OK(db->insert(k, ConstByteSpan(v.data(), v.size())));
        latencies.push_back(env.clock.now() - start);
        hist.record(env.clock.now() - start);
    }
    const double seconds =
        static_cast<double>(env.clock.now() - begin) / 1e9;

    // Percentiles from the exact sorted latencies; the Histogram
    // rides along for the JSON export (obs_test proves the two agree
    // within the bucket quantization error).
    std::sort(latencies.begin(), latencies.end());
    auto at = [&](double q) {
        return static_cast<double>(
                   latencies[static_cast<std::size_t>(
                       q * (latencies.size() - 1))]) /
               1000.0;
    };
    LatencyProfile p;
    p.txnsPerSec = txns / seconds;
    p.p50Us = at(0.50);
    p.p95Us = at(0.95);
    p.p99Us = at(0.99);
    p.maxUs = static_cast<double>(latencies.back()) / 1000.0;
    p.latencyNs = hist;
    p.delta = MetricsRegistry::delta(before, env.stats.snapshot());
    return p;
}

/**
 * A database whose pager holds at least @p resident_pages pages, all
 * clean, with one hot row whose update dirties exactly one leaf. The
 * pager never evicts on its own, so every page the load wrote stays
 * resident.
 */
struct ResidentDb
{
    static constexpr std::uint32_t kValueBytes = 1000;

    explicit ResidentDb(std::uint32_t resident_pages)
        : env(makeEnvConfig())
    {
        DbConfig config;
        config.walMode = WalMode::Nvwal;
        NVWAL_CHECK_OK(Database::open(env, config, &db));
        const ByteBuffer value(kValueBytes, 0x5a);
        RowId key = 0;
        while (db->pager().pageCount() < resident_pages) {
            NVWAL_CHECK_OK(db->begin());
            for (int i = 0; i < 32; ++i, ++key)
                NVWAL_CHECK_OK(db->insert(
                    key, ConstByteSpan(value.data(), value.size())));
            NVWAL_CHECK_OK(db->commit());
        }
        residentPages = db->pager().pageCount();
    }

    static EnvConfig
    makeEnvConfig()
    {
        EnvConfig c;
        c.cost = CostModel::nexus5(2000);
        c.nvramBytes = 128ull << 20;
        c.flashBlocks = 1ull << 15;
        return c;
    }

    /** Host ns of each of @p commits one-row-update commits. */
    void
    measure(int commits, std::vector<std::uint64_t> *out)
    {
        for (int i = 0; i < commits; ++i) {
            const ByteBuffer value(kValueBytes,
                                   static_cast<std::uint8_t>(++_tag));
            NVWAL_CHECK_OK(db->begin());
            NVWAL_CHECK_OK(
                db->update(0, ConstByteSpan(value.data(), value.size())));
            const auto start = std::chrono::steady_clock::now();
            NVWAL_CHECK_OK(db->commit());
            out->push_back(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
        }
    }

    Env env;
    std::unique_ptr<Database> db;
    std::uint32_t residentPages = 0;

  private:
    std::uint64_t _tag = 0;
};

double
median(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return static_cast<double>(v[v.size() / 2]);
}

/**
 * One-dirty-page commit cost over a small and a large resident cache.
 * The two databases are measured in alternating batches so host
 * drift (frequency, neighbours) lands on both alike.
 */
void
runResidentScaling(bool smoke, BenchJson *json)
{
    constexpr std::uint32_t kSizes[] = {1000, 10000};
    const int batches = smoke ? 5 : 20;
    constexpr int kCommitsPerBatch = 100;

    std::vector<std::unique_ptr<ResidentDb>> dbs;
    for (std::uint32_t pages : kSizes)
        dbs.push_back(std::make_unique<ResidentDb>(pages));
    std::vector<std::vector<std::uint64_t>> samples(dbs.size());
    for (int b = 0; b < batches; ++b)
        for (std::size_t i = 0; i < dbs.size(); ++i)
            dbs[i]->measure(kCommitsPerBatch, &samples[i]);

    TablePrinter table("Commit bookkeeping vs cache size: one dirty "
                       "page per commit (host time, median)");
    table.setHeader({"resident pages", "commits", "host ns/commit"});
    std::vector<double> medians;
    for (std::size_t i = 0; i < dbs.size(); ++i) {
        medians.push_back(median(samples[i]));
        table.addRow({std::to_string(dbs[i]->residentPages),
                      std::to_string(samples[i].size()),
                      TablePrinter::num(medians.back(), 0)});

        BenchRecord rec;
        rec.name = "resident_scaling." + std::to_string(kSizes[i]);
        rec.scheme = "NVWAL LS";
        rec.params["resident_pages"] = dbs[i]->residentPages;
        rec.params["commits"] = samples[i].size();
        rec.params["dirty_pages_per_commit"] = 1;
        rec.values["host_ns_per_commit"] = medians.back();
        json->add(std::move(rec));
    }
    table.print();
    const double ratio = medians.back() / medians.front();
    std::printf("\nhost cost ratio, %u -> %u resident pages: %.2fx "
                "(flat when commit walks only the dirty pages)\n",
                kSizes[0], kSizes[1], ratio);

    BenchRecord flat;
    flat.name = "flatness";
    flat.values["host_ns_ratio"] = ratio;
    json->add(std::move(flat));
}

/** Host ns per hit over one batch of @p hits lookups on @p p. */
double
batchNsPerHit(HitPager &p, int hits)
{
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < hits; ++i) {
        CachedPage *page;
        NVWAL_CHECK_OK(p.pager.getPage(p.next(), &page));
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return static_cast<double>(ns) / hits;
}

/**
 * Page-hit cost with and without the metrics registry, in
 * alternating batches so host drift lands on both alike.
 */
void
runMetricsOverhead(bool smoke, BenchJson *json)
{
    const int batches = smoke ? 5 : 41;
    constexpr int kHitsPerBatch = 100000;

    Env env;
    HitPager attached(env, "hit_attached.db", &env.stats);
    HitPager detached(env, "hit_detached.db", nullptr);
    const StatsSnapshot before = env.stats.snapshot();
    std::vector<double> with_ns, without_ns;
    for (int b = 0; b < batches; ++b) {
        with_ns.push_back(batchNsPerHit(attached, kHitsPerBatch));
        without_ns.push_back(batchNsPerHit(detached, kHitsPerBatch));
    }
    const StatsSnapshot delta =
        MetricsRegistry::delta(before, env.stats.snapshot());
    const auto median_of = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double with_median = median_of(with_ns);
    const double without_median = median_of(without_ns);
    const double ratio = with_median / without_median;

    TablePrinter table("Metrics registry cost on a page-cache hit "
                       "(host time, median of alternating batches)");
    table.setHeader({"registry", "hits", "host ns/hit"});
    table.addRow({"attached",
                  std::to_string(static_cast<std::uint64_t>(batches) *
                                 kHitsPerBatch),
                  TablePrinter::num(with_median, 2)});
    table.addRow({"detached",
                  std::to_string(static_cast<std::uint64_t>(batches) *
                                 kHitsPerBatch),
                  TablePrinter::num(without_median, 2)});
    table.print();
    std::printf("\nregistry overhead ratio: %.2fx (one relaxed atomic "
                "add per hit)\n",
                ratio);

    for (const bool with_registry : {true, false}) {
        BenchRecord rec;
        rec.name = with_registry ? "pager_hit.attached"
                                 : "pager_hit.detached";
        rec.params["resident_pages"] = attached.pager.pageCount();
        rec.params["hits"] =
            static_cast<std::uint64_t>(batches) * kHitsPerBatch;
        rec.values["host_ns_per_hit"] =
            with_registry ? with_median : without_median;
        if (with_registry)
            rec.counters = delta;
        json->add(std::move(rec));
    }
    BenchRecord overhead;
    overhead.name = "metrics_overhead";
    overhead.values["host_ns_ratio"] = ratio;
    json->add(std::move(overhead));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_commit_latency", args);
    const int txns = args.smoke ? 200 : 4000;

    TablePrinter table("Commit latency, NVWAL UH+LS+Diff, Nexus 5 @ "
                       "2us, insert txns, checkpoint threshold "
                       "1000 frames");
    table.setHeader({"checkpointing", "txns/sec", "p50 (us)", "p95 (us)",
                     "p99 (us)", "max (us)"});
    for (bool incremental : {false, true}) {
        const LatencyProfile p = run(incremental, txns);
        table.addRow({incremental ? "incremental (4 pages/commit)"
                                  : "full (blocking)",
                      TablePrinter::num(p.txnsPerSec, 0),
                      TablePrinter::num(p.p50Us, 1),
                      TablePrinter::num(p.p95Us, 1),
                      TablePrinter::num(p.p99Us, 1),
                      TablePrinter::num(p.maxUs, 1)});

        BenchRecord rec;
        rec.name = incremental ? "checkpoint.incremental"
                               : "checkpoint.full";
        rec.scheme = "NVWAL LS";
        rec.params["txns"] = static_cast<std::uint64_t>(txns);
        rec.params["checkpoint_threshold"] = 1000;
        rec.params["incremental"] = incremental ? 1 : 0;
        rec.txnsPerSec = p.txnsPerSec;
        rec.latencyNs = p.latencyNs;
        rec.counters = p.delta;
        json.add(std::move(rec));
    }
    table.print();
    std::printf("\nthe full checkpoint hits one commit with the whole "
                "write-back + fsync bill; incremental steps bound the "
                "worst commit at a small throughput cost.\n\n");
    runResidentScaling(args.smoke, &json);
    std::printf("\n");
    runMetricsOverhead(args.smoke, &json);
    json.write();
    return 0;
}
