/**
 * @file
 * Commit-latency distribution. The paper amortizes the sporadic
 * checkpoint cost over 1000 transactions ("checkpointing affects the
 * performance of only one out of hundreds of transactions",
 * section 5.3) -- this bench shows that spike (`checkpoint.full`, the
 * blocking round run by hand at the threshold) and how the paced
 * round takes it off the commit path (`checkpoint.paced`, the
 * default auto-checkpoint, DESIGN.md §8.4): the flash device
 * programs the write-back on its own timeline. Both records carry
 * the worst commit (`max_commit_sim_ns`), pages per round and flash
 * blocks per transaction; the paced one also the ratio of its flash
 * blocks to the blocking round's (`flash_blocks_vs_full`), gated by
 * bench/baselines/checkpoint_bounds.json.
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
 * And the blocking checkpoint round's cost per written-back page:
 * host ns and heap allocations per page (`checkpoint_round`,
 * `host_ns_per_page`, `allocs_per_page`), the allocations gated by
 * bench/baselines/checkpoint_bounds.json. Frame-index nodes come from
 * a per-log pool and pages go straight into the file system's flat
 * page cache, so a round makes no allocation per page (DESIGN.md
 * §20). The binary links tests/support/alloc_counter.cpp, which
 * counts every operator new.
 *
 * `--json <path>` exports the per-configuration percentiles and
 * counter deltas; `--smoke` shrinks the run for CI validation.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "alloc_counter.hpp"
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

constexpr std::uint64_t kCheckpointThreshold = 1000;  // SQLite default

/**
 * @p txns one-row insert transactions. @p paced leaves checkpoints to
 * the paced auto-checkpoint; otherwise a transaction that leaves the
 * log at the threshold runs the blocking round, as the paper does.
 */
LatencyProfile
run(bool paced, int txns)
{
    EnvConfig env_config;
    env_config.cost = CostModel::nexus5(2000);
    env_config.nvramBytes = 128ull << 20;
    Env env(env_config);
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.checkpointThreshold = kCheckpointThreshold;
    config.autoCheckpoint = paced;
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
        if (!paced &&
            db->walPageWritesSinceCheckpoint() >= kCheckpointThreshold)
            NVWAL_CHECK_OK(db->checkpoint());
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

/**
 * Blocking checkpoint rounds over a 20,000-row table after 300
 * transactions of 1-8 random row updates each: host ns and heap
 * allocations per written-back page. One unmeasured round first, so
 * every pool and buffer has grown.
 */
void
runCheckpointRound(bool smoke, BenchJson *json)
{
    constexpr RowId kRows = 20000;
    constexpr int kTxnsPerRound = 300;
    const int rounds = smoke ? 2 : 10;

    Env env(ResidentDb::makeEnvConfig());
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.autoCheckpoint = false;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    ByteBuffer value(100, 0x5a);
    for (RowId lo = 0; lo < kRows; lo += 1000) {
        NVWAL_CHECK_OK(db->begin());
        for (RowId k = lo; k < lo + 1000; ++k)
            NVWAL_CHECK_OK(db->insert(k, value));
        NVWAL_CHECK_OK(db->commit());
    }
    NVWAL_CHECK_OK(db->checkpoint());

    Rng rng(25);
    std::vector<double> ns_per_page;
    std::uint64_t pages = 0;
    std::uint64_t allocs = 0;
    const StatsSnapshot before = env.stats.snapshot();
    for (int round = 0; round <= rounds; ++round) {
        for (int t = 0; t < kTxnsPerRound; ++t) {
            NVWAL_CHECK_OK(db->begin());
            const std::uint64_t statements = 1 + rng.nextBelow(8);
            for (std::uint64_t s = 0; s < statements; ++s) {
                value[0] = static_cast<std::uint8_t>(rng.next());
                NVWAL_CHECK_OK(db->update(
                    static_cast<RowId>(rng.nextBelow(kRows)), value));
            }
            NVWAL_CHECK_OK(db->commit());
        }
        const std::uint64_t pages_before =
            db->statValue(stats::kWalCkptPagesWritten);
        const std::uint64_t allocs_before = alloccount::allocations();
        const auto start = std::chrono::steady_clock::now();
        NVWAL_CHECK_OK(db->checkpoint());
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        const std::uint64_t round_allocs =
            alloccount::allocations() - allocs_before;
        const std::uint64_t round_pages =
            db->statValue(stats::kWalCkptPagesWritten) - pages_before;
        if (round == 0)
            continue;  // warm-up
        pages += round_pages;
        allocs += round_allocs;
        ns_per_page.push_back(static_cast<double>(ns) /
                              static_cast<double>(round_pages));
    }
    std::sort(ns_per_page.begin(), ns_per_page.end());
    const double host_ns = ns_per_page[ns_per_page.size() / 2];
    const double allocs_per_page =
        static_cast<double>(allocs) / static_cast<double>(pages);

    TablePrinter table("Blocking checkpoint round, per written-back page "
                       "(host time median; allocations over all rounds)");
    table.setHeader({"rounds", "pages/round", "host ns/page",
                     "allocs/page"});
    table.addRow({std::to_string(rounds),
                  TablePrinter::num(static_cast<double>(pages) / rounds, 1),
                  TablePrinter::num(host_ns, 0),
                  TablePrinter::num(allocs_per_page, 3)});
    table.print();

    BenchRecord rec;
    rec.name = "checkpoint_round";
    rec.scheme = "NVWAL LS";
    rec.params["rounds"] = static_cast<std::uint64_t>(rounds);
    rec.params["txns_per_round"] = kTxnsPerRound;
    rec.params["pages"] = pages;
    rec.values["host_ns_per_page"] = host_ns;
    rec.values["allocs_per_page"] = allocs_per_page;
    rec.counters = MetricsRegistry::delta(before, env.stats.snapshot());
    json->add(std::move(rec));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = parseBenchArgs(argc, argv);
    BenchJson json("bench_commit_latency", args);
    // Enough one-row inserts for at least two rounds at the threshold.
    const int txns = args.smoke ? 2500 : 4000;

    TablePrinter table("Commit latency, NVWAL UH+LS+Diff, Nexus 5 @ "
                       "2us, insert txns, checkpoint threshold "
                       "1000 page writes");
    table.setHeader({"checkpointing", "txns/sec", "p50 (us)", "p95 (us)",
                     "p99 (us)", "max (us)", "pages/round",
                     "flash blocks/txn"});
    double full_blocks_per_txn = 0.0;
    for (const bool paced : {false, true}) {
        const LatencyProfile p = run(paced, txns);
        const auto counter = [&](const char *name) {
            const auto it = p.delta.find(name);
            return it == p.delta.end() ? 0.0
                                       : static_cast<double>(it->second);
        };
        const double rounds = counter(stats::kCheckpoints);
        const double pages_per_round =
            rounds == 0 ? 0.0 : counter(stats::kWalCkptPagesWritten) / rounds;
        const double blocks_per_txn =
            counter(stats::kBlocksWritten) / static_cast<double>(txns);
        if (!paced)
            full_blocks_per_txn = blocks_per_txn;
        table.addRow({paced ? "paced (default)" : "full (blocking)",
                      TablePrinter::num(p.txnsPerSec, 0),
                      TablePrinter::num(p.p50Us, 1),
                      TablePrinter::num(p.p95Us, 1),
                      TablePrinter::num(p.p99Us, 1),
                      TablePrinter::num(p.maxUs, 1),
                      TablePrinter::num(pages_per_round, 1),
                      TablePrinter::num(blocks_per_txn, 3)});

        BenchRecord rec;
        rec.name = paced ? "checkpoint.paced" : "checkpoint.full";
        rec.scheme = "NVWAL LS";
        rec.params["txns"] = static_cast<std::uint64_t>(txns);
        rec.params["checkpoint_threshold"] = kCheckpointThreshold;
        rec.txnsPerSec = p.txnsPerSec;
        rec.latencyNs = p.latencyNs;
        rec.values["max_commit_sim_ns"] = p.maxUs * 1000.0;
        rec.values["pages_per_round"] = pages_per_round;
        rec.values["flash_blocks_per_txn"] = blocks_per_txn;
        if (paced) {
            rec.values["flash_blocks_vs_full"] =
                full_blocks_per_txn == 0.0
                    ? 0.0
                    : blocks_per_txn / full_blocks_per_txn;
        }
        rec.counters = p.delta;
        json.add(std::move(rec));
    }
    table.print();
    std::printf("\nthe full checkpoint hits one commit with the whole "
                "write-back + fsync bill; the paced round leaves the "
                "programs to the device and bounds the worst commit.\n\n");
    runResidentScaling(args.smoke, &json);
    std::printf("\n");
    runMetricsOverhead(args.smoke, &json);
    std::printf("\n");
    runCheckpointRound(args.smoke, &json);
    json.write();
    return 0;
}
