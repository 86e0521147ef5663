/**
 * @file
 * Tests for the observability subsystem (src/obs): histogram bucket
 * geometry and percentile accuracy against an exact sorted reference,
 * tracer ring-buffer wraparound and gating, Chrome trace_event
 * export parsed back by the repo's own strict JSON parser, the
 * counter-delta missing-key semantics, metrics JSON round-trips, and
 * the no-perturbation guarantee: a crash-point sweep with tracing
 * enabled recovers exactly what the untraced sweep recovers. The
 * registry's slot path is model-checked against a plain std::map and
 * summed across threads.
 */

#include <algorithm>
#include <atomic>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/connection.hpp"
#include "faultsim/crash_sweep.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"

namespace nvwal
{
namespace
{

// ---- histogram -----------------------------------------------------

TEST(Histogram, BucketBoundariesRoundTrip)
{
    // Exact representation below 2 * kSubBuckets.
    for (std::uint64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
        const std::size_t idx = Histogram::bucketIndexOf(v);
        EXPECT_EQ(idx, v);
        EXPECT_EQ(Histogram::bucketLowerBound(idx), v);
        EXPECT_EQ(Histogram::bucketUpperBound(idx), v);
    }
    // Every value lands inside its bucket's [lo, hi] and the bucket
    // width bounds the relative quantization error.
    for (std::uint64_t v : std::vector<std::uint64_t>{
             64, 65, 100, 127, 128, 1000, 4095, 4096, 123456789,
             (1ull << 40) + 12345, ~0ull}) {
        const std::size_t idx = Histogram::bucketIndexOf(v);
        const std::uint64_t lo = Histogram::bucketLowerBound(idx);
        const std::uint64_t hi = Histogram::bucketUpperBound(idx);
        EXPECT_LE(lo, v);
        EXPECT_GE(hi, v);
        EXPECT_EQ(Histogram::bucketIndexOf(lo), idx);
        EXPECT_EQ(Histogram::bucketIndexOf(hi), idx);
        EXPECT_LE(hi - lo, lo / Histogram::kSubBuckets);
    }
    // Bucket boundaries tile the value range with no gaps.
    for (std::size_t idx = 0; idx < 500; ++idx) {
        EXPECT_EQ(Histogram::bucketUpperBound(idx) + 1,
                  Histogram::bucketLowerBound(idx + 1));
    }
}

TEST(Histogram, PercentilesTrackSortedReference)
{
    Histogram hist;
    std::vector<std::uint64_t> exact;
    std::uint64_t x = 88172645463325252ull;  // xorshift64 state
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 1000000;  // ns-scale latencies
        hist.record(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    ASSERT_EQ(hist.count(), exact.size());
    EXPECT_EQ(hist.min(), exact.front());
    EXPECT_EQ(hist.max(), exact.back());
    for (double q : {0.0, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
        const std::uint64_t ref =
            exact[std::min(exact.size() - 1,
                           static_cast<std::size_t>(
                               q * static_cast<double>(exact.size())))];
        const std::uint64_t got = hist.percentile(q);
        // The histogram answers the bucket midpoint, so the error is
        // bounded by one bucket width: ~1/32 relative (kSubBucketBits).
        const std::uint64_t tol = ref / 16 + 1;
        EXPECT_NEAR(static_cast<double>(got), static_cast<double>(ref),
                    static_cast<double>(tol))
            << "q=" << q;
    }
}

TEST(Histogram, SingleValueQuantilesAreExact)
{
    Histogram hist;
    hist.record(777777, 100);
    EXPECT_EQ(hist.p50(), 777777u);
    EXPECT_EQ(hist.p99(), 777777u);
    EXPECT_EQ(hist.percentile(0.0), 777777u);
    EXPECT_EQ(hist.percentile(1.0), 777777u);
}

TEST(Histogram, MergeEqualsCombinedRecording)
{
    Histogram a, b, combined;
    for (std::uint64_t v = 1; v < 3000; v += 7) {
        a.record(v);
        combined.record(v);
    }
    for (std::uint64_t v = 500000; v < 900000; v += 1117) {
        b.record(v);
        combined.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum(), combined.sum());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    EXPECT_EQ(a.p50(), combined.p50());
    EXPECT_EQ(a.p99(), combined.p99());
    const auto ba = a.buckets();
    const auto bc = combined.buckets();
    ASSERT_EQ(ba.size(), bc.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        EXPECT_EQ(ba[i].lo, bc[i].lo);
        EXPECT_EQ(ba[i].count, bc[i].count);
    }
}

TEST(Histogram, EmptyAndCleared)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.p50(), 0u);
    hist.record(42);
    hist.clear();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.p99(), 0u);
    hist.record(7);  // stays usable after clear
    EXPECT_EQ(hist.p50(), 7u);
}

// ---- registry ------------------------------------------------------

TEST(Metrics, DeltaHandlesKeysMissingFromEitherSide)
{
    // Key present only in `before` (registry cleared in between):
    // the delta is an explicit 0, never an underflowed wrap.
    StatsSnapshot before{{"gone", 10}, {"shrunk", 10}, {"grew", 3}};
    StatsSnapshot now{{"shrunk", 4}, {"grew", 8}, {"fresh", 5}};
    const StatsSnapshot d = MetricsRegistry::delta(before, now);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d.at("gone"), 0u);    // only in before
    EXPECT_EQ(d.at("shrunk"), 0u);  // went backwards: clamped
    EXPECT_EQ(d.at("grew"), 5u);
    EXPECT_EQ(d.at("fresh"), 5u);   // only in now: full value
}

TEST(Metrics, HistogramReferencesSurviveClear)
{
    MetricsRegistry metrics;
    Histogram &h = metrics.histogram("x");
    h.record(100);
    metrics.clear();
    EXPECT_EQ(h.count(), 0u);  // reset in place, reference intact
    h.record(5);
    EXPECT_EQ(metrics.findHistogram("x")->count(), 1u);
}

TEST(Metrics, JsonDumpParsesBack)
{
    MetricsRegistry metrics;
    metrics.add("txns", 12);
    metrics.setGauge("pages", 34);
    metrics.recordNs("lat", 1000);
    metrics.recordNs("lat", 3000);

    JsonValue doc;
    NVWAL_CHECK_OK(parseJson(metricsJson(metrics), &doc));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("counters")->find("txns")->number, 12.0);
    EXPECT_EQ(doc.find("gauges")->find("pages")->number, 34.0);
    const JsonValue *lat = doc.find("histograms")->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->number, 2.0);
    EXPECT_EQ(lat->find("sum")->number, 4000.0);
    EXPECT_EQ(lat->find("min")->number, 1000.0);
    EXPECT_EQ(lat->find("max")->number, 3000.0);
    ASSERT_TRUE(lat->find("buckets")->isArray());
    EXPECT_EQ(lat->find("buckets")->array.size(), 2u);
}

/**
 * The registry as a plain std::map model: what the parent map-only
 * registry held after the same operations. Histograms are modeled by
 * key, count and sum.
 */
struct MetricsOracle
{
    struct Hist
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
    };

    StatsSnapshot counters;
    std::map<std::string, std::uint64_t> gauges;
    std::map<std::string, Hist> hists;

    void
    clear()
    {
        counters.clear();
        gauges.clear();
        for (auto &[name, hist] : hists)
            hist = Hist{};
    }
};

/** delta() spelled out independently of MetricsRegistry::delta. */
StatsSnapshot
oracleDelta(const StatsSnapshot &before, const StatsSnapshot &now)
{
    StatsSnapshot d;
    for (const auto &[name, value] : before)
        d[name] = 0;
    for (const auto &[name, value] : now) {
        const std::uint64_t base =
            before.count(name) ? before.at(name) : 0;
        d[name] = value > base ? value - base : 0;
    }
    return d;
}

void
expectRegistryMatches(const MetricsRegistry &metrics,
                      const MetricsOracle &oracle, int op)
{
    SCOPED_TRACE("after op " + std::to_string(op));
    ASSERT_EQ(metrics.snapshot(), oracle.counters);
    ASSERT_EQ(metrics.gaugesSnapshot(), oracle.gauges);
    for (const MetricName name : stats::kAllMetrics) {
        const std::string s = name.c_str();
        const std::uint64_t want =
            oracle.counters.count(s) ? oracle.counters.at(s) : 0;
        ASSERT_EQ(metrics.get(name), want) << s;
        ASSERT_EQ(metrics.get(s), want) << s;
        const std::uint64_t gauge =
            oracle.gauges.count(s) ? oracle.gauges.at(s) : 0;
        ASSERT_EQ(metrics.gauge(name), gauge) << s;
        ASSERT_EQ(metrics.gauge(s), gauge) << s;
        ASSERT_EQ(metrics.findHistogram(s) != nullptr,
                  oracle.hists.count(s) == 1)
            << s;
    }
    const auto hists = metrics.histogramsSnapshot();
    ASSERT_EQ(hists.size(), oracle.hists.size());
    for (const auto &[name, want] : oracle.hists) {
        ASSERT_TRUE(hists.count(name)) << name;
        ASSERT_EQ(hists.at(name).count(), want.count) << name;
        ASSERT_EQ(hists.at(name).sum(), want.sum) << name;
    }

    JsonValue doc;
    ASSERT_TRUE(parseJson(metricsJson(metrics), &doc).isOk());
    const JsonValue *counters = doc.find("counters");
    ASSERT_EQ(counters->object.size(), oracle.counters.size());
    for (const auto &[name, value] : oracle.counters)
        ASSERT_EQ(counters->find(name)->number,
                  static_cast<double>(value))
            << name;
    const JsonValue *gauges = doc.find("gauges");
    ASSERT_EQ(gauges->object.size(), oracle.gauges.size());
    for (const auto &[name, value] : oracle.gauges)
        ASSERT_EQ(gauges->find(name)->number, static_cast<double>(value))
            << name;
    std::size_t recorded = 0;
    for (const auto &[name, want] : oracle.hists) {
        const JsonValue *h = doc.find("histograms")->find(name);
        if (want.count == 0) {
            ASSERT_EQ(h, nullptr) << name;
            continue;
        }
        ++recorded;
        ASSERT_NE(h, nullptr) << name;
        ASSERT_EQ(h->find("count")->number, static_cast<double>(want.count));
        ASSERT_EQ(h->find("sum")->number, static_cast<double>(want.sum));
    }
    ASSERT_EQ(doc.find("histograms")->object.size(), recorded);
}

TEST(Metrics, InternedAndNamedCountersMatchAMapOracle)
{
    // Seeded random mix of every way a name reaches the registry:
    // interned slots, canonical names spelled as strings, ad-hoc
    // names, zero deltas (which must still create the key), gauges,
    // histograms, clear() and delta(). After every operation each
    // export must equal the map model.
    const std::string adhoc[] = {"adhoc.alpha", "adhoc.beta", "x"};
    Rng rng(0x5107);
    MetricsRegistry metrics;
    MetricsOracle oracle;
    StatsSnapshot before = metrics.snapshot();
    StatsSnapshot oracle_before = oracle.counters;

    const auto pick_name = [&](bool *interned) -> std::string {
        const std::uint64_t r = rng.nextBelow(10);
        *interned = r < 6;
        if (r < 8)
            return stats::kAllMetrics[rng.nextBelow(stats::kMetricCount)]
                .c_str();
        return adhoc[rng.nextBelow(std::size(adhoc))];
    };
    const auto interned_of = [](const std::string &s) {
        for (const MetricName name : stats::kAllMetrics)
            if (s == name)
                return name;
        ADD_FAILURE() << s << " is not canonical";
        return stats::kAllMetrics[0];
    };

    for (int op = 0; op < 3000; ++op) {
        bool interned = false;
        const std::string name = pick_name(&interned);
        const std::uint64_t value =
            rng.nextBelow(4) == 0 ? 0 : rng.nextBelow(1000);
        switch (rng.nextBelow(20)) {
          case 0:
            metrics.clear();
            oracle.clear();
            break;
          case 1:
          case 2: {
            const StatsSnapshot now = metrics.snapshot();
            ASSERT_EQ(MetricsRegistry::delta(before, now),
                      oracleDelta(oracle_before, oracle.counters));
            before = now;
            oracle_before = oracle.counters;
            break;
          }
          case 3:
          case 4:
            if (interned)
                metrics.setGauge(interned_of(name), value);
            else
                metrics.setGauge(name, value);
            oracle.gauges[name] = value;
            break;
          case 5:
          case 6:
            if (interned)
                metrics.recordNs(interned_of(name), value);
            else
                metrics.recordNs(name, value);
            ++oracle.hists[name].count;
            oracle.hists[name].sum += value;
            break;
          case 7:
            if (interned)
                metrics.histogram(interned_of(name));
            else
                metrics.histogram(name);
            oracle.hists[name];
            break;
          default:
            if (interned)
                metrics.add(interned_of(name), value);
            else
                metrics.add(name, value);
            oracle.counters[name] += value;
            break;
        }
        expectRegistryMatches(metrics, oracle, op);
        if (HasFatalFailure())
            return;
    }
}

TEST(MetricsConcurrency, InternedAddsFromThreadsSumExactly)
{
    // Four threads add to the same slots (and set one gauge) while a
    // fifth exports; the writers start once the first export is done. Every export must see counters that never go
    // backwards, and the final sums must be exact: relaxed slot adds
    // lose nothing.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kAdds = 20000;
    MetricsRegistry metrics;
    std::atomic<int> running{kThreads};
    std::atomic<bool> exporting{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            while (!exporting.load())
                std::this_thread::yield();
            for (std::uint64_t i = 0; i < kAdds; ++i) {
                metrics.add(stats::kTxnsCommitted);
                metrics.add(stats::kNvramBytesLogged, t + 1);
                metrics.add(std::string(stats::kPagerCacheHits.c_str()));
                metrics.setGauge(stats::kGaugeCommitQueueDepth, t);
            }
            running.fetch_sub(1);
        });
    }
    std::uint64_t exports = 0;
    std::thread exporter([&] {
        std::uint64_t last = 0;
        do {
            const StatsSnapshot snap = metrics.snapshot();
            const auto it = snap.find(stats::kTxnsCommitted.c_str());
            const std::uint64_t now = it == snap.end() ? 0 : it->second;
            EXPECT_GE(now, last);
            last = now;
            metricsJson(metrics);
            ++exports;
            exporting.store(true);
        } while (running.load() > 0);
    });
    for (std::thread &w : writers)
        w.join();
    exporter.join();

    EXPECT_GT(exports, 0u);
    EXPECT_EQ(metrics.get(stats::kTxnsCommitted), kThreads * kAdds);
    EXPECT_EQ(metrics.get(stats::kNvramBytesLogged),
              kAdds * (kThreads * (kThreads + 1) / 2));
    EXPECT_EQ(metrics.get(stats::kPagerCacheHits), kThreads * kAdds);
    EXPECT_LT(metrics.gauge(stats::kGaugeCommitQueueDepth),
              static_cast<std::uint64_t>(kThreads));
    const StatsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.size(), 3u);
}

// ---- tracer --------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndRecordsNothing)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.instant("a", "cat");
    TraceSpan span(tracer, "b", "cat");
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracer, RingWrapsKeepingNewestEvents)
{
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.setCapacity(8);
    for (std::uint64_t i = 0; i < 20; ++i)
        tracer.instant("e", "t", "i", i);
    EXPECT_EQ(tracer.size(), 8u);
    EXPECT_EQ(tracer.recorded(), 20u);
    EXPECT_EQ(tracer.dropped(), 12u);
    const std::vector<TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].arg, 12 + i);  // oldest first
}

TEST(Tracer, TimestampsComeFromTheBoundClock)
{
    SimClock clock;
    Tracer tracer;
    tracer.bindClock(&clock);
    tracer.setEnabled(true);
    clock.advance(500);
    const SimTime begin = tracer.now();
    clock.advance(1500);
    tracer.complete("span", "t", begin);
    tracer.setCurrentTxn(7);
    tracer.instant("mark", "t");
    const std::vector<TraceEvent> events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[0].ts, 500u);
    EXPECT_EQ(events[0].dur, 1500u);
    EXPECT_EQ(events[0].txn, 0u);
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[1].ts, 2000u);
    EXPECT_EQ(events[1].txn, 7u);
}

TEST(Tracer, ChromeExportParsesBackWithPerTxnThreads)
{
    SimClock clock;
    Tracer tracer;
    tracer.bindClock(&clock);
    tracer.setEnabled(true);
    tracer.setCurrentTxn(1);
    clock.advance(1000);
    tracer.complete("wal.log_write", "wal", 0, "frames", 2);
    tracer.setCurrentTxn(2);
    tracer.instant("txn.begin", "db");

    JsonValue doc;
    NVWAL_CHECK_OK(parseJson(chromeTraceJson(tracer), &doc));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("displayTimeUnit")->string, "ns");
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    int thread_names = 0;
    const JsonValue *span = nullptr;
    const JsonValue *mark = nullptr;
    for (const JsonValue &e : events->array) {
        const std::string name = e.find("name")->string;
        if (name == "thread_name")
            ++thread_names;
        else if (name == "wal.log_write")
            span = &e;
        else if (name == "txn.begin")
            mark = &e;
    }
    EXPECT_EQ(thread_names, 2);  // one per txn id seen
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->find("ph")->string, "X");
    EXPECT_EQ(span->find("pid")->number, 1.0);
    EXPECT_EQ(span->find("tid")->number, 1.0);
    EXPECT_EQ(span->find("dur")->number, 1.0);  // 1000 ns = 1 us
    EXPECT_EQ(span->find("args")->find("frames")->number, 2.0);
    ASSERT_NE(mark, nullptr);
    EXPECT_EQ(mark->find("ph")->string, "i");
    EXPECT_EQ(mark->find("tid")->number, 2.0);
    EXPECT_EQ(doc.find("otherData")->find("droppedEvents")->number, 0.0);
}

// ---- commit spans ----------------------------------------------------

TEST(Obs, CommitSpanCoversItsWalAppendOnBothHandles)
{
    // Direct API and Connection share one commit body: its db.commit
    // span closes after durability, so the WAL events of the append
    // lie inside it and carry the committing transaction's id.
    Env env;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, DbConfig{}, &db));
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    Tracer &tracer = env.stats.tracer();
    tracer.setEnabled(true);

    for (const bool direct : {true, false}) {
        SCOPED_TRACE(direct ? "direct" : "connection");
        const RowId key = direct ? 1 : 2;
        const ByteBuffer value(64, static_cast<std::uint8_t>(key));
        tracer.clear();
        if (direct) {
            NVWAL_CHECK_OK(db->begin());
            NVWAL_CHECK_OK(db->insert(key, value));
            NVWAL_CHECK_OK(db->commit());
        } else {
            NVWAL_CHECK_OK(conn->begin());
            NVWAL_CHECK_OK(conn->insert(key, value));
            NVWAL_CHECK_OK(conn->commit());
        }
        const std::vector<TraceEvent> events = tracer.events();
        const auto commit = std::find_if(
            events.begin(), events.end(), [](const TraceEvent &e) {
                return std::string(e.name) == "db.commit";
            });
        ASSERT_NE(commit, events.end());
        EXPECT_NE(commit->txn, 0u);
        int wal_events = 0;
        for (const TraceEvent &e : events) {
            if (std::string(e.category) != "wal")
                continue;
            ++wal_events;
            EXPECT_EQ(e.txn, commit->txn) << e.name;
            EXPECT_GE(e.ts, commit->ts) << e.name;
            EXPECT_LE(e.ts + e.dur, commit->ts + commit->dur) << e.name;
        }
        EXPECT_GT(wal_events, 0);
    }
}

TEST(Obs, MultiWriterCheckpointRoundsEmitOneSpanEach)
{
    // Auto-checkpoint rounds after multi-writer commits are traced
    // like single-writer rounds: each paced step that ran -- opener,
    // slice or closer -- is one wal.checkpoint span, and each round
    // one wal.checkpoint_ns sample.
    Env env;
    DbConfig config;
    config.walMode = WalMode::Nvwal;
    config.multiWriter = true;
    config.checkpointThreshold = 4;
    std::unique_ptr<Database> db;
    NVWAL_CHECK_OK(Database::open(env, config, &db));
    std::unique_ptr<Connection> conn;
    NVWAL_CHECK_OK(db->connect(&conn));
    Tracer &tracer = env.stats.tracer();
    tracer.setEnabled(true);
    tracer.clear();

    const std::uint64_t rounds_before = env.stats.get(stats::kCheckpoints);
    for (RowId key = 1; key <= 40; ++key) {
        NVWAL_CHECK_OK(conn->begin());
        NVWAL_CHECK_OK(
            conn->insert(key, ByteBuffer(64, static_cast<std::uint8_t>(key))));
        NVWAL_CHECK_OK(conn->commit());
    }
    const std::uint64_t rounds =
        env.stats.get(stats::kCheckpoints) - rounds_before;
    EXPECT_GT(rounds, 0u);

    std::uint64_t spans = 0;
    for (const TraceEvent &e : tracer.events()) {
        if (std::string(e.name) == "wal.checkpoint") {
            EXPECT_EQ(e.phase, 'X');
            ++spans;
        }
    }
    EXPECT_GE(spans, rounds);
    EXPECT_EQ(env.stats.histogram(stats::kHistCheckpointNs).count(), rounds);
}

// ---- JSON writer/parser edge cases ---------------------------------

TEST(Json, WriterEscapesRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.member("s", "quote\" slash\\ tab\t newline\n ctrl\x01 end");
    w.member("neg", std::int64_t(-42));
    w.member("big", std::uint64_t(1) << 53);
    w.key("nan");
    w.value(0.0 / 0.0);  // non-finite emits null
    w.endObject();

    JsonValue doc;
    NVWAL_CHECK_OK(parseJson(w.str(), &doc));
    EXPECT_EQ(doc.find("s")->string,
              "quote\" slash\\ tab\t newline\n ctrl\x01 end");
    EXPECT_EQ(doc.find("neg")->number, -42.0);
    EXPECT_EQ(doc.find("big")->number, 9007199254740992.0);
    EXPECT_EQ(doc.find("nan")->type, JsonValue::Type::Null);
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    JsonValue v;
    EXPECT_FALSE(parseJson("", &v).isOk());
    EXPECT_FALSE(parseJson("{", &v).isOk());
    EXPECT_FALSE(parseJson("{\"a\":1,}", &v).isOk());  // trailing comma
    EXPECT_FALSE(parseJson("[1] x", &v).isOk());       // trailing garbage
    EXPECT_FALSE(parseJson("NaN", &v).isOk());
    EXPECT_FALSE(parseJson("'single'", &v).isOk());
    std::string deep(100, '[');
    EXPECT_FALSE(parseJson(deep, &v).isOk());  // depth cap
    NVWAL_CHECK_OK(parseJson("  {\"u\": \"\\u0041\\u00e9\"}  ", &v));
    EXPECT_EQ(v.find("u")->string, "A\xc3\xa9");
}

// ---- no-perturbation guarantee -------------------------------------

/**
 * Tentpole acceptance: tracing is pure observation. An exhaustive
 * crash-point sweep with the tracer enabled must sweep the same ops,
 * crash at the same points, and recover with zero violations, exactly
 * like the untraced sweep.
 */
TEST(Obs, CrashSweepIsUnperturbedByTracing)
{
    faultsim::SweepReport reports[2];
    for (int traced = 0; traced < 2; ++traced) {
        faultsim::SweepConfig config;
        config.env.cost = CostModel::tuna(500);
        config.env.nvramBytes = 8 << 20;
        config.env.flashBlocks = 2048;
        config.db.walMode = WalMode::Nvwal;
        config.db.nvwal.nvBlockSize = 4096;
        config.warmup = faultsim::Workload::standardTxns(0, 1);
        config.workload = faultsim::Workload::standardTxns(1, 2);
        config.policies.push_back(faultsim::PolicyRun{});
        config.trace = traced == 1;
        NVWAL_CHECK_OK(
            faultsim::CrashSweep(config).run(&reports[traced]));
    }
    EXPECT_TRUE(reports[0].ok()) << reports[0].summary();
    EXPECT_TRUE(reports[1].ok()) << reports[1].summary();
    EXPECT_EQ(reports[0].totalOps, reports[1].totalOps);
    EXPECT_EQ(reports[0].commitEvents, reports[1].commitEvents);
    EXPECT_EQ(reports[0].pointsSwept, reports[1].pointsSwept);
    EXPECT_EQ(reports[0].replays, reports[1].replays);
    EXPECT_EQ(reports[0].crashes, reports[1].crashes);
}

} // namespace
} // namespace nvwal
