/**
 * @file
 * MetricsRegistry: counters + histograms + gauges + the event tracer.
 *
 * This absorbs the original PR-2 stats registry (named monotonic
 * counters, snapshot/delta) and extends it with log-bucketed latency
 * histograms (Histogram), point-in-time gauges, and an owned
 * per-transaction Tracer. Every component takes a `MetricsRegistry&`
 * directly; the canonical names live in `src/sim/stats.hpp`.
 *
 * Metric slots: every canonical name (a stats::kX MetricName) owns a
 * dense slot, so recording under one is array indexing. A counter add
 * is one relaxed atomic add, a gauge set one relaxed store, and a
 * histogram lookup returns the slot's own Histogram. No string, map
 * or registry mutex is on any engine path. Names given as strings
 * (tests, shell commands) resolve to the same slot when canonical;
 * any other string is an ad-hoc metric kept in a mutex-guarded map.
 * The exported views (snapshot(), gaugesSnapshot(),
 * histogramsSnapshot(), metricsJson()) merge both, and list a
 * canonical counter or gauge only once it has been recorded (an
 * add of 0 counts), exactly as a map created on first use would.
 *
 * Thread-safety: every operation may run on any thread at any time.
 * Databases sharing one Env record into its platform registry
 * (Env::stats) from their own threads, and a database's group-commit
 * leader, background checkpointer, snapshot readers and optimistic
 * writers record concurrently. Slot counters and gauges are relaxed
 * atomics, Histogram objects are internally synchronized, and the
 * ad-hoc maps sit behind the registry mutex. Export paths copy by
 * value, so exporting is safe while other threads record — there is
 * no quiescence requirement anywhere in the export API. Each counter
 * in a snapshot is read atomically, but a snapshot taken while
 * another thread records is not a cut across counters: one
 * transaction's increments may be half in it.
 *
 * Reference stability contract: `histogram(name)` returns a reference
 * that stays valid for the registry's lifetime — components cache it
 * at construction for hot paths. `clear()` therefore resets histogram
 * objects in place instead of erasing them.
 */

#ifndef NVWAL_OBS_METRICS_HPP
#define NVWAL_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace nvwal
{

/** Snapshot of all counters at a point in time. */
using StatsSnapshot = std::map<std::string, std::uint64_t>;

/**
 * A canonical metric name: its dotted string plus its registry slot.
 * Only the list in src/sim/stats.hpp mints these (as stats::kX). It
 * converts to `const char *`, and compares equal to a std::string
 * holding the same text.
 */
class MetricName
{
  public:
    constexpr MetricName(const char *name, std::uint32_t slot)
        : _name(name), _slot(slot)
    {
    }

    constexpr const char *c_str() const { return _name; }
    constexpr std::uint32_t slot() const { return _slot; }
    constexpr operator const char *() const { return _name; }

    friend bool
    operator==(const std::string &lhs, MetricName rhs)
    {
        return lhs == rhs._name;
    }

  private:
    const char *_name;
    std::uint32_t _slot;
};

/** Counters, histograms, gauges, and the transaction tracer. */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    // ---- counters ------------------------------------------------

    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(MetricName name, std::uint64_t delta = 1)
    {
        Slot &s = _slots[name.slot()];
        if (delta != 0)
            s.counter.fetch_add(delta, std::memory_order_relaxed);
        else if (!s.counterUsed.load(std::memory_order_relaxed))
            s.counterUsed.store(true, std::memory_order_relaxed);
    }

    /** By-string add: canonical names land in their slot. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Current value of @p name (zero if never touched). */
    std::uint64_t
    get(MetricName name) const
    {
        return _slots[name.slot()].counter.load(std::memory_order_relaxed);
    }

    std::uint64_t get(const std::string &name) const;

    /**
     * Copy of every counter. When the tracer ring has wrapped the
     * result also carries the derived counter
     * stats::kTraceEventsDropped, so ring overflow is visible in every
     * metrics export without a tracer query. The key is omitted while
     * zero to keep exact-counter expectations in existing tests and
     * deltas untouched.
     */
    StatsSnapshot snapshot() const;

    /**
     * Per-counter difference @p now - @p before. Keys present on only
     * one side are handled explicitly: a counter absent from @p now
     * (registry cleared in between) yields 0, never an underflowed
     * wrap; a counter absent from @p before contributes its full
     * @p now value. Every key from either snapshot appears in the
     * result.
     */
    static StatsSnapshot
    delta(const StatsSnapshot &before, const StatsSnapshot &now)
    {
        StatsSnapshot d;
        for (const auto &[name, value] : now) {
            auto it = before.find(name);
            const std::uint64_t base =
                it == before.end() ? 0 : it->second;
            d[name] = value >= base ? value - base : 0;
        }
        for (const auto &[name, value] : before) {
            if (now.find(name) == now.end())
                d[name] = 0;
        }
        return d;
    }

    // ---- histograms ------------------------------------------------

    /**
     * Histogram named @p name, created empty on first use. The
     * returned reference stays valid for the registry's lifetime.
     */
    Histogram &
    histogram(MetricName name)
    {
        Slot &s = _slots[name.slot()];
        if (!s.histogramUsed.load(std::memory_order_relaxed))
            s.histogramUsed.store(true, std::memory_order_relaxed);
        return s.histogram;
    }

    Histogram &histogram(const std::string &name);

    /** Existing histogram or nullptr (read-side lookup). */
    const Histogram *findHistogram(const std::string &name) const;

    /** One-shot sample into histogram @p name. */
    void
    recordNs(MetricName name, std::uint64_t ns)
    {
        histogram(name).record(ns);
    }

    void
    recordNs(const std::string &name, std::uint64_t ns)
    {
        histogram(name).record(ns);
    }

    /**
     * Copy of every histogram created so far (each Histogram's copy
     * constructor locks that histogram), so exporting is safe
     * mid-recording.
     */
    std::map<std::string, Histogram> histogramsSnapshot() const;

    // ---- gauges ----------------------------------------------------

    /** Set gauge @p name to @p value (last-write-wins, not a sum). */
    void
    setGauge(MetricName name, std::uint64_t value)
    {
        Slot &s = _slots[name.slot()];
        s.gauge.store(value, std::memory_order_relaxed);
        if (!s.gaugeUsed.load(std::memory_order_relaxed))
            s.gaugeUsed.store(true, std::memory_order_relaxed);
    }

    void setGauge(const std::string &name, std::uint64_t value);

    std::uint64_t
    gauge(MetricName name) const
    {
        return _slots[name.slot()].gauge.load(std::memory_order_relaxed);
    }

    std::uint64_t gauge(const std::string &name) const;

    /** Copy of every gauge set so far. */
    std::map<std::string, std::uint64_t> gaugesSnapshot() const;

    // ---- tracer ----------------------------------------------------

    Tracer &tracer() { return _tracer; }
    const Tracer &tracer() const { return _tracer; }

    /**
     * Reset counters and gauges, and empty every histogram in place
     * (histogram references handed out earlier remain valid). The
     * tracer is left alone; clear it explicitly via tracer().clear().
     */
    void clear();

  private:
    /**
     * One canonical name's storage. The used flags record that the
     * name was used, so exports list exactly the names a map created
     * on first use would hold: a counter appears once added to (even
     * by 0), a gauge once set, a histogram once looked up.
     */
    struct Slot
    {
        std::atomic<std::uint64_t> counter{0};
        std::atomic<std::uint64_t> gauge{0};
        std::atomic<bool> counterUsed{false};
        std::atomic<bool> gaugeUsed{false};
        std::atomic<bool> histogramUsed{false};
        Histogram histogram;
    };

    /** One Slot per canonical name, indexed by MetricName::slot(). */
    std::unique_ptr<Slot[]> _slots;

    /** Guards the ad-hoc (non-canonical) maps below. */
    mutable std::mutex _mu;
    StatsSnapshot _counters;
    std::map<std::string, Histogram> _histograms;
    std::map<std::string, std::uint64_t> _gauges;
    Tracer _tracer;
};

/**
 * Scoped timer: records the sim-time spent in its scope into a
 * histogram (and optionally mirrors it as a trace span). The clock is
 * read through the registry's tracer binding, so components need no
 * extra clock reference.
 */
class ScopedHistTimer
{
  public:
    ScopedHistTimer(MetricsRegistry &metrics, Histogram &hist)
        : _metrics(metrics), _hist(hist),
          _start(metrics.tracer().now())
    {
    }

    ~ScopedHistTimer()
    {
        const std::uint64_t end = _metrics.tracer().now();
        _hist.record(end >= _start ? end - _start : 0);
    }

    ScopedHistTimer(const ScopedHistTimer &) = delete;
    ScopedHistTimer &operator=(const ScopedHistTimer &) = delete;

  private:
    MetricsRegistry &_metrics;
    Histogram &_hist;
    std::uint64_t _start;
};

/**
 * Full registry dump as a JSON document:
 * {"counters": {...}, "gauges": {...},
 *  "histograms": {name: {count,sum,min,max,mean,p50,p95,p99,
 *                        buckets:[{lo,hi,count},...]}}}
 * Keys are emitted in sorted order (std::map), so output is stable.
 */
std::string metricsJson(const MetricsRegistry &metrics);

} // namespace nvwal

#endif // NVWAL_OBS_METRICS_HPP
