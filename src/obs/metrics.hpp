/**
 * @file
 * MetricsRegistry: counters + histograms + gauges + the event tracer.
 *
 * This absorbs the original PR-2 stats registry (named monotonic
 * counters, snapshot/delta) and extends it with log-bucketed latency
 * histograms (Histogram), point-in-time gauges, and an owned
 * per-transaction Tracer. Every component takes a `MetricsRegistry&`
 * directly; the canonical counter names live in `src/sim/stats.hpp`.
 *
 * Thread-safety: the registry's map structure is mutex-guarded and
 * Histogram objects are internally synchronized, because databases
 * sharing one Env share its platform registry (Env::stats) under
 * independent engine locks. Per-database registries still
 * see every mutation under that database's engine lock, so the mutex
 * is uncontended there. Export paths read through the by-value
 * snapshot accessors (snapshot(), histogramsSnapshot(),
 * gaugesSnapshot()), which copy under the registry mutex and are
 * therefore safe while background threads are actively recording —
 * there is no quiescence requirement anywhere in the export API.
 *
 * Reference stability contract: `histogram(name)` returns a reference
 * that stays valid for the registry's lifetime — components cache it
 * at construction for hot paths. `clear()` therefore resets histogram
 * objects in place instead of erasing map entries.
 */

#ifndef NVWAL_OBS_METRICS_HPP
#define NVWAL_OBS_METRICS_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace nvwal
{

/** Snapshot of all counters at a point in time. */
using StatsSnapshot = std::map<std::string, std::uint64_t>;

/** Counters, histograms, gauges, and the transaction tracer. */
class MetricsRegistry
{
  public:
    // ---- counters ------------------------------------------------

    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        std::lock_guard<std::mutex> g(_mu);
        _counters[name] += delta;
    }

    /** Current value of @p name (zero if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        std::lock_guard<std::mutex> g(_mu);
        auto it = _counters.find(name);
        return it == _counters.end() ? 0 : it->second;
    }

    /**
     * Copy of every counter. When the tracer ring has wrapped the
     * result also carries the derived counter "trace.events_dropped"
     * (stats::kTraceEventsDropped — the literal is repeated here
     * because stats.hpp includes this header), so ring overflow is
     * visible in every metrics export without a tracer query. The
     * key is omitted while zero to keep exact-counter expectations
     * in existing tests and deltas untouched.
     */
    StatsSnapshot snapshot() const
    {
        StatsSnapshot out;
        {
            std::lock_guard<std::mutex> g(_mu);
            out = _counters;
        }
        const std::uint64_t dropped = _tracer.dropped();
        if (dropped > 0)
            out["trace.events_dropped"] = dropped;
        return out;
    }

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
    Histogram &histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> g(_mu);
        return _histograms[name];
    }

    /** Existing histogram or nullptr (read-side lookup). */
    const Histogram *
    findHistogram(const std::string &name) const
    {
        std::lock_guard<std::mutex> g(_mu);
        auto it = _histograms.find(name);
        return it == _histograms.end() ? nullptr : &it->second;
    }

    /** One-shot sample into histogram @p name. */
    void
    recordNs(const std::string &name, std::uint64_t ns)
    {
        histogram(name).record(ns);
    }

    /**
     * Copy of every histogram, taken under the registry mutex (each
     * Histogram's copy constructor locks that histogram in turn), so
     * exporting is safe mid-recording. Replaces the former unlocked
     * const-reference accessor, which silently required a quiescent
     * registry — a contract the background checkpointer violates.
     */
    std::map<std::string, Histogram>
    histogramsSnapshot() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _histograms;
    }

    // ---- gauges ----------------------------------------------------

    /** Set gauge @p name to @p value (last-write-wins, not a sum). */
    void
    setGauge(const std::string &name, std::uint64_t value)
    {
        std::lock_guard<std::mutex> g(_mu);
        _gauges[name] = value;
    }

    std::uint64_t
    gauge(const std::string &name) const
    {
        std::lock_guard<std::mutex> g(_mu);
        auto it = _gauges.find(name);
        return it == _gauges.end() ? 0 : it->second;
    }

    /** Copy of every gauge, taken under the registry mutex. */
    std::map<std::string, std::uint64_t>
    gaugesSnapshot() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _gauges;
    }

    // ---- tracer ----------------------------------------------------

    Tracer &tracer() { return _tracer; }
    const Tracer &tracer() const { return _tracer; }

    /**
     * Reset counters and gauges, and empty every histogram in place
     * (histogram references handed out earlier remain valid). The
     * tracer is left alone; clear it explicitly via tracer().clear().
     */
    void
    clear()
    {
        std::lock_guard<std::mutex> g(_mu);
        _counters.clear();
        _gauges.clear();
        for (auto &[name, hist] : _histograms)
            hist.clear();
    }

  private:
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
