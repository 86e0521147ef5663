/**
 * @file
 * Low-overhead per-transaction event tracer.
 *
 * Components record begin/frame-append/flush/barrier/commit-mark/
 * checkpoint/recovery events with sim-clock timestamps into a fixed
 * ring buffer; the exporter renders them as Chrome `trace_event`
 * JSON, so a transaction's phase timeline opens directly in
 * about:tracing or https://ui.perfetto.dev. Each event carries the
 * id of the transaction it ran under (the Chrome `tid`), which makes
 * Perfetto lay the trace out as one swimlane per transaction.
 *
 * Overhead discipline: the tracer is disabled by default and every
 * record path starts with one branch on `enabled()`; TraceSpan
 * resolves that branch once at construction. Defining
 * NVWAL_OBS_NO_TRACING compiles all record paths to nothing (the
 * belt-and-braces gate for latency-critical builds); the runtime
 * gate alone is already within measurement noise (see
 * EXPERIMENTS.md's tracing-overhead guard).
 *
 * Events never feed back into the simulation: recording touches
 * neither the SimClock nor any device state, so enabling tracing can
 * never change what a benchmark measures or what a crash-sweep
 * replay recovers (tests/obs_test.cpp proves this).
 */

#ifndef NVWAL_OBS_TRACE_HPP
#define NVWAL_OBS_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/clock.hpp"

namespace nvwal
{

/** One trace event. Name/category point at string literals. */
struct TraceEvent
{
    const char *name = "";
    const char *category = "";
    /** Chrome phase: 'X' = complete (has dur), 'i' = instant. */
    char phase = 'i';
    SimTime ts = 0;          //!< sim-clock nanoseconds
    SimTime dur = 0;         //!< duration in ns ('X' events)
    std::uint64_t txn = 0;   //!< transaction id (0 = background)
    /** Optional numeric argument (bytes, page no, ...). */
    const char *argName = nullptr;
    std::uint64_t arg = 0;
};

/**
 * Ring-buffered, runtime-gated event recorder.
 *
 * Thread-safety: the enabled gate and current-txn id are relaxed
 * atomics (the hot disabled path stays one load + branch) and the
 * ring itself is mutex-guarded, because a platform-level tracer may
 * be shared by several databases committing concurrently.
 */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /** Timestamps read this clock; unbound tracers stamp 0. */
    void bindClock(const SimClock *clock) { _clock = clock; }

    bool enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

    /** Resize the ring (drops recorded events). */
    void
    setCapacity(std::size_t capacity)
    {
        std::lock_guard<std::mutex> g(_mu);
        _capacity = capacity == 0 ? 1 : capacity;
        _events.clear();
        _head = 0;
        _recorded = 0;
    }

    std::size_t capacity() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _capacity;
    }

    /** Transaction id subsequent events are attributed to. */
    void setCurrentTxn(std::uint64_t id)
    {
        _currentTxn.store(id, std::memory_order_relaxed);
    }
    std::uint64_t currentTxn() const
    {
        return _currentTxn.load(std::memory_order_relaxed);
    }

    /** Current sim time (0 when no clock is bound). */
    SimTime now() const { return _clock == nullptr ? 0 : _clock->now(); }

    /** Record an instant event. */
    void
    instant(const char *name, const char *category,
            const char *arg_name = nullptr, std::uint64_t arg = 0)
    {
#ifndef NVWAL_OBS_NO_TRACING
        if (!enabled())
            return;
        push(TraceEvent{name, category, 'i', now(), 0, currentTxn(),
                        arg_name, arg});
#else
        (void)name; (void)category; (void)arg_name; (void)arg;
#endif
    }

    /** Record a complete event spanning [start_ts, now]. */
    void
    complete(const char *name, const char *category, SimTime start_ts,
             const char *arg_name = nullptr, std::uint64_t arg = 0)
    {
#ifndef NVWAL_OBS_NO_TRACING
        if (!enabled())
            return;
        const SimTime end = now();
        push(TraceEvent{name, category, 'X', start_ts,
                        end >= start_ts ? end - start_ts : 0,
                        currentTxn(), arg_name, arg});
#else
        (void)name; (void)category; (void)start_ts; (void)arg_name;
        (void)arg;
#endif
    }

    /** Events currently held (<= capacity). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _events.size();
    }

    /** Events overwritten because the ring wrapped. */
    std::uint64_t dropped() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _recorded - static_cast<std::uint64_t>(_events.size());
    }

    /** Events recorded since the last clear (including dropped). */
    std::uint64_t recorded() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _recorded;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> g(_mu);
        _events.clear();
        _head = 0;
        _recorded = 0;
    }

    /** Held events, oldest first. */
    std::vector<TraceEvent>
    events() const
    {
        std::lock_guard<std::mutex> g(_mu);
        std::vector<TraceEvent> out;
        out.reserve(_events.size());
        for (std::size_t i = 0; i < _events.size(); ++i)
            out.push_back(_events[(_head + i) % _events.size()]);
        return out;
    }

  private:
    void
    push(const TraceEvent &event)
    {
        std::lock_guard<std::mutex> g(_mu);
        ++_recorded;
        if (_events.size() < _capacity) {
            _events.push_back(event);
            return;
        }
        _events[_head] = event;  // overwrite the oldest
        _head = (_head + 1) % _events.size();
    }

    const SimClock *_clock = nullptr;
    std::atomic<bool> _enabled{false};
    mutable std::mutex _mu;
    std::size_t _capacity = kDefaultCapacity;
    std::vector<TraceEvent> _events;
    std::size_t _head = 0;
    std::uint64_t _recorded = 0;
    std::atomic<std::uint64_t> _currentTxn{0};
};

/**
 * RAII span: records one complete event covering its scope. The
 * enabled check happens once, at construction; a span on a disabled
 * tracer is a null pointer and two dead stores.
 */
class TraceSpan
{
  public:
    TraceSpan(Tracer &tracer, const char *name, const char *category,
              const char *arg_name = nullptr, std::uint64_t arg = 0)
    {
#ifndef NVWAL_OBS_NO_TRACING
        if (tracer.enabled()) {
            _tracer = &tracer;
            _name = name;
            _category = category;
            _argName = arg_name;
            _arg = arg;
            _start = tracer.now();
        }
#else
        (void)tracer; (void)name; (void)category; (void)arg_name;
        (void)arg;
#endif
    }

    /** Attach/update the numeric argument before the span closes. */
    void
    setArg(const char *arg_name, std::uint64_t arg)
    {
        if (_tracer != nullptr) {
            _argName = arg_name;
            _arg = arg;
        }
    }

    ~TraceSpan()
    {
        if (_tracer != nullptr)
            _tracer->complete(_name, _category, _start, _argName, _arg);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    Tracer *_tracer = nullptr;
    const char *_name = nullptr;
    const char *_category = nullptr;
    const char *_argName = nullptr;
    std::uint64_t _arg = 0;
    SimTime _start = 0;
};

/**
 * Render the tracer's events as a Chrome trace_event JSON document
 * ({"traceEvents": [...]}) with one metadata-named thread per
 * transaction id. Load the result in about:tracing or Perfetto.
 */
std::string chromeTraceJson(const Tracer &tracer);

/** Write chromeTraceJson() to @p path via the host file system. */
Status writeChromeTrace(const Tracer &tracer, const std::string &path);

} // namespace nvwal

#endif // NVWAL_OBS_TRACE_HPP
