#include "metrics.hpp"

#include <string_view>
#include <unordered_map>

#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

namespace
{

/** The canonical name spelled @p name, or nullptr for ad-hoc names. */
const MetricName *
findCanonical(std::string_view name)
{
    static const std::unordered_map<std::string_view, const MetricName *>
        index = [] {
            std::unordered_map<std::string_view, const MetricName *> m;
            for (const MetricName &n : stats::kAllMetrics)
                m.emplace(n.c_str(), &n);
            return m;
        }();
    const auto it = index.find(name);
    return it == index.end() ? nullptr : it->second;
}

} // namespace

MetricsRegistry::MetricsRegistry()
    : _slots(std::make_unique<Slot[]>(stats::kMetricCount))
{
}

void
MetricsRegistry::add(const std::string &name, std::uint64_t delta)
{
    if (const MetricName *n = findCanonical(name)) {
        add(*n, delta);
        return;
    }
    std::lock_guard<std::mutex> g(_mu);
    _counters[name] += delta;
}

std::uint64_t
MetricsRegistry::get(const std::string &name) const
{
    if (const MetricName *n = findCanonical(name))
        return get(*n);
    std::lock_guard<std::mutex> g(_mu);
    auto it = _counters.find(name);
    return it == _counters.end() ? 0 : it->second;
}

StatsSnapshot
MetricsRegistry::snapshot() const
{
    StatsSnapshot out;
    {
        std::lock_guard<std::mutex> g(_mu);
        out = _counters;
    }
    for (const MetricName &n : stats::kAllMetrics) {
        const Slot &s = _slots[n.slot()];
        const std::uint64_t value =
            s.counter.load(std::memory_order_relaxed);
        if (value != 0 || s.counterUsed.load(std::memory_order_relaxed))
            out.emplace(n.c_str(), value);
    }
    const std::uint64_t dropped = _tracer.dropped();
    if (dropped > 0)
        out[stats::kTraceEventsDropped.c_str()] = dropped;
    return out;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    if (const MetricName *n = findCanonical(name))
        return histogram(*n);
    std::lock_guard<std::mutex> g(_mu);
    return _histograms[name];
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    if (const MetricName *n = findCanonical(name)) {
        const Slot &s = _slots[n->slot()];
        return s.histogramUsed.load(std::memory_order_relaxed)
                   ? &s.histogram
                   : nullptr;
    }
    std::lock_guard<std::mutex> g(_mu);
    auto it = _histograms.find(name);
    return it == _histograms.end() ? nullptr : &it->second;
}

std::map<std::string, Histogram>
MetricsRegistry::histogramsSnapshot() const
{
    std::map<std::string, Histogram> out;
    {
        std::lock_guard<std::mutex> g(_mu);
        out = _histograms;
    }
    for (const MetricName &n : stats::kAllMetrics) {
        const Slot &s = _slots[n.slot()];
        if (s.histogramUsed.load(std::memory_order_relaxed))
            out.emplace(n.c_str(), s.histogram);
    }
    return out;
}

void
MetricsRegistry::setGauge(const std::string &name, std::uint64_t value)
{
    if (const MetricName *n = findCanonical(name)) {
        setGauge(*n, value);
        return;
    }
    std::lock_guard<std::mutex> g(_mu);
    _gauges[name] = value;
}

std::uint64_t
MetricsRegistry::gauge(const std::string &name) const
{
    if (const MetricName *n = findCanonical(name))
        return gauge(*n);
    std::lock_guard<std::mutex> g(_mu);
    auto it = _gauges.find(name);
    return it == _gauges.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t>
MetricsRegistry::gaugesSnapshot() const
{
    std::map<std::string, std::uint64_t> out;
    {
        std::lock_guard<std::mutex> g(_mu);
        out = _gauges;
    }
    for (const MetricName &n : stats::kAllMetrics) {
        const Slot &s = _slots[n.slot()];
        if (s.gaugeUsed.load(std::memory_order_relaxed))
            out.emplace(n.c_str(), s.gauge.load(std::memory_order_relaxed));
    }
    return out;
}

void
MetricsRegistry::clear()
{
    for (std::uint32_t i = 0; i < stats::kMetricCount; ++i) {
        Slot &s = _slots[i];
        s.counter.store(0, std::memory_order_relaxed);
        s.counterUsed.store(false, std::memory_order_relaxed);
        s.gauge.store(0, std::memory_order_relaxed);
        s.gaugeUsed.store(false, std::memory_order_relaxed);
        s.histogram.clear();
    }
    std::lock_guard<std::mutex> g(_mu);
    _counters.clear();
    _gauges.clear();
    for (auto &[name, hist] : _histograms)
        hist.clear();
}

std::string
metricsJson(const MetricsRegistry &metrics)
{
    JsonWriter w;
    w.beginObject();

    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : metrics.snapshot())
        w.member(name, value);
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &[name, value] : metrics.gaugesSnapshot())
        w.member(name, value);
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const auto &[name, hist] : metrics.histogramsSnapshot()) {
        if (hist.count() == 0)
            continue;
        w.key(name);
        w.beginObject();
        w.member("count", hist.count());
        w.member("sum", hist.sum());
        w.member("min", hist.min());
        w.member("max", hist.max());
        w.member("mean", hist.mean());
        w.member("p50", hist.p50());
        w.member("p95", hist.p95());
        w.member("p99", hist.p99());
        w.key("buckets");
        w.beginArray();
        for (const Histogram::Bucket &b : hist.buckets()) {
            w.beginObject();
            w.member("lo", b.lo);
            w.member("hi", b.hi);
            w.member("count", b.count);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    return w.take();
}

} // namespace nvwal
