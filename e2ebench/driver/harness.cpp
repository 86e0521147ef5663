#include "harness.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace e2e
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Db: return "db";
      case Layer::Btree: return "btree";
      case Layer::Core: return "core";
      case Layer::Heap: return "heap";
      case Layer::Pmem: return "pmem";
      case Layer::Count: break;
    }
    return "?";
}

const char *
callName(Call call)
{
    switch (call) {
      case Call::Begin: return "bench.begin";
      case Call::Insert: return "bench.insert";
      case Call::Update: return "bench.update";
      case Call::Remove: return "bench.remove";
      case Call::Get: return "bench.get";
      case Call::Scan: return "bench.scan";
      case Call::Commit: return "bench.commit";
      case Call::Rollback: return "bench.rollback";
      case Call::BeginRead: return "bench.begin_read";
      case Call::EndRead: return "bench.end_read";
      case Call::Checkpoint: return "bench.checkpoint";
      case Call::Recover: return "bench.recover";
      case Call::Count: break;
    }
    return "?";
}

namespace
{

/** Statements run query CPU, B-tree and pager code; the rest is db. */
Layer
callLayer(Call call)
{
    switch (call) {
      case Call::Insert:
      case Call::Update:
      case Call::Remove:
      case Call::Get:
      case Call::Scan:
        return Layer::Btree;
      default:
        return Layer::Db;
    }
}

/** Engine spans by name prefix: db.*, wal.* (core), heap.*, pmem.*. */
Layer
engineLayer(const char *name)
{
    if (std::strncmp(name, "wal.", 4) == 0)
        return Layer::Core;
    if (std::strncmp(name, "heap.", 5) == 0)
        return Layer::Heap;
    if (std::strncmp(name, "pmem.", 5) == 0)
        return Layer::Pmem;
    return Layer::Db;
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

// ---- host time ------------------------------------------------------

namespace
{

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Calibration
{
    bool on = false;
    std::uint64_t excludedNs = 0;  //!< all slices ever run
    std::uint64_t tallyNs = 0;     //!< slices since setCalibrating(true)
    std::uint64_t slices = 0;
    std::uint64_t last = 0;
};
Calibration calib;

/**
 * One kernel slice: four times copy and hash 8 KiB, then chase 4,000
 * dependent indices through a 16 KiB cycle. Its 32 KiB of static data
 * fit in the L1 cache, so a slice run right after another one runs
 * from L1 at the core's speed (clock, contention for the core), not at
 * a speed set by what the engine keeps in L2/L3. It allocates nothing,
 * so it does not share the engine's malloc state, and between two
 * slices the engine refills at most 32 KiB of L1.
 */
void
calibrationSlice()
{
    constexpr std::size_t kWords = 1024;  // 8 KiB
    constexpr std::uint32_t kCycle = 4096;  // 16 KiB of uint32
    alignas(64) static std::uint64_t src[kWords];
    alignas(64) static std::uint64_t dst[kWords];
    alignas(64) static std::uint32_t chase[kCycle];
    static volatile std::uint64_t sink = 0;
    if (chase[0] == chase[1]) {
        for (std::size_t i = 0; i < kWords; ++i)
            src[i] = i * 0x9e3779b97f4a7c15ULL;
        // i -> i + odd stride is one cycle through all kCycle slots.
        for (std::uint32_t i = 0; i < kCycle; ++i)
            chase[i] = (i + 2654435761u) & (kCycle - 1);
    }
    std::uint64_t h = 0xcbf29ce484222325ULL + calib.slices;
    for (int round = 0; round < 4; ++round) {
        std::memcpy(dst, src, sizeof(src));
        for (std::uint64_t w : dst) {
            h ^= w;
            h *= 0x100000001b3ULL;
        }
    }
    auto p = static_cast<std::uint32_t>(h) & (kCycle - 1);
    for (int i = 0; i < 4000; ++i)
        p = chase[p];
    sink = sink + h + p;
}

} // namespace

std::uint64_t
hostNow()
{
    return steadyNs() - calib.excludedNs;
}

void
setCalibrating(bool on)
{
    calib.on = on;
    if (on) {
        calib.tallyNs = 0;
        calib.slices = 0;
        calib.last = hostNow();
    }
}

void
maybeCalibrate()
{
    constexpr std::uint64_t kEveryNs = 1000000;
    if (!calib.on || hostNow() - calib.last < kEveryNs)
        return;
    // The first slice pulls the kernel's data back into L1 after the
    // engine evicted it; only the second, L1-resident one is timed.
    const std::uint64_t t0 = steadyNs();
    calibrationSlice();
    const std::uint64_t t1 = steadyNs();
    calibrationSlice();
    const std::uint64_t t2 = steadyNs();
    const std::uint64_t ns = t2 - t1;
    calib.excludedNs += t2 - t0;
    calib.tallyNs += ns;
    calib.slices++;
    calib.last = hostNow();
}

double
calibrationSliceNs()
{
    return calib.slices == 0 ? 0.0
                             : static_cast<double>(calib.tallyNs) /
                                   static_cast<double>(calib.slices);
}

// ---- ledger ---------------------------------------------------------

Ledger::Ledger(nvwal::Tracer &tracer, bool keep_spans)
    : _tracer(tracer), _keepSpans(keep_spans)
{
    // One call's events at a time; a checkpoint or a recovery emits
    // the most, far below this.
    _tracer.setCapacity(std::size_t{1} << 18);
    _tracer.clear();
    _tracer.setEnabled(true);
}

void
Ledger::gap(std::string message)
{
    // Keep the first few messages; the count is what fails the run.
    if (_section.gaps.size() < 8)
        _section.gaps.push_back(std::move(message));
    else if (_section.gaps.size() == 8)
        _section.gaps.push_back("... further gaps suppressed");
}

std::uint64_t
Ledger::addCall(Call call, std::uint64_t txn, SimTime sim_start,
                SimTime sim_end, std::uint64_t host_start,
                std::uint64_t host_end)
{
    _section.eventsDropped += _tracer.dropped();
    const std::vector<nvwal::TraceEvent> events = _tracer.events();
    _tracer.clear();

    const std::uint32_t call_id = _nextId++;
    // Engine spans arrive in the order they closed. A span's children
    // closed before it and started no earlier, so they sit at the
    // tail of the pending list when it arrives.
    std::vector<Span> local;
    std::vector<std::uint64_t> child_ns;
    std::vector<std::size_t> pending;
    for (const nvwal::TraceEvent &ev : events) {
        // db.txn runs from begin() to commit() across several calls;
        // it is a transaction marker, not a layer's work.
        if (ev.phase != 'X' || std::strcmp(ev.name, "db.txn") == 0)
            continue;
        Span sp;
        sp.id = _nextId++;
        sp.name = ev.name;
        sp.txn = ev.txn;
        sp.simStart = ev.ts;
        sp.simEnd = ev.ts + ev.dur;
        sp.section = _sectionNo;
        std::uint64_t kids = 0;
        SimTime next_start = sp.simEnd;
        while (!pending.empty() &&
               local[pending.back()].simStart >= sp.simStart) {
            Span &c = local[pending.back()];
            if (c.simEnd > next_start)
                gap(std::string(c.name) + " overlaps a sibling inside " +
                    sp.name);
            next_start = c.simStart;
            c.parent = sp.id;
            kids += c.simEnd - c.simStart;
            pending.pop_back();
        }
        local.push_back(sp);
        child_ns.push_back(kids);
        pending.push_back(local.size() - 1);
    }

    std::uint64_t kids = 0;
    SimTime next_start = sim_end;
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        Span &c = local[*it];
        if (c.simStart < sim_start || c.simEnd > next_start)
            gap(std::string(c.name) + " falls outside or overlaps within " +
                callName(call));
        next_start = c.simStart;
        c.parent = call_id;
        kids += c.simEnd - c.simStart;
    }

    const std::uint64_t call_ns = sim_end - sim_start;
    std::uint64_t call_self = 0;
    if (kids > call_ns)
        gap(std::string("children exceed ") + callName(call));
    else
        call_self = call_ns - kids;
    _section.selfSimNs[static_cast<std::size_t>(callLayer(call))] += call_self;
    _section.callSimNs += call_ns;
    _section.callHostNs[static_cast<std::size_t>(call)] +=
        host_end - host_start;
    _section.callCount[static_cast<std::size_t>(call)]++;

    for (std::size_t i = 0; i < local.size(); ++i) {
        const Span &sp = local[i];
        const std::uint64_t ns = sp.simEnd - sp.simStart;
        if (child_ns[i] > ns) {
            gap(std::string("children exceed ") + sp.name);
            continue;
        }
        _section.selfSimNs[static_cast<std::size_t>(engineLayer(sp.name))] +=
            ns - child_ns[i];
        _section.engineSpanNs[sp.name].push_back(ns);
    }

    if (_keepSpans) {
        Span cs;
        cs.id = call_id;
        cs.name = callName(call);
        cs.txn = txn;
        cs.simStart = sim_start;
        cs.simEnd = sim_end;
        cs.hostStart = host_start;
        cs.hostEnd = host_end;
        cs.section = _sectionNo;
        _spans.push_back(cs);
        _spans.insert(_spans.end(), local.begin(), local.end());
    }
    return call_self;
}

LedgerSection
Ledger::closeSection(SimTime clock_delta)
{
    // Nothing advances the clock outside a call, so the top-level
    // spans tile the section exactly.
    if (_section.callSimNs != clock_delta)
        gap("top-level spans cover " + std::to_string(_section.callSimNs) +
            " sim ns of a " + std::to_string(clock_delta) + " ns region");
    std::uint64_t self_total = 0;
    for (std::uint64_t ns : _section.selfSimNs)
        self_total += ns;
    if (self_total != _section.callSimNs)
        gap("layer self times sum to " + std::to_string(self_total) +
            " of " + std::to_string(_section.callSimNs) + " sim ns");
    if (_section.eventsDropped != 0)
        gap(std::to_string(_section.eventsDropped) +
            " trace events dropped");
    LedgerSection out = std::move(_section);
    _section = LedgerSection{};
    ++_sectionNo;
    return out;
}

bool
Ledger::writeSpans(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tparent\tsection\tname\ttxn\tsim_start\tsim_end\t"
                    "host_start\thost_end\n");
    for (const Span &s : _spans) {
        std::fprintf(f, "%u\t%u\t%u\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                     s.id, s.parent, static_cast<unsigned>(s.section), s.name,
                     static_cast<unsigned long long>(s.txn),
                     static_cast<unsigned long long>(s.simStart),
                     static_cast<unsigned long long>(s.simEnd),
                     static_cast<unsigned long long>(s.hostStart),
                     static_cast<unsigned long long>(s.hostEnd));
    }
    return std::fclose(f) == 0;
}

// ---- probe ----------------------------------------------------------

void
Probe::finish(Call kind, std::uint64_t txn, SimTime s0, std::uint64_t h0,
              CallResult *out)
{
    const SimTime s1 = _clock.now();
    const std::uint64_t h1 = hostNow();
    const auto k = static_cast<std::size_t>(kind);
    _samples.sim[k].push_back(s1 - s0);
    _samples.host[k].push_back(h1 - h0);
    if (_ledger != nullptr)
        _samples.selfSim[k].push_back(
            _ledger->addCall(kind, txn, s0, s1, h0, h1));
    if (out != nullptr) {
        out->simNs = s1 - s0;
        out->hostNs = h1 - h0;
    }
    maybeCalibrate();
}

CallSamples
Probe::take()
{
    CallSamples out = std::move(_samples);
    _samples = CallSamples{};
    return out;
}

// ---- inputs ---------------------------------------------------------

std::uint64_t
valueHash(nvwal::ConstByteSpan bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h | 1;
}

std::uint32_t
ValueArena::add(nvwal::Rng &rng, std::size_t size)
{
    const std::size_t at = _bytes.size();
    _bytes.resize(at + size);
    for (std::size_t i = 0; i < size; i += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(_bytes.data() + at + i, &word, std::min<std::size_t>(8, size - i));
    }
    _offsets.push_back(_bytes.size());
    _hashes.push_back(valueHash({_bytes.data() + at, size}));
    return static_cast<std::uint32_t>(_hashes.size() - 1);
}

Zipf::Zipf(std::uint64_t n, double theta) : _n(n), _theta(theta)
{
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    _zetan = zetan;
    _alpha = 1.0 / (1.0 - theta);
    _eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
}

std::uint64_t
Zipf::rank(nvwal::Rng &rng) const
{
    const double u = rng.nextDouble();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return _n > 1 ? 1 : 0;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(_n) * std::pow(_eta * u - _eta + 1.0, _alpha));
    return r < _n ? r : _n - 1;
}

std::uint64_t
Zipf::item(nvwal::Rng &rng) const
{
    return fnv(0xcbf29ce484222325ULL, rank(rng)) % _n;
}

// ---- oracle ---------------------------------------------------------

void
Oracle::set(RowId key, std::uint64_t hash, std::uint32_t txn)
{
    const auto k = static_cast<std::size_t>(key);
    if (k >= _hash.size()) {
        _hash.resize(k + 1 + k / 4, 0);
        _writer.resize(_hash.size(), 0);
    }
    if (_hash[k] == 0 && hash != 0)
        ++_live;
    else if (_hash[k] != 0 && hash == 0)
        --_live;
    _hash[k] = hash;
    _writer[k] = txn;
}

// ---- determinism ----------------------------------------------------

std::uint64_t
simFingerprint(const TrialResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint64_t v : {r.simNs, r.txns, r.commitAttempts, r.readOps,
                            r.userBytes, r.frameIndexNodesPeak,
                            r.recoverySimNs, r.attempted, r.failed,
                            r.durabilityViolations})
        h = fnv(h, v);
    for (std::uint64_t v : r.commitSim)
        h = fnv(h, v);
    for (std::uint64_t v : r.readSim)
        h = fnv(h, v);
    for (const nvwal::StatsSnapshot *snap : {&r.delta, &r.recoveryDelta}) {
        for (const auto &[name, value] : *snap) {
            if (value == 0 || name == nvwal::stats::kTraceEventsDropped)
                continue;
            for (char c : name)
                h = fnv(h, static_cast<unsigned char>(c));
            h = fnv(h, value);
        }
    }
    for (const std::vector<std::uint64_t> &v : r.calls.sim)
        for (std::uint64_t x : v)
            h = fnv(h, x);
    return h;
}

} // namespace e2e
