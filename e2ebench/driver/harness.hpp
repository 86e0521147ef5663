/**
 * @file
 * End-to-end benchmark harness: the pieces every workload shares.
 *
 * One driver thread interleaves up to four connections as a closed
 * loop. Every call the driver makes into Database/Connection goes
 * through a Probe, which times it in simulated and host nanoseconds.
 * In a traced run the Probe also hands the call to a Ledger, which
 * records a span for it, adopts the spans the engine emitted while it
 * ran (db.commit, wal.*, heap.*, pmem.*) as children, and splits the
 * simulated time across the src/ modules.
 */

#ifndef NVWAL_E2EBENCH_HARNESS_HPP
#define NVWAL_E2EBENCH_HARNESS_HPP

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "db/database.hpp"

namespace e2e
{

using nvwal::RowId;
using nvwal::SimTime;
using nvwal::Status;

// ---- host time ----------------------------------------------------
//
// Host figures drift with the machine: on a shared host the speed of
// a core moves by 10-20% over minutes. While calibrating (the measured
// region), the driver runs a short fixed L1-resident kernel every 1 ms
// between calls, keeps its time out of every host timing, and reports
// end-to-end host figures scaled to a reference kernel speed.

/** Host steady-clock ns, minus the time spent in calibration slices. */
std::uint64_t hostNow();

/** Start (resetting the tally) or stop calibrating. */
void setCalibrating(bool on);

/** Run a calibration slice if 1 ms of host time passed since the last. */
void maybeCalibrate();

/** Mean calibration slice time since setCalibrating(true), ns. */
double calibrationSliceNs();


// ---- layers and calls ---------------------------------------------

/** Ledger rows, named after the src/ module that spends the time. */
enum class Layer : std::uint8_t
{
    Db,     //!< benchmark calls into the db facade, db.commit spans
    Btree,  //!< statement calls (query CPU, B-tree, pager)
    Core,   //!< wal.* spans of the NVRAM log (append, mark, checkpoint)
    Heap,   //!< heap.* spans
    Pmem,   //!< pmem.* spans (flush, barriers)
    Count,
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);
const char *layerName(Layer layer);

/** The benchmark's calls into Database/Connection. */
enum class Call : std::uint8_t
{
    Begin,
    Insert,
    Update,
    Remove,
    Get,
    Scan,
    Commit,
    Rollback,
    BeginRead,
    EndRead,
    Checkpoint,
    Recover,
    Count,
};
constexpr std::size_t kCalls = static_cast<std::size_t>(Call::Count);
const char *callName(Call call);

// ---- spans and the ledger -----------------------------------------

/**
 * One span. Benchmark call spans carry host times; engine spans only
 * have simulated times (hostStart == hostEnd == 0).
 */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;   //!< 0 = top level
    const char *name = "";
    std::uint64_t txn = 0;      //!< benchmark txn id or engine txn seq
    SimTime simStart = 0;
    SimTime simEnd = 0;
    std::uint64_t hostStart = 0;
    std::uint64_t hostEnd = 0;
    std::uint8_t section = 0;
};

/** Totals of one ledger section (the measured region, recovery). */
struct LedgerSection
{
    std::array<std::uint64_t, kLayers> selfSimNs{};
    std::array<std::uint64_t, kCalls> callHostNs{};
    std::array<std::uint64_t, kCalls> callCount{};
    /** Sum of top-level call span durations (sim). */
    std::uint64_t callSimNs = 0;
    std::uint64_t eventsDropped = 0;
    /** Closure and nesting failures; empty when the ledger closes. */
    std::vector<std::string> gaps;
    /** Durations of engine spans by name (sim ns). */
    std::map<std::string, std::vector<std::uint64_t>> engineSpanNs;
};

/**
 * Traced-run bookkeeping. Drains the engine tracer after every call,
 * so the ring only ever holds one call's events.
 */
class Ledger
{
  public:
    Ledger(nvwal::Tracer &tracer, bool keep_spans);

    /**
     * Record call span [sim_start, sim_end] and adopt the engine
     * spans emitted during it. Returns the call's self sim time.
     */
    std::uint64_t addCall(Call call, std::uint64_t txn, SimTime sim_start,
                          SimTime sim_end, std::uint64_t host_start,
                          std::uint64_t host_end);

    /**
     * End the current section: check that its top-level spans cover
     * @p clock_delta exactly, return its totals and start a new one.
     */
    LedgerSection closeSection(SimTime clock_delta);

    /** Write every kept span as TSV; false on an I/O error. */
    bool writeSpans(const std::string &path) const;

  private:
    void gap(std::string message);

    nvwal::Tracer &_tracer;
    bool _keepSpans;
    std::uint32_t _nextId = 1;
    std::uint8_t _sectionNo = 0;
    LedgerSection _section;
    std::vector<Span> _spans;
};

// ---- probe --------------------------------------------------------

/** Outcome and cost of one call. */
struct CallResult
{
    Status status;
    std::uint64_t simNs = 0;
    std::uint64_t hostNs = 0;
};

/** Per-call-kind samples (sim, host, self sim when traced). */
struct CallSamples
{
    std::array<std::vector<std::uint64_t>, kCalls> sim;
    std::array<std::vector<std::uint64_t>, kCalls> host;
    std::array<std::vector<std::uint64_t>, kCalls> selfSim;
};

/** Times every benchmark call; forwards it to the ledger if traced. */
class Probe
{
  public:
    Probe(const nvwal::SimClock &clock, Ledger *ledger)
        : _clock(clock), _ledger(ledger)
    {}

    template <typename Fn>
    CallResult
    call(Call kind, std::uint64_t txn, Fn &&fn)
    {
        const SimTime s0 = _clock.now();
        const std::uint64_t h0 = hostNow();
        CallResult r;
        try {
            r.status = fn();
        } catch (...) {
            // A scheduled power failure unwinds through the call;
            // close its span so the ledger stays balanced.
            finish(kind, txn, s0, h0);
            throw;
        }
        finish(kind, txn, s0, h0, &r);
        return r;
    }

    /** Hand over the samples gathered so far and start afresh. */
    CallSamples take();

  private:
    void finish(Call kind, std::uint64_t txn, SimTime s0, std::uint64_t h0,
                CallResult *out = nullptr);

    const nvwal::SimClock &_clock;
    Ledger *_ledger;
    CallSamples _samples;
};

// ---- inputs -------------------------------------------------------

/** 64-bit FNV-1a over @p bytes, never 0 (0 marks an absent key). */
std::uint64_t valueHash(nvwal::ConstByteSpan bytes);

/** Arena of pre-generated values and their hashes. */
class ValueArena
{
  public:
    /** A fresh random value of @p size bytes (the paper's 100 B rows
     *  by default). */
    std::uint32_t add(nvwal::Rng &rng, std::size_t size = 100);
    nvwal::ConstByteSpan
    span(std::uint32_t i) const
    {
        return {_bytes.data() + _offsets[i], _offsets[i + 1] - _offsets[i]};
    }
    std::uint64_t hash(std::uint32_t i) const { return _hashes[i]; }

  private:
    std::vector<std::uint8_t> _bytes;
    std::vector<std::size_t> _offsets{0};
    std::vector<std::uint64_t> _hashes;
};

/**
 * YCSB's Zipfian generator over [0, n) with skew theta, scrambled by
 * a hash so the hot items spread over the key space instead of
 * sharing the first leaves.
 */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double theta);
    /** Rank in [0, n); rank 0 is the most popular. */
    std::uint64_t rank(nvwal::Rng &rng) const;
    /** A scrambled item in [0, n). */
    std::uint64_t item(nvwal::Rng &rng) const;

  private:
    std::uint64_t _n;
    double _theta;
    double _alpha;
    double _zetan;
    double _eta;
};

// ---- shadow oracle --------------------------------------------------

/** Key -> value hash of every acknowledged write, plus its writer. */
class Oracle
{
  public:
    std::uint64_t
    get(RowId key) const
    {
        const auto k = static_cast<std::size_t>(key);
        return k < _hash.size() ? _hash[k] : 0;
    }
    std::uint32_t
    writer(RowId key) const
    {
        const auto k = static_cast<std::size_t>(key);
        return k < _writer.size() ? _writer[k] : 0;
    }
    /** Set (hash != 0) or erase (hash == 0) @p key for txn @p txn. */
    void set(RowId key, std::uint64_t hash, std::uint32_t txn);
    std::size_t keySpace() const { return _hash.size(); }
    std::uint64_t live() const { return _live; }

  private:
    std::vector<std::uint64_t> _hash;
    std::vector<std::uint32_t> _writer;
    std::uint64_t _live = 0;
};

// ---- trial --------------------------------------------------------

/** What one trial runs. */
struct TrialSpec
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    /** Multiplies the measured transaction count (self-tests). */
    double scale = 1.0;
    /** Kept span dump path ("" = do not keep spans). */
    std::string spansOut;
};

/** Figures that describe the workload's shape (not its speed). */
struct Shape
{
    std::uint64_t initialRows = 0;
    std::uint64_t finalRows = 0;
    std::array<std::uint64_t, kCalls> statements{};
    std::uint64_t conflicts = 0;
};

/** Everything one trial measured. */
struct TrialResult
{
    // ---- measured region: simulated, must repeat exactly ----
    SimTime simNs = 0;
    std::uint64_t txns = 0;            //!< committed write txns
    std::uint64_t commitAttempts = 0;  //!< commit calls incl. conflicts
    std::vector<std::uint64_t> commitSim;  //!< begin -> durable, per txn
    std::vector<std::uint64_t> readSim;    //!< per point get
    std::uint64_t readOps = 0;             //!< point gets + scans
    std::uint64_t userBytes = 0;
    std::uint64_t frameIndexNodesPeak = 0;
    nvwal::StatsSnapshot delta;
    // ---- crash + recovery (summed over the crash cycles) ----
    std::uint64_t recoveries = 0;
    SimTime recoverySimNs = 0;
    nvwal::StatsSnapshot recoveryDelta;
    // ---- correctness ----
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t durabilityViolations = 0;
    std::vector<std::string> problems;
    Shape shape;
    // ---- host ----
    double setupS = 0.0;
    std::uint64_t hostNs = 0;
    double calibSliceNs = 0.0;  //!< mean slice time, measured region
    std::vector<std::uint64_t> commitHost;
    std::uint64_t readHostNs = 0;  //!< host ns inside reader calls
    CallSamples calls;
    // ---- traced runs ----
    bool traced = false;
    LedgerSection measured;
    LedgerSection recovery;
};

/** Run one trial of @p spec.workload; problems land in the result. */
TrialResult runTrial(const TrialSpec &spec);

/** Names of the workloads runTrial accepts. */
const std::vector<std::string> &workloadNames();

/** Hash of every simulated figure and count of @p r. */
std::uint64_t simFingerprint(const TrialResult &r);

} // namespace e2e

#endif // NVWAL_E2EBENCH_HARNESS_HPP
