/**
 * @file
 * Exhaustive crash-point sweep harness (section 4.3 methodology,
 * industrialized).
 *
 * The harness runs a scripted workload once to count every
 * persistence-relevant NVRAM device operation it issues, then for
 * each operation index N replays the workload from a media snapshot
 * with a power failure injected at N -- under the pessimistic policy
 * and, with multiple RNG seeds, under the adversarial policy --
 * recovers a database on the surviving image and checks the recovery
 * invariants:
 *
 *  - durability: every transaction that committed before the crash
 *    is fully visible (Eager/Lazy), or the recovered state is some
 *    committed prefix (ChecksumAsync, section 4.2);
 *  - atomicity: no transaction is ever partially visible; the
 *    in-flight victim may appear only if the crash fired inside its
 *    committing operation;
 *  - structural integrity: the B-tree validates;
 *  - no NVRAM leaks: the heap holds no pending blocks and its in-use
 *    block count equals exactly the blocks reachable from the log's
 *    persistent structure;
 *  - liveness: the recovered database accepts a new write.
 *
 * The warm-up runs once; Env::snapshotMedia() captures the complete
 * media image (durable NVRAM + volatile cache/queue + flash + file
 * system) so every injection point restores in O(image) instead of
 * re-running the warm-up.
 */

#ifndef NVWAL_FAULTSIM_CRASH_SWEEP_HPP
#define NVWAL_FAULTSIM_CRASH_SWEEP_HPP

#include <map>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "faultsim/workload.hpp"

namespace nvwal::faultsim
{

/** One survival policy plus the RNG seeds to replay it under. */
struct PolicyRun
{
    FailurePolicy policy = FailurePolicy::Pessimistic;
    /**
     * Seeds for the adversarial draws, one full replay per seed (the
     * pessimistic policy is deterministic, one seed suffices). Each
     * seed is mixed with the crash-point index so distinct points
     * see distinct draw sequences.
     */
    std::vector<std::uint64_t> seeds{0};
    double surviveProb = 0.5;
};

/** What to sweep and how densely. */
struct SweepConfig
{
    EnvConfig env;
    DbConfig db;
    /** Run once before the media snapshot; never crash-injected. */
    Workload warmup;
    /** The swept workload; crash points cover all its device ops. */
    Workload workload;
    /**
     * Policies to inject under. Empty selects the default matrix:
     * Pessimistic (one seed) plus Adversarial with four seeds.
     */
    std::vector<PolicyRun> policies;
    /**
     * Checkpoint at the end of the warm-up so the warm state is
     * durable in the .db file. Required for ChecksumAsync configs:
     * without it, losing unflushed warm-up frames would be a legal
     * outcome the oracle (which starts at the warm state) cannot
     * express.
     */
    bool checkpointAfterWarmup = true;
    /** 1 = exhaustive; > 1 sweeps every stride-th op index. */
    std::uint64_t stride = 1;
    /** Cap on distinct crash points (0 = unlimited). */
    std::uint64_t maxPoints = 0;
    /** Seed for the deterministic strided-offset / subsample pick. */
    std::uint64_t sampleSeed = 1;
    /** Insert a probe row after each recovery (liveness check). */
    bool probeInsertAfterRecovery = true;
    /**
     * Enable the transaction-phase tracer for the whole sweep. The
     * tracer is pure observation -- obs_test sweeps with it on and
     * off and proves identical recovery outcomes -- but it is off by
     * default to keep exhaustive sweeps fast.
     */
    bool trace = false;
};

/** One invariant violation found by the sweep. */
struct Violation
{
    std::uint64_t opIndex = 0;   //!< crash point (1-based device op)
    FailurePolicy policy = FailurePolicy::Pessimistic;
    std::uint64_t seed = 0;
    std::string phase;
    std::string message;
};

/** Sweep statistics for one workload phase label. */
struct PhaseCoverage
{
    std::uint64_t points = 0;    //!< distinct crash points attributed
    std::uint64_t replays = 0;   //!< points x policies x seeds
    std::uint64_t crashes = 0;   //!< replays where the failure fired
    std::uint64_t violations = 0;
};

/** Outcome of CrashSweep::run(). */
struct SweepReport
{
    std::uint64_t totalOps = 0;      //!< device ops the workload issues
    std::uint64_t commitEvents = 0;  //!< commit boundaries (oracle states)
    std::uint64_t pointsSwept = 0;
    std::uint64_t replays = 0;
    std::uint64_t crashes = 0;
    // ---- loss-window audit (async / checksum commits) ---------------
    /** Replays that crashed with acknowledged-but-unhardened commits. */
    std::uint64_t asyncReplays = 0;
    /** Torn frames recovery classified, summed over all replays. */
    std::uint64_t tornFramesDetected = 0;
    /** Frames recovery discarded past the valid prefix, summed. */
    std::uint64_t framesDiscarded = 0;
    /** Commit marks among the discarded frames, summed. */
    std::uint64_t lostMarks = 0;
    /** Worst observed loss: max commit events below done_events that
     *  a recovered prefix rolled back (always within the window). */
    std::uint64_t maxLossEvents = 0;
    // ---- flight-recorder forensics audit ----------------------------
    /** Replays whose recovery produced a recorder-backed report. */
    std::uint64_t forensicsChecked = 0;
    /** Checksum-valid ring records surviving, summed over replays. */
    std::uint64_t frRecordsSurvived = 0;
    /** Torn ring slots discarded by checksum, summed over replays. */
    std::uint64_t frTornSlotsDiscarded = 0;
    std::vector<Violation> violations;
    /** Keyed by workload phase label, in workload order. */
    std::vector<std::pair<std::string, PhaseCoverage>> phases;

    bool ok() const { return violations.empty(); }

    /** Multi-line human-readable summary (one line per phase). */
    std::string summary() const;
};

/** Human-readable policy name ("pessimistic"/"adversarial"/...). */
const char *failurePolicyName(FailurePolicy policy);

/** Distinct adversarial draw sequence per (seed, crash point). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t point);

/**
 * Heap blocks of the flight-recorder ring under @p wal_namespace (0
 * when the recorder namespace was never bound): InUse but reachable
 * from its own heap root, not from the log's persistent structure,
 * so the leak invariant must account for them separately.
 */
std::uint64_t recorderBlocks(const NvHeap &heap,
                             const std::string &wal_namespace);

/** The sweep driver. See the file comment for the methodology. */
class CrashSweep
{
  public:
    explicit CrashSweep(SweepConfig config) : _config(std::move(config)) {}

    /**
     * Run the sweep. Returns non-OK only for harness-level failures
     * (the workload itself failed, recovery returned an error for a
     * reason recorded as a violation is NOT one of them); invariant
     * violations are reported through @p report.
     */
    Status run(SweepReport *report);

  private:
    SweepConfig _config;
};

} // namespace nvwal::faultsim

#endif // NVWAL_FAULTSIM_CRASH_SWEEP_HPP
