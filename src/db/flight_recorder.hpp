/**
 * @file
 * NVRAM flight recorder: a persistent telemetry ring that survives
 * power failure (DESIGN.md §12, docs/FORMAT.md §7).
 *
 * The engine appends compact 40-byte binary records — transaction
 * begin/ack, hardens with epoch + commit-mark counts, checkpoint
 * round start/end, truncations, group-commit batch sizes, 2PC
 * PREPARE/DECISION, periodic counter snapshots — into a fixed-size
 * ring carved out of the NVRAM heap under its own namespace, next to
 * the WAL. Records are written with plain stores and a per-record
 * checksum and are NEVER flushed or fenced on any commit path: the
 * paper's §3.2 argument (unbarriered stores are free, only ordering
 * points cost) applied to telemetry. Durability is therefore
 * best-effort — whatever the cache hierarchy happened to retire
 * survives a crash, torn tail records are detected and discarded by
 * checksum exactly like §3.2 commit marks — but every record's claim
 * is evaluated at write time, so any surviving checksum-valid record
 * states a fact that was true when it was stored. Surviving records
 * are re-persisted eagerly when the ring is re-attached after a
 * crash (recovery path, off every measured path).
 *
 * On recovery the surviving ring is parsed into a RecoveryReport — a
 * structured post-mortem exposing the last durable epoch, the
 * transactions possibly in flight at the crash, checkpoint lag, and
 * cross-checks of every durable-claim record against the recovered
 * WAL (`nvwal_inspect --forensics`, `nvwal_shell forensics`, and the
 * crash-sweep harness all consume it).
 */

#ifndef NVWAL_DB_FLIGHT_RECORDER_HPP
#define NVWAL_DB_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "heap/nv_heap.hpp"
#include "pmem/pmem.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Record types in the flight-recorder ring (docs/FORMAT.md §7). */
enum class FrRecordType : std::uint8_t
{
    /** Recovery completed and the recorder re-attached; delimits the
     *  current incarnation's records. a32=checkpoint round,
     *  a64=recovered commit marks, b64=frames since checkpoint. */
    RecorderOpen = 1,
    /** A transaction began. a64=txn sequence number. */
    TxnBegin = 2,
    /** A commit was acked. a16=Durability (0 sync / 1 group /
     *  2 async), a32=checkpoint round, a64=txn sequence,
     *  b64=durable commit marks (durable claim) or async epoch. */
    CommitAck = 3,
    /** A harden (persist-barrier ordering point) completed.
     *  a16=reason, a32=checkpoint round, a64=hardened commit marks,
     *  b64=newest hardened epoch. Always a durable claim. */
    Harden = 4,
    /** Checkpoint round started. a16=1 full / 0 incremental step,
     *  a32=checkpoint round, a64=frames since checkpoint. */
    CheckpointStart = 5,
    /** Checkpoint round finished. a16=1 when the round completed
     *  (0 = incremental step with work left), a32=checkpoint round
     *  after, a64=frames since checkpoint after. */
    CheckpointEnd = 6,
    /** The WAL truncated. a32=new checkpoint round, a64=commit marks
     *  at truncation, b64=previous round. Durable claim. */
    Truncation = 7,
    /** A group-commit batch was appended. a32=batch size,
     *  a64=newest txn sequence in the batch. */
    GroupBatch = 8,
    /** 2PC PREPARE persisted. a32=checkpoint round, a64=global txn
     *  id. Durable claim (2PC control frames harden eagerly). */
    Prepare = 9,
    /** 2PC DECISION persisted. a16=1 commit / 0 abort,
     *  a32=checkpoint round, a64=global txn id. Durable claim. */
    Decision = 10,
    /** Periodic counter sample. a32=FNV-1a 32-bit hash of the
     *  canonical counter name, a64=value, b64=txn sequence. */
    CounterSnapshot = 11,
    // 12-14: reserved. The retired per-connection-log engine wrote
    // its group hardens, per-log flushes and log truncations here;
    // rings from older media may still hold them (parsed, ignored).
};

/** Highest type code the ring parser accepts (the reserved 12-14). */
inline constexpr std::uint8_t kFrMaxRecordType = 14;

/** Reason codes for FrRecordType::Harden (a16). */
enum class FrHardenReason : std::uint16_t
{
    StrictRun = 0,     //!< sync/group run hardened inline
    WindowEpochs = 1,  //!< asyncMaxEpochs window forced a harden
    WindowStaleness = 2, //!< asyncMaxStalenessNs forced a harden
    Explicit = 3,      //!< flushAsyncCommits()/waitForAsyncEpoch()
    Checkpoint = 4,    //!< checkpoint merged pending async ranges
    Background = 5,    //!< background durability thread
};

/** Bit in FrRecord::flags: the record's claim was already durable
 *  (written after the persist barrier that made it true). */
inline constexpr std::uint8_t kFrFlagDurableClaim = 0x1;

/** One decoded ring record. Field meaning depends on type. */
struct FrRecord
{
    std::uint64_t seq = 0;   //!< monotonic across incarnations
    std::uint8_t type = 0;   //!< FrRecordType
    std::uint8_t flags = 0;
    std::uint16_t a16 = 0;
    std::uint32_t a32 = 0;
    std::uint64_t a64 = 0;
    std::uint64_t b64 = 0;

    bool durableClaim() const { return (flags & kFrFlagDurableClaim) != 0; }
};

/** Parse result: every checksum-valid record surviving in the ring. */
struct FlightRecording
{
    static constexpr std::size_t kNoIndex = ~static_cast<std::size_t>(0);

    bool present = false;          //!< header found and valid
    std::uint32_t capacity = 0;    //!< slots in the ring
    std::uint32_t shard = 0;       //!< shard id stamped at creation
    std::uint64_t nextSeq = 0;     //!< max valid seq + 1 (0 = empty)
    std::uint64_t validRecords = 0;
    std::uint64_t tornSlots = 0;   //!< nonzero slots failing checksum
    std::uint64_t wraps = 0;       //!< completed laps (from max seq)
    std::vector<FrRecord> records; //!< ascending seq
    /** Index of the newest RecorderOpen record, kNoIndex if none
     *  survived (the incarnation boundary is then unknown). */
    std::size_t lastOpenIndex = kNoIndex;
};

/**
 * The persistent ring itself. All mutating calls happen under the
 * owning Database's engine lock (single-threaded per ring); the heap
 * and pmem layers carry their own locks for the shared-Env case.
 */
class FlightRecorder
{
  public:
    static constexpr std::uint64_t kMagic = 0x3152464c4157564eULL; // "NVWALFR1"
    static constexpr std::uint32_t kVersion = 1;
    static constexpr std::uint32_t kHeaderSize = 64;
    static constexpr std::uint32_t kRecordSize = 40;
    static constexpr std::uint32_t kMinCapacity = 16;

    FlightRecorder(NvHeap &heap, Pmem &pmem, MetricsRegistry &stats,
                   std::string heap_namespace, std::uint32_t capacity,
                   std::uint32_t shard = 0);

    /**
     * Attach to an existing ring under the namespace (parsing the
     * surviving records into @p parsed, scrubbing torn slots, and
     * re-persisting the region eagerly) or create a fresh one. A
     * missing namespace slot — e.g. all 64 heap namespace slots taken
     * — disables the recorder and returns the heap's error; the
     * engine treats that as "recorder off", never as a failed open.
     */
    Status openOrCreate(FlightRecording *parsed);

    bool ready() const { return _ready; }

    /** Append one record with plain stores only (no flush, no
     *  barrier, no heap call — exactly one NVRAM memcpy). */
    void append(FrRecordType type, std::uint8_t flags, std::uint16_t a16,
                std::uint32_t a32, std::uint64_t a64, std::uint64_t b64);

    /**
     * Flush + fence + persist the whole region. Never called from
     * commit, harden, group-commit or checkpoint paths — only from
     * tests and tools that want a durable cut of the telemetry.
     */
    void publish();

    std::uint32_t capacity() const { return _capacity; }
    std::uint64_t nextSeq() const { return _nextSeq; }
    const std::string &heapNamespace() const { return _namespace; }

    /** Ring heap namespace derived from the WAL's ("nvwal" ->
     *  "nvwal-fr", "nvwal-s03" -> "nvwal-s03-fr"). */
    static std::string namespaceFor(const std::string &wal_namespace);

    /**
     * Read and parse a ring under @p heap_namespace without a
     * recorder instance (offline media walker for nvwal_inspect;
     * same decoding as openOrCreate, no scrub, no re-persist).
     * NotFound when the namespace was never bound.
     */
    static Status collect(const NvHeap &heap, Pmem &pmem,
                          const std::string &heap_namespace,
                          FlightRecording *out);

  private:
    Status createRing();
    Status attachRing(FlightRecording *parsed);
    /** @p torn_slots, when non-null, collects the slot indexes whose
     *  contents failed the checksum (attach scrubs them). */
    static Status parseRing(Pmem &pmem, NvOffset root,
                            FlightRecording *out,
                            std::vector<std::uint32_t> *torn_slots);

    NvHeap &_heap;
    Pmem &_pmem;
    MetricsRegistry &_stats;
    std::string _namespace;
    std::uint32_t _capacity;
    std::uint32_t _shard;
    NvOffset _root = kNullNvOffset;
    std::uint64_t _nextSeq = 0;
    bool _ready = false;
};

/** FNV-1a 32-bit hash of a counter name (CounterSnapshot::a32). */
std::uint32_t frCounterNameHash(std::string_view name);

/** Canonical counter name for @p hash, nullptr when unknown (the
 *  resolver covers the names the default snapshot set samples). */
const char *frCounterNameForHash(std::uint32_t hash);

/** Printable name of a record type ("commit_ack", ...). */
const char *frRecordTypeName(std::uint8_t type);

/**
 * Ground truth about the recovered WAL that the forensics pass
 * cross-references the ring against.
 */
struct FrRecoveredWalState
{
    std::uint64_t recoveredMarks = 0;     //!< commit marks after recovery
    std::uint64_t recoveredCheckpointId = 0;
    std::uint64_t framesSinceCheckpoint = 0;
    /** This recovery's deltas of the wal.* recovery counters. */
    std::uint64_t tornFramesDetected = 0;
    std::uint64_t framesDiscarded = 0;
    std::uint64_t lostMarks = 0;
    /** 2PC transactions still in doubt right after recovery. */
    std::vector<std::uint64_t> inDoubt;
    /** Decision lookup in the recovered WAL (may be empty). */
    std::function<bool(std::uint64_t gtid, bool *commit)> lookupDecision;
};

/**
 * Structured post-mortem built on every Database open from the
 * surviving ring + the recovered WAL (docs/OBSERVABILITY.md §7).
 */
struct RecoveryReport
{
    bool recorderEnabled = false;
    bool parsed = false;           //!< ring header found and decoded
    std::string heapNamespace;
    std::uint32_t shard = 0;
    FlightRecording recording;     //!< surviving records, pre-scrub

    // Recovered-WAL ground truth (copied from FrRecoveredWalState).
    std::uint64_t recoveredMarks = 0;
    std::uint64_t recoveredCheckpointId = 0;
    std::uint64_t checkpointLagFrames = 0;
    std::uint64_t tornFramesDetected = 0;
    std::uint64_t framesDiscarded = 0;
    std::uint64_t lostMarks = 0;
    std::vector<std::uint64_t> inDoubt;

    // Derived from the crashed incarnation's slice of the ring.
    /** True when a RecorderOpen record survived, so the slice
     *  boundary (and the epoch/in-flight fields) are meaningful. */
    bool incarnationKnown = false;
    std::uint64_t lastDurableEpoch = 0;
    std::uint64_t lastDurableMarks = 0;
    std::uint64_t lastAckedTxn = 0;
    /** Transactions with a surviving begin and no surviving ack — an
     *  upper estimate: a lost ack record also lands a txn here. */
    std::vector<std::uint64_t> possiblyInFlight;
    /** gtids with a surviving PREPARE and no surviving DECISION. */
    std::vector<std::uint64_t> stagedPrepares;

    /**
     * Durable-claim records contradicted by the recovered WAL. Every
     * entry is a genuine recovery bug: a claim is only stamped
     * durable after the barrier that made it true, so recovery must
     * never see less. The crash sweep asserts this list is empty at
     * every injection point.
     */
    std::vector<std::string> inconsistencies;
};

/** Build the post-mortem from a parsed ring + recovered WAL state. */
RecoveryReport buildRecoveryReport(const FlightRecording &recording,
                                   const FrRecoveredWalState &wal);

/** One global transaction's merged 2PC history across shard rings. */
struct GtidTimeline
{
    std::uint64_t gtid = 0;
    std::vector<std::uint32_t> preparedShards;  //!< surviving PREPAREs
    std::vector<std::uint32_t> committedShards; //!< commit decisions
    std::vector<std::uint32_t> abortedShards;   //!< abort decisions
};

/**
 * Merge the Prepare/Decision records of several shard rings into one
 * gtid-keyed cross-shard timeline (ascending gtid). Shard ids come
 * from each recording's stamped shard field. A gtid with PREPAREs on
 * some shards and a commit decision on any is the signature of a
 * crash between the 2PC phases that recovery must have resolved to
 * commit everywhere (presumed abort otherwise).
 */
std::vector<GtidTimeline>
buildCrossShardTimeline(const std::vector<const FlightRecording *> &rings);

/** Render the report as one JSON document ({"forensics": {...}}). */
std::string recoveryReportJson(const RecoveryReport &report);

/** Human-readable rendering (nvwal_shell `forensics`). */
void printRecoveryReport(const RecoveryReport &report, std::FILE *out);

} // namespace nvwal

#endif // NVWAL_DB_FLIGHT_RECORDER_HPP
