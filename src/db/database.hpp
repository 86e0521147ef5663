/**
 * @file
 * The SQLite-like embedded database facade.
 *
 * One rowid-keyed table (B+-tree), a DRAM page cache, and a
 * selectable write-ahead-log mode:
 *
 *   - WalMode::FileStock     -- SQLite 3.8-style WAL file on flash
 *   - WalMode::FileOptimized -- + aligned frames & pre-allocation
 *   - WalMode::Nvwal         -- the paper's NVRAM write-ahead log,
 *                               in any NvwalConfig variant
 *
 * Transactions follow SQLite's WAL-mode concurrency model: a single
 * writer with an exclusive write lock (section 4.1), explicit
 * begin/commit/rollback and autocommit for standalone statements,
 * plus any number of concurrent snapshot readers obtained through
 * Database::connect(). CPU costs of query processing are charged to
 * the simulated clock per statement and per transaction, calibrated
 * in CostModel.
 *
 * Locking discipline (acquire strictly in this order):
 *   1. _writerMutex  -- serializes write transactions begin..commit;
 *   2. _engineMutex  -- the big engine lock guarding the pager, WAL,
 *      catalog, tables, and MetricsRegistry (recursive: public
 *      operations nest);
 *   3. _commitQueueMutex / _ckptMutex -- leaf locks, never held while
 *      acquiring the ones above.
 * The simulated clock is atomic and is the only lock-free piece of
 * shared engine state; snapshot readers otherwise run on private
 * SnapshotCaches and take the engine lock only to fetch a missing
 * page.
 */

#ifndef NVWAL_DB_DATABASE_HPP
#define NVWAL_DB_DATABASE_HPP

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.hpp"
#include "common/bytes.hpp"
#include "core/nvwal_log.hpp"
#include "db/env.hpp"
#include "db/flight_recorder.hpp"
#include "db/mw_state.hpp"
#include "pager/pager.hpp"
#include "wal/file_wal.hpp"
#include "wal/rollback_journal.hpp"

namespace nvwal
{

/** Which logging/journaling implementation backs the database. */
enum class WalMode
{
    /** SQLite's classic rollback journal (DELETE mode) on flash. */
    RollbackJournal,
    FileStock,
    FileOptimized,
    Nvwal,
};

/**
 * Per-transaction durability level (DESIGN.md §11). Selected at
 * commit time, so one connection can mix levels freely.
 */
enum class Durability
{
    /** Durable on return (today's behavior; the paper's baseline). */
    Sync,
    /**
     * Durable on return, batched with concurrent committers through
     * the group-commit queue (identical to Sync on the direct
     * single-threaded API).
     */
    Group,
    /**
     * Checksum commit (paper §3.2): the commit returns as soon as
     * the frames and commit mark are *written*, with no flush or
     * persist barrier. The transaction becomes guaranteed durable
     * when its epoch hardens -- within the configured
     * bounded-staleness window -- and recovery keeps the longest
     * valid committed prefix of un-hardened epochs.
     */
    Async,
};

/**
 * How a connection commit behaves (DESIGN.md §13). Replaces the
 * positional `commit(Durability)` overload: call sites name the knobs
 * they change and inherit defaults for the rest.
 */
struct CommitOptions
{
    Durability durability = Durability::Group;
    /**
     * For Durability::Async: block until the commit's epoch hardens
     * before returning (the ack itself is still issued without a
     * barrier, so group batching is preserved). Ignored -- always
     * effectively true -- for Sync/Group.
     */
    bool waitForHarden = true;
    /**
     * Multi-writer mode only: how many times Connection::transact()
     * re-runs its body after an optimistic-validation Conflict before
     * surfacing the status. Plain commit() never retries (the
     * transaction body would need re-running).
     */
    int maxConflictRetries = 0;
};

/** How a Connection opened by Database::connect behaves. */
struct ConnectOptions
{
    /**
     * Let write statements outside an explicit transaction auto-open
     * one (the pre-§13 implicit behavior). Off by default: a write
     * statement without begin() fails with InvalidArgument so a
     * forgotten begin() cannot silently run N one-statement
     * transactions.
     */
    bool autoWriteTxn = false;
};

/** Database configuration. */
struct DbConfig
{
    std::string name = "app.db";
    WalMode walMode = WalMode::Nvwal;
    /** NVWAL scheme knobs (walMode == Nvwal). */
    NvwalConfig nvwal;
    std::uint32_t pageSize = 4096;
    /**
     * Reserved bytes per page. Unset picks the paper's setting for
     * the mode: 0 for the stock WAL and the rollback journal, 24
     * otherwise (the early-split/aligned-frame optimization of
     * section 5.4, also applied to NVWAL).
     */
    std::optional<std::uint32_t> reservedBytes;
    /**
     * Auto-checkpoint threshold in page writes -- one per page per
     * committed transaction, SQLite's meaning of a WAL "frame"
     * (SQLite default: 1000). Not in NVWAL frames: a diff-logged page
     * may ship as several range frames (NvwalConfig::diffGranularity),
     * and the checkpoint cadence must not depend on that split.
     */
    std::uint64_t checkpointThreshold = 1000;
    bool autoCheckpoint = true;
    /**
     * Incremental auto-checkpointing: instead of one blocking
     * checkpoint at the threshold, write back at most
     * checkpointStepPages pages after each commit until the log can
     * be truncated. Bounds the per-commit latency spike.
     */
    bool incrementalCheckpoint = false;
    std::uint32_t checkpointStepPages = 8;
    /**
     * Run a background checkpointer thread that drains the log with
     * incremental checkpointStep() rounds whenever a commit pushes
     * pageWritesSinceCheckpoint() past checkpointThreshold, so
     * foreground commits never absorb the write-back. While it runs,
     * the in-commit auto-checkpoint is replaced by a wakeup of the
     * thread. Snapshot pins bound its progress (the WAL refuses to
     * truncate past the oldest pin).
     */
    bool backgroundCheckpointer = false;
    /**
     * Bounded-staleness window for Durability::Async: a harden is
     * forced once this many epochs (async commit batches) are
     * pending, so at most asyncMaxEpochs epochs can be lost to a
     * crash. Must be >= 1.
     */
    std::uint32_t asyncMaxEpochs = 4;
    /**
     * Second half of the staleness bound: a harden is forced when
     * the oldest pending epoch has been un-hardened for this much
     * simulated time. 0 disables the age bound.
     */
    std::uint64_t asyncMaxStalenessNs = 1000000;  // 1 ms
    /**
     * Retire pending epochs from a background durability thread
     * (NVLog-style background syncing) instead of inline at the
     * staleness bound. Off by default: the crash-sweep harness needs
     * the deterministic inline schedule.
     */
    bool backgroundDurability = false;
    /**
     * Set by ShardedDatabase on every member it opens. Members share
     * one Env (and so one NVRAM heap): whole-heap maintenance that is
     * safe on a standalone database -- vacuum()'s reopen-driven heap
     * recovery in particular -- would reclaim blocks other shards
     * hold in flight, so it is refused while this is set.
     */
    bool shardMember = false;
    /**
     * NVRAM flight recorder (DESIGN.md §12): a persistent telemetry
     * ring next to the WAL, appended with plain stores only (zero
     * flushes/barriers on every commit path) and parsed into a
     * RecoveryReport on open. Only effective with WalMode::Nvwal;
     * silently off when the heap has no namespace slot left.
     */
    bool flightRecorder = true;
    /** Ring capacity in 40-byte records (clamped to >= 16). */
    std::uint32_t frRingRecords = 512;
    /**
     * Sample the counter set below into CounterSnapshot records every
     * N committed group batches. 0 disables sampling.
     */
    std::uint32_t frSnapshotEveryBatches = 64;
    /**
     * Counters sampled by the periodic snapshot. Empty picks a small
     * default set; every name must resolve via frCounterNameForHash
     * to decode symbolically in forensics output.
     */
    std::vector<std::string> frSnapshotCounters;
    /** Shard ordinal stamped into the ring header (set by the shard
     *  layer together with shardMember). */
    std::uint32_t frShard = 0;
    /**
     * Multi-writer engine (DESIGN.md §13): each Connection appends
     * commits to a private NVRAM log ("<wal ns>-cNN") ordered by a
     * global epoch counter, with optimistic page-level validation at
     * commit instead of the writer mutex. Requires WalMode::Nvwal
     * with SyncMode::Lazy; incompatible with shard membership and the
     * background checkpointer/durability threads (commits already
     * never block on write-back or barriers). The direct Database
     * statement API remains available through an internal root
     * connection.
     */
    bool multiWriter = false;
    /**
     * Number of per-connection logs (multiWriter only, 1..32).
     * Connections hash onto log slots, so more logs than concurrent
     * writers just costs namespace slots; fewer serializes appends of
     * the connections sharing a slot (commits stay optimistic).
     */
    std::uint32_t writerLogs = 8;
};

/**
 * Validate @p config before any engine state is built: page size
 * bounds (nonzero, <= 64 KiB, frame headers store a 16-bit length),
 * non-empty database name, and an NVWAL heap namespace that fits the
 * heap's fixed-width root-directory slots. Database::open runs this
 * first, so a bad configuration fails with a descriptive status
 * instead of asserting deep inside the pager or heap.
 */
Status validateDbConfig(const DbConfig &config);

class Database;
class Connection;

/**
 * Handle to one named table (a rowid-keyed B+-tree registered in the
 * database catalog). Obtained from Database::openTable(); owned by
 * the Database and invalidated by dropTable() and rollback().
 */
class Table
{
  public:
    Status insert(RowId key, ValueView value);
    Status update(RowId key, ValueView value);
    Status remove(RowId key);
    Status get(RowId key, ByteBuffer *value);
    Status scan(RowId lo, RowId hi, const BTree::ScanCallback &visit);
    Status count(std::uint64_t *out);

    const std::string &name() const { return _name; }
    BTree &btree() { return _tree; }

  private:
    friend class Database;
    Table(Database &db, std::string name, RowId catalog_id, PageNo root);

    Database &_db;
    std::string _name;
    RowId _catalogId;
    BTree _tree;
};

/**
 * An embedded database: one writer at a time, any number of snapshot
 * readers (through Connection handles).
 */
class Database
{
  public:
    /** The table the record-level convenience methods operate on. */
    static constexpr const char *kDefaultTable = "main";
    /** Open (and recover) a database on @p env. */
    static Status open(Env &env, DbConfig config,
                       std::unique_ptr<Database> *out);

    /**
     * Reconstruct a database from the media image that survived a
     * power failure: resets @p out, drops the file system's volatile
     * state, re-attaches the NVRAM heap and runs full recovery. This
     * is the entry point crash tests and the faultsim harness use
     * after catching a PowerFailure thrown by the NVRAM device (which
     * has already applied its survival policy by then). @p out may
     * hold the pre-crash database; it is destroyed first. Any
     * Connection into the pre-crash handle must be destroyed before
     * calling this.
     */
    static Status recoverAfterCrash(Env &env, DbConfig config,
                                    std::unique_ptr<Database> *out);

    ~Database();
    Database(const Database &) = delete;
    Database &operator=(const Database &) = delete;

    // ---- connections ------------------------------------------------

    /**
     * Open a Connection: a per-thread handle that can run snapshot
     * read transactions concurrently with the single writer and
     * enters write transactions through the group-commit queue. The
     * connection must be destroyed before the Database.
     */
    Status connect(std::unique_ptr<Connection> *out);

    /** connect() with per-connection behavior knobs. */
    Status connect(const ConnectOptions &options,
                   std::unique_ptr<Connection> *out);

    // ---- transactions ---------------------------------------------

    /** Begin an explicit write transaction. */
    Status begin();

    /**
     * Commit: log dirty pages + commit mark, then auto-checkpoint.
     * Durability::Async returns before the persist barrier; the
     * transaction's epoch (see lastCommitEpoch()) hardens within the
     * configured staleness window, at the next strict commit or
     * checkpoint, or via flushAsyncCommits()/waitForAsyncEpoch().
     */
    Status commit(Durability durability = Durability::Sync);

    /** Discard all uncommitted changes. */
    Status rollback();

    bool inTransaction() const;

    // ---- tables ----------------------------------------------------

    /** Create a new, empty table. Fails if the name exists. */
    Status createTable(const std::string &name);

    /** Open a handle to an existing table; NotFound otherwise. */
    Status openTable(const std::string &name, Table **out);

    /**
     * Drop a table: free all its pages to the database free list and
     * remove it from the catalog. The default table cannot be
     * dropped. Existing Table handles to it become invalid.
     */
    Status dropTable(const std::string &name);

    /** Names of all tables, in creation order. */
    Status listTables(std::vector<std::string> *out);

    // ---- statements (autocommit when no transaction is open) -------
    // These operate on the default table ("main").

    Status insert(RowId key, ValueView value);
    Status update(RowId key, ValueView value);
    Status remove(RowId key);
    Status get(RowId key, ByteBuffer *value);
    Status scan(RowId lo, RowId hi, const BTree::ScanCallback &visit);
    Status count(std::uint64_t *out);

    // ---- asynchronous durability (DESIGN.md §11) --------------------

    /**
     * Harden every pending async epoch now: one coalesced flush +
     * persist barrier over all of their frames, then complete the
     * acks. The clean-shutdown companion of Durability::Async.
     */
    Status flushAsyncCommits();

    /**
     * Block until epoch @p epoch is hardened. Without a background
     * durability thread this hardens inline (equivalent to
     * flushAsyncCommits() when the epoch is still pending).
     */
    Status waitForAsyncEpoch(std::uint64_t epoch);

    /** Async commits acknowledged but not yet guaranteed durable. */
    std::uint64_t asyncAcksPending() const;

    /** Newest hardened epoch (0 = none issued or none hardened). */
    std::uint64_t hardenedEpoch() const;

    /**
     * Epoch assigned to this handle's most recent Durability::Async
     * commit (0 when none, or when the commit dirtied nothing and
     * was trivially durable).
     */
    std::uint64_t lastCommitEpoch() const;

    // ---- maintenance -----------------------------------------------

    /** Force a checkpoint (write-back + log truncation). */
    Status checkpoint();

    /**
     * One incremental checkpoint round: write back at most
     * @p max_pages pages (0 = the configured checkpointStepPages).
     * Busy inside a write transaction. Snapshot pins clamp how far
     * the .db file advances; see WriteAheadLog::checkpointStep().
     */
    Status checkpointStep(std::uint32_t max_pages, bool *done);

    /**
     * Rebuild the database compactly (SQLite VACUUM): checkpoint,
     * copy every table in key order into a fresh file (dropping
     * free-list pages, freeblock fragmentation and dead overflow
     * chains), then atomically swap the files. Fails with Busy
     * inside a transaction or while any snapshot is pinned. Table
     * handles are invalidated.
     */
    Status vacuum();

    /**
     * Structural validation of the catalog and every table (page
     * invariants, key ordering, uniform leaf depth).
     */
    Status verifyIntegrity();

    // ---- two-phase commit (engine-locked; used by the shard layer) --

    /**
     * Resolve a transaction recovery left in doubt: persist the
     * decision in this database's WAL and apply or discard the
     * staged frames. On commit the pager is resynchronized with the
     * log (page count, dropped clean pages) so the applied frames
     * become visible. NotFound when @p gtid is not in doubt here.
     */
    Status resolvePreparedTxn(std::uint64_t gtid, bool commit);

    /** Gtids of recovered PREPAREs still awaiting a decision. */
    std::vector<std::uint64_t> inDoubtTransactions() const;

    /** Durable decision lookup for @p gtid (see WAL counterpart). */
    bool lookupDecision(std::uint64_t gtid, bool *commit) const;

    /** Largest gtid in any surviving PREPARE/DECISION record. */
    std::uint64_t walMaxSeenGtid() const;

    /** Truncation guard passthroughs (WriteAheadLog::acquire...). */
    void holdWalForTwoPhase();
    void releaseWalTwoPhaseHold();

    // ---- crash forensics (DESIGN.md §12) ----------------------------

    /**
     * Post-mortem built on open from the flight-recorder ring that
     * survived in NVRAM, cross-checked against the recovered WAL.
     * Immutable for the handle's lifetime. recorderEnabled is false
     * when the recorder is off (config or non-NVWAL mode).
     */
    const RecoveryReport &recoveryReport() const { return _recoveryReport; }

    /**
     * Flush + persist the recorder ring now (engine-locked). Tests
     * and tools only: commit/checkpoint paths never publish, so the
     * recorder provably adds zero barriers and zero flush syscalls
     * to every measured path.
     */
    Status publishFlightRecorder();

    // ---- introspection ----------------------------------------------

    WriteAheadLog &wal() { return *_wal; }
    Pager &pager() { return *_pager; }
    Env &env() { return _env; }
    const DbConfig &config() const { return _config; }

    /**
     * Engine-locked view of WAL page writes not yet checkpointed --
     * the unit checkpointThreshold counts: safe to poll from any
     * thread, e.g. to watch the background checkpointer drain.
     * wal().pageWritesSinceCheckpoint() gives the same number (in
     * single-writer mode) but is only safe while nothing else runs.
     */
    std::uint64_t walPageWritesSinceCheckpoint() const;

    /** Engine-locked read of a metrics counter (see statValue note). */
    std::uint64_t statValue(const std::string &name) const;

    /** Engine-locked read of a metrics gauge. */
    std::uint64_t statGauge(const std::string &name) const;

    // ---- multi-writer introspection (DESIGN.md §13) -----------------

    /** True when the multi-writer engine is running. */
    bool multiWriterActive() const { return _mwActive; }

    /** Contiguous published epoch floor (multi-writer mode). */
    std::uint64_t mwPublishedEpoch() const;

    /** Durable epoch floor (multi-writer mode). */
    std::uint64_t mwHardenedEpoch() const;

    /**
     * NVRAM blocks reachable from the multi-writer anchor and every
     * per-connection log (leak accounting in the crash sweeps; 0 when
     * the engine is off).
     */
    std::uint64_t mwReachableNvramBlocks() const;

    /**
     * Bumped on every engine (re)build -- open, crash recovery, and
     * the vacuum file swap. Cached reader state keyed on a WAL commit
     * sequence must also key on this: a rebuild resets the sequence
     * while moving every table root.
     */
    std::uint64_t engineGeneration() const
    { return _engineGeneration.load(std::memory_order_acquire); }

  private:
    friend class Table;
    friend class Connection;

    /**
     * One transaction's frames queued for group commit. The queued
     * entry owns deep copies of the dirty pages so the committing
     * writer can release the write lock (letting the next writer
     * mutate the shared cache) while the batch is still in flight.
     */
    struct GroupEntry
    {
        struct Frame
        {
            PageNo pageNo = kNoPage;
            ByteBuffer page;
            DirtyRanges ranges;
            /** Pager-observed dirty-ratio EWMA (see FrameWrite). */
            std::uint8_t observedDirtyPct = 0;
        };
        /**
         * What the leader appends for this entry: a plain commit
         * (frames + commit mark), a 2PC PREPARE (frames + PREPARE
         * record under gtid), or a 2PC DECISION record (no frames).
         */
        enum class Kind
        {
            Commit,
            Prepare,
            Decision,
        };
        Kind kind = Kind::Commit;
        std::uint64_t gtid = 0;          //!< Prepare/Decision only
        bool decisionCommit = false;     //!< Decision only
        /** Async commits append without barriers (Commit kind only). */
        bool async = false;
        /** Out: epoch assigned to an async entry by the leader. */
        std::uint64_t epoch = 0;
        /** Transaction sequence at begin (flight-recorder ack id). */
        std::uint64_t txnSeq = 0;
        std::vector<Frame> frames;
        std::uint32_t dbSizePages = 0;
        /**
         * True when the owner already published the transaction to
         * the shared cache (marked pages clean) before durability; a
         * failed append then poisons the database instead of being
         * retryable.
         */
        bool finalized = false;
        bool done = false;        //!< guarded by _commitQueueMutex
        Status status;
    };

    Database(Env &env, DbConfig config);

    Status openInternal();
    Status autocommitBegin(bool *started);
    Status autocommitEnd(bool started, Status op_status);
    void chargeStatement(std::size_t payload_bytes);

    /** Scan the catalog for @p name. */
    Status findCatalogEntry(const std::string &name, RowId *id,
                            PageNo *root, bool *found);
    Status defaultTable(Table **out);

    /** Engine-locked bookkeeping shared by both begin paths. */
    Status beginTxnBody();
    /** Engine-locked rollback work (no lock release). */
    void rollbackBody();

    // ---- group commit ----------------------------------------------

    /** Deep-copy the dirty page set; false when nothing is dirty. */
    bool collectDirtyFrames(GroupEntry *entry);

    /** Borrow a queued entry's pages as one WAL transaction. */
    static TxnFrames entryToTxn(const GroupEntry &e);

    /**
     * Queue @p entry and drive it to durability: the first committer
     * becomes the leader and appends every queued transaction as one
     * WAL group (one barrier pair for the whole batch); the rest wait
     * as followers. @p release_after_enqueue, when non-null, is the
     * caller's write lock, released as soon as the entry is queued so
     * the next writer can overlap its transaction body with this
     * batch -- that release order (queue, then unlock) is what keeps
     * WAL append order equal to writer-lock order.
     */
    Status submitAndWait(GroupEntry *entry,
                         std::unique_lock<std::mutex> *release_after_enqueue);

    /**
     * Write-intent bookkeeping for the group-commit combining window.
     * An intent is registered *before* the writer mutex is acquired
     * (both begin paths) and released exactly once when that
     * transaction stops being a commit candidate: after a durable
     * commit, after rollback, on a failed begin, or when the commit
     * turns out to be empty. The leader's combining wait uses the
     * intent count -- not the queue depth -- so it keeps the batch
     * open while writers that already announced themselves are still
     * running their transaction bodies.
     */
    void noteWriteIntent();
    void endWriteIntent();

    /** Leader body: append one batch under the engine lock. */
    Status appendGroup(const std::vector<GroupEntry *> &batch);

    /** Post-commit auto-checkpoint (inline or checkpointer wakeup). */
    Status maybeCheckpointAfterCommit();

    // ---- flight recorder (DESIGN.md §12) ----------------------------

    /**
     * Append one ring record if the recorder is live. Caller holds
     * the engine lock (every call site does); plain stores only.
     */
    void frRecord(FrRecordType type, std::uint8_t flags,
                  std::uint16_t a16, std::uint32_t a32, std::uint64_t a64,
                  std::uint64_t b64 = 0);
    /** Checkpoint round id truncated for record stamping (0 for
     *  non-NVWAL logs, which never carry durable-claim records). */
    std::uint32_t frCheckpointId32() const;
    /** Record a completed harden: marks + newest hardened epoch. */
    void frRecordHarden(FrHardenReason reason);
    /** Record truncation if the WAL's checkpoint round advanced past
     *  @p ckpt_before, and rebase the marks-since-checkpoint count. */
    void frNoteTruncation(std::uint64_t ckpt_before);
    /** Periodic counter sampling, every frSnapshotEveryBatches. */
    void frMaybeSnapshotCounters();
    /** Create/attach the ring and build _recoveryReport (open path,
     *  after WAL recovery; @p stats_before spans _wal->recover()). */
    void frOpenAndBuildReport(const StatsSnapshot &stats_before);

    // ---- durability-epoch pipeline (DESIGN.md §11) ------------------

    /**
     * Issue the next epoch for @p acks async commits appended up to
     * the WAL's current commitSeq(). Caller holds the engine lock.
     */
    std::uint64_t registerAsyncEpoch(std::uint32_t acks);

    /**
     * Complete the acks of every pending epoch at or below the WAL's
     * hardenedSeq() (counters, gauge, cv). Caller holds the engine
     * lock; called after anything that may have advanced the horizon
     * (harden, strict append, checkpoint).
     */
    void completePendingAcks();

    /**
     * Enforce the bounded-staleness window: harden inline (or kick
     * the durability thread) when the pending-epoch count or the
     * oldest epoch's age crosses the configured bound. Caller holds
     * the engine lock.
     */
    Status maybeHardenAsync();

    // ---- background durability thread -------------------------------

    void durabilityMain();
    void kickDurability();
    void stopDurability();

    // ---- Connection entry points (writer lock held by the caller) --

    Status beginFromConnection();
    Status commitFromConnection(std::unique_lock<std::mutex> *writer_lock,
                                Durability durability,
                                std::uint64_t *ack_epoch);
    Status rollbackFromConnection(std::unique_lock<std::mutex> *writer_lock);
    /**
     * 2PC phase 1: persist the open transaction's frames plus a
     * PREPARE record for @p gtid through the group-commit queue. The
     * transaction stays open and the caller KEEPS the writer lock --
     * the shard remains write-locked until decideFromConnection, so
     * at most one staged transaction exists per shard.
     */
    Status prepareFromConnection(std::uint64_t gtid);
    /**
     * 2PC phase 2: persist the DECISION record for @p gtid, apply or
     * roll back the local transaction accordingly, then release
     * @p writer_lock. Ends the write transaction either way.
     */
    Status decideFromConnection(std::uint64_t gtid, bool commit,
                                std::unique_lock<std::mutex> *writer_lock);
    void releaseConnection(Connection *conn);

    // ---- multi-writer engine (DESIGN.md §13) ------------------------
    //
    // Lock order within the engine: _mwCkptMutex, then _mwHardenMutex,
    // then a slot mutex, then _mwMutex. The engine lock may be taken
    // before _mwMutex (open path), never after. After activation every
    // flight-recorder append happens under _mwMutex, which replaces
    // the engine lock as the recorder's serialization.

    /**
     * Tail of openInternal when config.multiWriter: attach/create the
     * persistent anchor, recover the per-connection logs, merge their
     * surviving epochs above the anchor's base into the .db file (in
     * global epoch order, keeping each log's prefix-consistent slice
     * and stopping at the first gap), persist the advanced anchor,
     * truncate the logs, and start the engine. @p stats_before spans
     * the whole recovery so the rebuilt forensics report sees the
     * per-connection logs' recovery counters too.
     */
    Status mwActivate(const StatsSnapshot &stats_before);

    /**
     * Serve @p page_no as of published floor @p floor: the overlay
     * version if one exists at or below the floor, else the .db base
     * image. @p read_epoch (optional) gets the version's epoch, or
     * @p floor when the base image is current.
     */
    Status mwFetchPage(PageNo page_no, std::uint64_t floor, ByteSpan out,
                       std::uint64_t *read_epoch);

    /**
     * Open an optimistic write transaction: record its begin floor in
     * _mwActiveBegins (checkpoint clamp) and return it; @p db_size
     * gets the database size at that floor and @p txn_seq the
     * forensics transaction id for the eventual CommitAck. Waits for
     * the published floor to reach @p min_floor (the connection's own
     * last commit epoch) so every connection reads its own writes.
     */
    std::uint64_t mwBeginTxn(std::uint64_t min_floor,
                             std::uint32_t *db_size,
                             std::uint64_t *txn_seq);

    /** Close a write transaction that did not publish an epoch
     *  (rollback, conflict, empty write set, failed append). */
    void mwEndTxn(std::uint64_t begin_floor);
    /** Same, caller already holds _mwMutex. */
    void mwEndTxnLocked(std::uint64_t begin_floor);

    /**
     * Validate + claim + append + publish one workspace commit from
     * connection slot @p slot. Returns Conflict (no side effects
     * beyond the conflict counter) when a read-set page was
     * republished after the workspace's begin floor; poisons the
     * engine if the append fails after its epoch was claimed.
     */
    Status mwCommitWorkspace(std::uint32_t slot, MwWorkspace &ws,
                             const CommitOptions &opts,
                             std::uint64_t txn_seq,
                             std::uint64_t *epoch_out);

    /**
     * Group harden: wait until the published floor reaches @p target,
     * then run ONE shared persist barrier. Every commit flushed its
     * frame lines before publishing, so the single barrier makes all
     * published epochs at or below the sampled floor durable.
     */
    Status mwHardenUpTo(std::uint64_t target, FrHardenReason reason);

    /**
     * Full multi-writer checkpoint: harden the published floor, write
     * the newest overlay version of every page at or below the clamp
     * floor (pins and active begins hold it back) to the .db file,
     * fsync, persist the advanced anchor, prune the overlay, and
     * truncate every log whose epochs are all covered.
     */
    Status mwCheckpoint();
    /** Checkpoint body; caller holds _mwCkptMutex. */
    Status mwCheckpointLocked();

    /** Post-commit trigger: run mwCheckpoint() once the configured
     *  frame threshold is crossed and no other round is active. */
    void mwMaybeCheckpoint();

    /** Pin a read snapshot at the current published floor; @p db_size
     *  gets the size at that floor. Waits for the floor to reach
     *  @p min_floor first (a connection passes its last commit epoch
     *  so its reads observe its own writes). */
    std::uint64_t mwPinRead(std::uint32_t *db_size,
                            std::uint64_t min_floor = 0);
    void mwUnpinRead(std::uint64_t floor);

    /** Flight-recorder append under _mwMutex (the engine lock no
     *  longer serializes the ring once the engine is active). */
    void mwFrRecord(FrRecordType type, std::uint8_t flags,
                    std::uint16_t a16, std::uint32_t a32,
                    std::uint64_t a64, std::uint64_t b64 = 0);

    // ---- background checkpointer -----------------------------------

    void checkpointerMain();
    void kickCheckpointer();
    void stopCheckpointer();

    Env &_env;
    DbConfig _config;
    std::unique_ptr<DbFile> _dbFile;
    std::unique_ptr<Pager> _pager;
    std::unique_ptr<WriteAheadLog> _wal;
    /** Non-null when _wal is the NVRAM log (checkpointId access). */
    NvwalLog *_nvwalLog = nullptr;

    // ---- flight recorder (DESIGN.md §12) ----------------------------

    std::unique_ptr<FlightRecorder> _flightRecorder;
    RecoveryReport _recoveryReport;
    /**
     * WAL commitSeq at the last observed truncation. Recovered
     * commit sequences restart at marks-since-checkpoint, so
     * `commitSeq - _frMarksBase` is the media-absolute "commit marks
     * since the current checkpoint round" every durable-claim record
     * carries. Guarded by the engine lock.
     */
    std::uint64_t _frMarksBase = 0;
    std::uint32_t _frBatchesSinceSnapshot = 0;
    /** Catalog tree at the primary root (page 2): id -> entry. */
    std::unique_ptr<BTree> _catalog;
    std::map<std::string, std::unique_ptr<Table>> _tables;
    bool _inTxn = false;
    std::uint32_t _txnStartPageCount = 0;
    /** Monotonic id of the open/last transaction (trace attribution). */
    std::uint64_t _txnSeq = 0;
    /** Sim time at begin() of the open transaction. */
    SimTime _txnBeginNs = 0;
    /**
     * Set when a group append failed after its transactions were
     * already published to the shared cache; every later transaction
     * fails with this status until the database is reopened.
     */
    Status _poisoned = Status::ok();

    // ---- concurrency state ------------------------------------------

    /** Serializes write transactions (begin .. commit/rollback). */
    std::mutex _writerMutex;
    /**
     * Big engine lock: pager, WAL, catalog, tables, metrics.
     * Recursive because public operations nest (commit ->
     * checkpoint, statements -> autocommit).
     */
    mutable std::recursive_mutex _engineMutex;
    /**
     * Held across Database-level (non-Connection) write transactions.
     * The direct API is single-threaded by contract; concurrent
     * writers must use Connections.
     */
    std::unique_lock<std::mutex> _dbWriterLock;

    std::mutex _commitQueueMutex;
    std::condition_variable _commitCv;
    std::vector<GroupEntry *> _commitQueue;
    bool _groupLeaderActive = false;
    /**
     * Writers between begin-intent and transaction close. Atomic so
     * begin paths can register themselves before taking any lock;
     * decrements happen under _commitQueueMutex so the leader's
     * combining wait cannot miss the wakeup.
     */
    std::atomic<std::uint32_t> _writeIntents{0};

    std::thread _checkpointer;
    std::mutex _ckptMutex;
    std::condition_variable _ckptCv;
    bool _ckptStop = false;
    bool _ckptKick = false;

    // ---- durability-epoch pipeline ----------------------------------

    /** One batch of async commits awaiting its persist barrier. */
    struct AsyncEpoch
    {
        std::uint64_t epoch = 0;
        CommitSeq seq = 0;        //!< WAL commitSeq when issued
        std::uint32_t acks = 0;   //!< transactions acked against it
        SimTime issuedNs = 0;     //!< sim time at issue (age bound)
    };
    /**
     * Leaf lock guarding the epoch deque and ack bookkeeping (same
     * tier as _commitQueueMutex/_ckptMutex: never held while taking
     * the engine lock).
     */
    mutable std::mutex _asyncMutex;
    std::condition_variable _asyncCv;
    std::vector<AsyncEpoch> _asyncEpochs;     //!< pending, FIFO
    std::uint64_t _epochSequencer = 0;        //!< last epoch issued
    std::uint64_t _hardenedEpoch = 0;         //!< newest completed
    std::uint64_t _asyncAcksPending = 0;
    std::uint64_t _lastCommitEpoch = 0;       //!< direct-API handle
    bool _asyncAbandoned = false;             //!< shutdown: stop waits

    std::thread _durabilityThread;
    std::mutex _durMutex;
    std::condition_variable _durCv;
    bool _durStop = false;
    bool _durKick = false;

    std::uint32_t _openConnections = 0;  //!< guarded by _engineMutex
    std::uint32_t _nextConnSlot = 0;     //!< guarded by _engineMutex

    // ---- multi-writer engine state (DESIGN.md §13) ------------------

    /** One per-connection NVRAM log and its append serialization. */
    struct MwSlot
    {
        std::unique_ptr<NvwalLog> log;
        /** Serializes appends by connections sharing this slot; held
         *  while writeTxnEpoch + flushRuns run, released before the
         *  epoch publishes under _mwMutex. Mutable so const block
         *  accounting can sample the log. */
        mutable std::mutex mutex;
        std::uint64_t lastAppendedEpoch = 0;  //!< guarded by mutex
    };

    /** An epoch between claim and publish (guarded by _mwMutex). */
    struct MwPending
    {
        std::uint64_t epoch = 0;
        std::uint32_t slot = 0;
        std::uint32_t dbSizePages = 0;
        bool appended = false;
    };

    bool _mwActive = false;
    NvOffset _mwMetaOff = kNullNvOffset;
    std::uint64_t _mwGeneration = 0;
    std::vector<std::unique_ptr<MwSlot>> _mwSlots;

    /**
     * Innermost multi-writer lock: epoch claim/publish, the overlay,
     * page epochs, pins, active begins, pending queue, poison status,
     * and (after activation) the flight recorder.
     */
    mutable std::mutex _mwMutex;
    std::condition_variable _mwCv;
    std::uint64_t _mwEpoch = 0;      //!< last epoch claimed
    std::uint64_t _mwPublished = 0;  //!< contiguous published floor
    std::uint64_t _mwHardened = 0;   //!< durable floor
    std::uint64_t _mwEpochBase = 0;  //!< merged into the .db file
    std::uint32_t _mwDbSize = 0;     //!< size at _mwPublished
    /** Size at selected epochs <= _mwPublished (checkpoint clamp). */
    std::map<std::uint64_t, std::uint32_t> _mwDbSizeByEpoch;
    PageVersionMap _mwOverlay;
    /** page -> newest published epoch (validation; pruned with the
     *  overlay, so an absent page passes validation by design). */
    std::map<PageNo, std::uint64_t> _mwPageEpochs;
    std::deque<MwPending> _mwPending;
    std::multiset<std::uint64_t> _mwPins;
    std::multiset<std::uint64_t> _mwActiveBegins;
    /** Post-claim append failure: every later commit/harden fails
     *  with this until reopen (multi-writer twin of _poisoned). */
    Status _mwPoisoned = Status::ok();
    std::uint64_t _mwTxnSeq = 0;     //!< forensics ack attribution

    /** Serializes group hardens (one barrier covers many epochs). */
    std::mutex _mwHardenMutex;
    /** Serializes checkpoint rounds; above _mwHardenMutex. */
    std::mutex _mwCkptMutex;
    /**
     * Leaf lock serializing .db file access once the engine runs
     * multi-threaded (checkpoint write-back vs. reader base-image
     * fetches). Never held while acquiring any other lock.
     */
    mutable std::mutex _mwFileMutex;

    /** Shared page-number cursor (= current db size in pages). */
    std::atomic<std::uint32_t> _mwPageCursor{0};
    /** Write-set page writes since the last checkpoint round. */
    std::atomic<std::uint64_t> _mwPageWritesSinceCkpt{0};
    std::atomic<std::uint64_t> _engineGeneration{0};

    /** Root of the default table (resolved once at activation; DDL is
     *  refused in multi-writer mode, so it never moves). */
    PageNo _mwDefaultRoot = kNoPage;
    /** Internal connection backing the direct Database statement API
     *  in multi-writer mode. Destroyed first in ~Database. */
    std::unique_ptr<Connection> _rootConn;

    /** Inputs stashed by frOpenAndBuildReport so mwActivate can
     *  rebuild the report after the cross-log merge. */
    FlightRecording _frParsedRecording;
    FrRecoveredWalState _frWalState;
    StatsSnapshot _frStatsBefore;
};

} // namespace nvwal

#endif // NVWAL_DB_DATABASE_HPP
