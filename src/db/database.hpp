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
 * Database::connect(). With DbConfig::multiWriter, write
 * transactions instead run optimistically in private workspaces and
 * take the write lock only to validate and commit (DESIGN.md §13);
 * either way every commit goes through the one group-commit queue
 * into the one log. The direct statement API below forwards to an
 * internal root Connection, so it shares the one transaction path
 * (and error policy) of every other connection. CPU costs of query
 * processing are charged to the simulated clock per statement and
 * per transaction, calibrated in CostModel.
 *
 * Locking discipline (acquire strictly in this order):
 *   1. _writerMutex  -- serializes write transactions, from begin
 *      (multi-writer: from commit-time validation) until the commit
 *      entry is ordered in the group-commit queue (or rollback); held
 *      by one Connection at a time;
 *   2. _engineMutex  -- the big engine lock guarding the pager, WAL,
 *      catalog, tables, and MetricsRegistry (recursive: public
 *      operations nest);
 *   3. _commitQueueMutex / _asyncMutex -- leaf locks,
 *      never held while acquiring the ones above;
 *   4. the Env's heap, Pmem and NvramDevice locks, in that order; the
 *      device's plain mutex is taken last but for the flash device's,
 *      which a power failure takes under it (DESIGN.md §8.1).
 * The simulated clock is atomic and is the only lock-free piece of
 * shared engine state; snapshot readers and optimistic writers
 * otherwise run on private SnapshotCaches and take the engine lock
 * only to fetch a missing page.
 */

#ifndef NVWAL_DB_DATABASE_HPP
#define NVWAL_DB_DATABASE_HPP

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "common/bytes.hpp"
#include "core/nvwal_log.hpp"
#include "db/env.hpp"
#include "db/flight_recorder.hpp"
#include "db/snapshot_cache.hpp"
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
    /**
     * Page size in bytes. The reserved bytes at the end of each page
     * follow the mode, as in the paper: 0 for the stock WAL and the
     * rollback journal, 24 otherwise (the early-split/aligned-frame
     * optimization of section 5.4, also applied to NVWAL).
     */
    std::uint32_t pageSize = 4096;
    /**
     * Auto-checkpoint threshold in page writes -- one per page per
     * committed transaction, SQLite's meaning of a WAL "frame"
     * (SQLite default: 1000). Not in NVWAL frames: a diff-logged page
     * may ship as several range frames (NvwalConfig::diffGranularity),
     * and the checkpoint cadence must not depend on that split.
     */
    std::uint64_t checkpointThreshold = 1000;
    /**
     * Checkpoint automatically once the log reaches the threshold.
     * The NVRAM log paces the round over later commits, on the flash
     * device's own timeline (DESIGN.md §8.4); the file-based logs run
     * it blocking inside the commit that tripped it, as in the paper.
     */
    bool autoCheckpoint = true;
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
     * NVRAM flight recorder (DESIGN.md §12): a persistent telemetry
     * ring next to the WAL, appended with plain stores only (zero
     * flushes/barriers on every commit path) and parsed into a
     * RecoveryReport on open. Only effective with WalMode::Nvwal;
     * silently off when the heap has no namespace slot left. The ring
     * holds Database::kFrRingRecords records and samples counters
     * every Database::kFrSnapshotEveryBatches group batches.
     */
    bool flightRecorder = true;
    /**
     * Optimistic multi-writer admission (DESIGN.md §13): a write
     * transaction runs in a private workspace pinned at a commit
     * horizon instead of holding the writer lock, and its commit
     * validates the pages it read before installing its own into the
     * shared pager and going through the one group-commit pipeline;
     * a lost race returns StatusCode::Conflict. Requires
     * WalMode::Nvwal. DDL, table handles and vacuum stay
     * single-writer only.
     */
    bool multiWriter = false;
    /**
     * Unused: the per-connection logs it once sized are gone. Still
     * declared because the e2ebench driver, frozen with the
     * benchmark, assigns it; nothing reads or validates it.
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
 * the Database and invalidated by dropTable() and rollback(). Reads
 * run on the shared pager; writes join the direct API's open
 * transaction or autocommit through the root connection.
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
 * readers (through Connection handles). The direct statement and
 * transaction API is one more connection (the root connection), so
 * like any Connection it is used by one thread at a time.
 */
class Database
{
  public:
    /** The table the record-level convenience methods operate on. */
    static constexpr const char *kDefaultTable = "main";
    /** Flight-recorder ring capacity, in 40-byte records. */
    static constexpr std::uint32_t kFrRingRecords = 512;
    /** Flight-recorder counter sampling period, in group batches. */
    static constexpr std::uint32_t kFrSnapshotEveryBatches = 64;
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
    // The direct API's transaction is the root connection's: these
    // behave exactly like the Connection calls of the same name.

    /**
     * Begin an explicit write transaction. Busy when this handle
     * already has one open; waits for the writer slot while another
     * Connection writes.
     */
    Status begin();

    /**
     * Commit: log dirty pages + commit mark, then auto-checkpoint.
     * Maps to Connection::commit(CommitOptions{durability,
     * waitForHarden = durability != Async}): Durability::Async
     * returns before the persist barrier; the transaction's epoch
     * (see lastCommitEpoch()) hardens within the configured staleness
     * window, at the next strict commit or checkpoint, or via
     * flushAsyncCommits()/waitForAsyncEpoch().
     */
    Status commit(Durability durability = Durability::Sync);

    /** Discard all uncommitted changes. */
    Status rollback();

    /** Whether this handle (the root connection) has a write
     *  transaction open. */
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
     * Return once epoch @p epoch is hardened: ok at once when it
     * already is (or is 0), otherwise flushAsyncCommits() inline.
     */
    Status waitForAsyncEpoch(std::uint64_t epoch);

    /** Async commits acknowledged but not yet guaranteed durable. */
    std::uint64_t asyncAcksPending() const;

    /** Newest hardened epoch (0 = none issued or none hardened). */
    std::uint64_t hardenedEpoch() const;

    /**
     * Epoch assigned to this handle's most recent Durability::Async
     * commit (0 when none, or when the commit dirtied nothing and
     * was trivially durable). Commits through other Connections do
     * not move it.
     */
    std::uint64_t lastCommitEpoch() const;

    // ---- maintenance -----------------------------------------------

    /** Force a checkpoint (write-back + log truncation). */
    Status checkpoint();

    /**
     * One incremental checkpoint step: write back at most
     * @p max_pages pages, which must be > 0 (InvalidArgument
     * otherwise; checkpoint() is the full round). Busy inside a
     * write transaction. Snapshot pins clamp how far the .db file
     * advances; see WriteAheadLog::checkpointStep().
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
     * the unit checkpointThreshold counts: safe to call from any
     * thread while other connections commit.
     * wal().pageWritesSinceCheckpoint() gives the same number (in
     * single-writer mode) but is only safe while nothing else runs.
     */
    std::uint64_t walPageWritesSinceCheckpoint() const;

    /**
     * The committed image of @p page_no as of @p horizon, as a
     * snapshot reader sees it (DESIGN.md §16): a copy of the shared
     * pager's clean image when that provably equals the page at the
     * horizon (counted in db.snapshot_pager_fetches), else
     * rebuildCommittedPage(). @p horizon must be pinned or be the
     * current commit sequence. Engine-locked.
     */
    Status fetchCommittedPage(PageNo page_no, CommitSeq horizon,
                              ByteSpan out);

    /**
     * The same page rebuilt without the pager: the WAL's copy at
     * @p horizon, else the .db file. Engine-locked.
     */
    Status rebuildCommittedPage(PageNo page_no, CommitSeq horizon,
                                ByteSpan out);

    /** Engine-locked read of a metrics counter. */
    std::uint64_t statValue(MetricName name) const;

    /** Engine-locked read of a metrics gauge. */
    std::uint64_t statGauge(MetricName name) const;

    /** True when write transactions run with optimistic admission
     *  (DbConfig::multiWriter, once the database is open). */
    bool multiWriterActive() const { return _multiWriter; }

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
        /** Async commits append without barriers. */
        bool async = false;
        /** Out: epoch assigned to an async entry by the leader. */
        std::uint64_t epoch = 0;
        /** Transaction sequence at begin (flight-recorder ack id). */
        std::uint64_t txnSeq = 0;
        /** Publish sequence of the transaction's pages. */
        std::uint64_t publishSeq = 0;
        std::vector<Frame> frames;
        std::uint32_t dbSizePages = 0;
        bool done = false;        //!< guarded by _commitQueueMutex
        Status status;
    };

    Database(Env &env, DbConfig config);

    Status openInternal();
    /**
     * Run @p op (signature Status()) in the root connection's open
     * write transaction, or autocommit it as one of its own: the path
     * of Table writes and DDL.
     */
    template <typename Op>
    Status autocommit(const Op &op);
    void chargeStatement(std::size_t payload_bytes);

    /** Scan the catalog for @p name. */
    Status findCatalogEntry(const std::string &name, RowId *id,
                            PageNo *root, bool *found);
    Status defaultTable(Table **out);
    /** Engine-locked rollback work (no lock release). */
    void rollbackBody();

    /**
     * The shared pager's clean image of @p page_no when it provably
     * equals the committed page at @p horizon (DESIGN.md §16), else
     * an empty span. Charges the simulated DRAM copy the caller makes
     * of it. Engine lock held. Also the committed-page source of
     * NVWAL checkpoint write-back, which copies the image straight
     * into the file system's block.
     */
    ConstByteSpan pagerImage(PageNo page_no, CommitSeq horizon);

    /** pagerImage() copied into @p out; false, nothing copied, if none. */
    bool copyPagerImage(PageNo page_no, CommitSeq horizon, ByteSpan out);

    // ---- group commit ----------------------------------------------

    /**
     * Deep-copy the dirty page set into frames taken from the spare
     * pool; false when nothing is dirty. Engine lock held.
     */
    bool collectDirtyFrames(GroupEntry *entry);

    /**
     * Return @p entry's frames and frame list to the spare pool, so
     * the next commit reuses their buffers. Engine lock held.
     */
    void recycleFrames(GroupEntry *entry);

    /** Borrow a queued entry's pages as one WAL transaction. */
    static void entryToTxn(const GroupEntry &e, TxnFrames *txn);

    /**
     * Queue @p entry and drive it to durability: the first committer
     * becomes the leader and appends every queued transaction as one
     * WAL group (one barrier pair for the whole batch); the rest wait
     * as followers. @p release_after_enqueue is the caller's write
     * lock, released as soon as the entry is queued so
     * the next writer can overlap its transaction body with this
     * batch -- that release order (queue, then unlock) is what keeps
     * WAL append order equal to writer-lock order.
     */
    Status submitAndWait(GroupEntry *entry,
                         std::unique_lock<std::mutex> *release_after_enqueue);

    /**
     * Write-intent bookkeeping for the group-commit combining window.
     * An intent is registered *before* the writer mutex is acquired
     * (Connection::begin) and released exactly once when that
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

    /**
     * Post-commit auto-checkpoint, the one paced policy (DESIGN.md
     * §8.4): once the log has reached the threshold, a commit that
     * finds the flash device idle runs one paced step
     * (WriteAheadLog::checkpointPaced); in the last quarter before
     * twice the threshold its slices wait for their programs, and at
     * twice the threshold the round finishes blocking, so the log
     * stays bounded. Caller holds
     * the engine lock. A step that finds another write transaction
     * open is skipped, not failed: the writer lock was released at
     * enqueue, and the next commit re-trips the threshold. An open
     * multi-writer workspace counts as one until the log reaches
     * twice the threshold. A step that fails is counted and traced
     * but never fails the commit, which is already durable
     * (DESIGN.md §8.3); the next commit past the threshold retries.
     */
    void maybeCheckpointAfterCommit();

    /** What one checkpointRound() runs. */
    enum class RoundKind
    {
        Full,   //!< the whole blocking round
        Step,   //!< one incremental step of at most max_pages pages
        Paced,  //!< one paced step
    };

    /**
     * One checkpoint round or step, the body of every checkpoint
     * path: the full round, a step of at most @p max_pages pages, or
     * a paced step at @p pace (@p done, optional, reports whether the
     * round ended).
     * Brackets it with CheckpointStart/End records, retires the async
     * acks it hardened, and records the truncation and the harden if
     * either happened. Busy inside a write transaction. Takes the
     * engine lock.
     */
    Status checkpointRound(RoundKind kind, std::uint32_t max_pages,
                           CheckpointPace pace, bool *done);

    // ---- flight recorder (DESIGN.md §12) ----------------------------

    /**
     * Append one ring record if the recorder is live; plain stores
     * only. Caller holds the engine lock (the ring's serialization).
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
    /** Periodic counter sampling, every kFrSnapshotEveryBatches. */
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
     * hardenedSeq() (counters, gauge). Caller holds the engine
     * lock; called after anything that may have advanced the horizon
     * (harden, strict append, checkpoint). Returns the number of
     * epochs retired.
     */
    std::size_t completePendingAcks();

    /**
     * Enforce the bounded-staleness window: harden inline when the
     * pending-epoch count or the oldest epoch's age crosses the
     * configured bound. Caller holds the engine lock.
     */
    Status maybeHardenAsync();

    /**
     * Harden every pending async append now, retire the acks that
     * covers, and record the harden (tagged @p reason) if the
     * hardened horizon moved. Caller holds the engine lock.
     */
    Status hardenPendingAsync(FrHardenReason reason);

    // ---- Connection entry points (writer lock held by the caller) --

    Status beginFromConnection();
    /**
     * The one single-writer commit body: publish the dirty pages to
     * the shared cache, release @p writer_lock at enqueue, wait for
     * durability, then trace the commit and run the post-commit
     * auto-checkpoint. A failed append poisons the database.
     * Unsupported (transaction still open, lock still held) when
     * @p durability is Async on a WAL without async commits.
     */
    Status commitFromConnection(std::unique_lock<std::mutex> *writer_lock,
                                Durability durability,
                                std::uint64_t *ack_epoch);
    Status rollbackFromConnection(std::unique_lock<std::mutex> *writer_lock);
    /** A user Connection closed (open-connection gauge). */
    void releaseConnection();

    /**
     * A private page cache at the current commit horizon: sized as of
     * the horizon, fetching through fetchCommittedPage() at it. Every
     * snapshot and workspace is built here. The caller holds the
     * engine lock, and pins the horizon if it keeps the cache past
     * that hold.
     */
    SnapshotCache snapshotCache();

    // ---- optimistic multi-writer transactions (DESIGN.md §13) -------

    /**
     * Open a workspace for an optimistic write transaction: wait
     * until every commit up to publish sequence @p after_publish is
     * logged (the commit a retry lost to), then pin the log at the
     * logged commit horizon -- as beginRead() does -- and return a
     * workspace that fetches through fetchCommittedPage() at it.
     * Takes no writer lock.
     */
    Status openWorkspace(std::uint64_t after_publish,
                         std::unique_ptr<MwWorkspace> *out);

    /** Release the pin of a workspace that will not commit. */
    void closeWorkspace(const MwWorkspace &ws);

    /**
     * First half of a workspace commit; the caller holds the writer
     * lock. Releases the workspace pin, then -- unless the database
     * is poisoned -- validates the read set: Conflict, with the
     * winning publish sequence in @p winner, when a page it read was
     * published after the workspace began. Otherwise installs the
     * dirty pages into the shared pager and opens them as the
     * engine's write transaction, which commitFromConnection() then
     * commits like any single-writer transaction.
     */
    Status installWorkspace(const MwWorkspace &ws, std::uint64_t *winner);

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
    /**
     * Commits published to the shared pager so far; each one's entry
     * carries its number, the publish sequence. The writer lock is
     * held from publish to enqueue, so log order is publish order.
     * Guarded by the engine lock.
     */
    std::uint64_t _publishSeq = 0;
    /**
     * Page -> publish sequence of the newest commit that published it
     * (0 = none since open): what optimistic validation checks a
     * workspace's read set against. It sees commits the moment they
     * publish, before their group append logs them. Guarded by the
     * engine lock.
     */
    std::vector<std::uint64_t> _pagePublishSeq;
    /**
     * Newest publish sequence whose group append finished -- logged,
     * or failed and poisoned the database. Stored under the engine
     * lock (so it agrees with the WAL's commitSeq there) and waited
     * on under _commitQueueMutex. While it trails _publishSeq a clean
     * pager image may hold state the log does not, so
     * copyPagerImage() declines every page.
     */
    std::atomic<std::uint64_t> _loggedPublishSeq{0};
    /** Workspaces holding a pin (engine lock). */
    std::uint32_t _openWorkspaces = 0;
    // ---- concurrency state ------------------------------------------

    /** Serializes write transactions (begin .. commit/rollback). */
    std::mutex _writerMutex;
    /**
     * Big engine lock: pager, WAL, catalog, tables, metrics.
     * Recursive because public operations nest (commit ->
     * checkpoint, reads -> default-table lookup).
     */
    mutable std::recursive_mutex _engineMutex;
    std::mutex _commitQueueMutex;
    std::condition_variable _commitCv;
    std::vector<GroupEntry *> _commitQueue;
    bool _groupLeaderActive = false;
    /**
     * The active leader's batch, swapped with _commitQueue so both
     * keep their capacity. Touched only by the leader.
     */
    std::vector<GroupEntry *> _leaderBatch;

    // Commit-path scratch, reused so a steady-state commit does not
    // reach the allocator (DESIGN.md §20). Engine lock.
    /** Frames whose page buffers and range vectors await reuse. */
    std::vector<GroupEntry::Frame> _spareFrames;
    /** Empty frame lists that kept their capacity. */
    std::vector<std::vector<GroupEntry::Frame>> _spareFrameLists;
    /** appendGroup's current run, as entries and as WAL txns. */
    std::vector<GroupEntry *> _groupRun;
    std::vector<TxnFrames> _groupTxns;
    /** TxnFrames whose frame vectors await reuse. */
    std::vector<TxnFrames> _spareTxns;
    /**
     * Writers between begin-intent and transaction close. Atomic so
     * begin paths can register themselves before taking any lock;
     * decrements happen under _commitQueueMutex so the leader's
     * combining wait cannot miss the wakeup.
     */
    std::atomic<std::uint32_t> _writeIntents{0};

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
     * tier as _commitQueueMutex: never held while taking
     * the engine lock).
     */
    mutable std::mutex _asyncMutex;
    std::vector<AsyncEpoch> _asyncEpochs;     //!< pending, FIFO
    std::uint64_t _epochSequencer = 0;        //!< last epoch issued
    std::uint64_t _hardenedEpoch = 0;         //!< newest completed
    std::uint64_t _asyncAcksPending = 0;

    std::uint32_t _openConnections = 0;  //!< guarded by _engineMutex

    std::atomic<std::uint64_t> _engineGeneration{0};

    // ---- optimistic multi-writer state (DESIGN.md §13) ---------------

    /** Set once open has bootstrapped the catalog with multiWriter. */
    bool _multiWriter = false;
    /** Root of the default table (DDL is refused with multiWriter, so
     *  it never moves). */
    PageNo _defaultRoot = kNoPage;
    /** Shared grow-only page-number cursor of the workspaces. */
    std::atomic<std::uint32_t> _pageCursor{0};

    /** Internal connection (autoWriteTxn, not counted in
     *  db.open_connections) behind the direct statement API, Table
     *  writes and DDL. Destroyed first in ~Database. */
    std::unique_ptr<Connection> _rootConn;
};

} // namespace nvwal

#endif // NVWAL_DB_DATABASE_HPP
