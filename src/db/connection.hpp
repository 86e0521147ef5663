/**
 * @file
 * Connection: a per-thread handle onto one Database.
 *
 * The concurrency surface of the database: any number of connections
 * may run *read transactions* concurrently, each against a consistent
 * horizon pinned at beginRead(), while write transactions commit in
 * one of two modes.
 *
 * Single-writer (the default): writers serialize on the database's
 * writer lock and are made durable through the group-commit queue --
 * concurrent committers are batched into one WAL append with a single
 * persist-barrier pair (the paper's lazy sync, stretched across
 * transactions). Write statements run on the shared pager under the
 * engine lock, and so do reads inside the write transaction: it sees
 * its own uncommitted writes.
 *
 * Multi-writer (DbConfig::multiWriter, DESIGN.md §13): a write
 * transaction runs optimistically against a private workspace.
 * begin() pins the logged commit horizon instead of taking the writer
 * lock; commit() takes the lock only to validate the pages read
 * against the commits published since -- returning
 * StatusCode::Conflict when one of them was republished -- and then
 * commits through the same group-commit queue as a single writer.
 * transact() wraps the begin/run/commit/retry loop.
 *
 * The direct Database statement API is a thin forward to an internal
 * root Connection (autoWriteTxn on) in both modes, so there is one
 * transaction path and one error policy.
 *
 * A read transaction owns a private SnapshotCache, so repeated reads
 * touch no shared state at all; a multi-writer transaction's
 * workspace is one too. Read-only statements *outside*
 * beginRead() reuse a cached casual snapshot as long as the commit
 * horizon has not moved, so hot read loops build the cache once
 * instead of once per statement. The snapshot pin bounds
 * checkpointing: neither WAL mode advances the .db file past the
 * oldest open snapshot.
 *
 * Thread confinement: one Connection is used by one thread at a
 * time. Distinct Connections are safe to use from distinct threads
 * concurrently; that is their purpose.
 */

#ifndef NVWAL_DB_CONNECTION_HPP
#define NVWAL_DB_CONNECTION_HPP

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "db/database.hpp"

namespace nvwal
{

/** One client's handle onto a Database. */
class Connection
{
  public:
    /** Rolls back an open write txn and closes an open snapshot. */
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    // ---- read transactions (snapshot isolation) ---------------------

    /**
     * Open a read transaction: pin the current commit horizon (the
     * WAL commit sequence) and build a private snapshot cache over it.
     * Every read until endRead() sees exactly the transactions
     * committed before this call -- commits that land afterwards are
     * invisible, even across a crash+recovery of the writer.
     * Unsupported when the WAL mode has no snapshot support (rollback
     * journal).
     */
    Status beginRead();

    /** Close the read transaction and release the snapshot pin. */
    Status endRead();

    bool inRead() const { return _snapshot != nullptr; }

    // ---- write transactions -----------------------------------------

    /**
     * Begin a write transaction. Single-writer: blocks until the
     * writer slot is free. Multi-writer: never waits for another
     * writer -- pins the logged commit horizon and opens a private
     * workspace; the conflict, if any, surfaces at commit(). A
     * transaction re-run after a Conflict first waits until the
     * commit it lost to is logged.
     */
    Status begin();

    /**
     * Commit the write transaction.
     *
     * options.durability -- Group (default) waits for the persist
     * barrier that hardens this commit; Async returns as soon as the
     * commit is ordered (appended and published).
     *
     * options.waitForHarden -- when true (default), an Async commit
     * still waits for its epoch to harden before returning, i.e.
     * Async orders the commit cheaply but this call is synchronous.
     * Set it false for fire-and-forget commits that harden with a
     * later barrier (see lastCommitEpoch()).
     *
     * In multi-writer mode the commit first validates the pages this
     * transaction read against the commits published since begin();
     * on a lost race it returns StatusCode::Conflict and the
     * transaction is rolled back -- nothing was appended. Retry by
     * re-running the transaction (see transact()).
     */
    Status commit(const CommitOptions &options = {});

    Status rollback();
    bool inWrite() const { return _inWrite; }

    /**
     * Run @p fn (signature Status(Connection &)) inside a write
     * transaction: begin(), fn, commit(options) -- rolling back and
     * retrying up to options.maxConflictRetries times when the
     * transaction loses an optimistic race (StatusCode::Conflict from
     * fn or from the commit). Any other failure rolls back and
     * returns immediately. Retries count under
     * "db.txn_conflict_retries".
     */
    template <typename Fn>
    Status
    transact(Fn &&fn, const CommitOptions &options = {})
    {
        int attempt = 0;
        for (;;) {
            NVWAL_RETURN_IF_ERROR(begin());
            Status s = fn(*this);
            if (s.isOk())
                s = commit(options);
            else
                (void)rollback();
            if (!s.isConflict() || attempt >= options.maxConflictRetries)
                return s;
            ++attempt;
            noteConflictRetry();
            // Losing repeatedly usually means the winning committer
            // is mid-append on another core; give it the CPU rather
            // than burning the retry budget against the same commit.
            if (attempt >= 4)
                std::this_thread::yield();
        }
    }

    /**
     * Epoch of this connection's most recent Durability::Async
     * commit (0 before any, or when the commit carried no frames).
     * Harden it explicitly with Database::waitForAsyncEpoch().
     */
    std::uint64_t lastCommitEpoch() const { return _lastCommitEpoch; }

    // ---- statements (default table) ---------------------------------
    // Reads use the open snapshot (or the cached casual one); writes
    // require an open write transaction, unless the connection was
    // opened with ConnectOptions::autoWriteTxn, in which case a
    // statement outside a transaction runs as its own transaction.

    Status insert(RowId key, ValueView value);
    Status update(RowId key, ValueView value);
    Status remove(RowId key);
    Status get(RowId key, ByteBuffer *value);
    Status scan(RowId lo, RowId hi, const BTree::ScanCallback &visit);
    Status count(std::uint64_t *out);

    // ---- introspection ----------------------------------------------

    /** Horizon of the open snapshot (0 when none / before commits). */
    CommitSeq snapshotHorizon() const
    { return _snapshot ? _snapshot->horizon() : 0; }

    /** Pages served from the private cache (open snapshot only). */
    std::uint64_t snapshotCacheHits() const
    { return _snapshot ? _snapshot->cacheHits() : 0; }

    /** Pages fetched through the engine (open snapshot only). */
    std::uint64_t snapshotFetches() const
    { return _snapshot ? _snapshot->fetches() : 0; }

  private:
    friend class Database;
    explicit Connection(Database &db, ConnectOptions options = {});

    /**
     * Root of the default table in @p snap, resolved from the
     * snapshot's catalog once and cached in @p cached (kNoPage until
     * then).
     */
    Status defaultRoot(SnapshotCache &snap, PageNo *cached);

    /**
     * Run @p op (signature Status(BTree &)) on the default table as
     * this connection reads it: inside a write transaction, the
     * transaction's own pages; else the open snapshot; else the
     * cached casual one.
     */
    template <typename Op>
    Status readDefault(const Op &op);

    /** readDefault() on @p snap, whose default root caches in @p root. */
    template <typename Op>
    Status readSnapshot(SnapshotCache &snap, PageNo *root, const Op &op);

    /** Casual-read path (no open snapshot). */
    template <typename Op>
    Status casualRead(const Op &op);

    /**
     * Run @p op on the default table inside the open write
     * transaction: the private workspace in multi-writer mode, the
     * shared pager otherwise. @p payload_bytes prices the statement.
     */
    template <typename Op>
    Status writeDefault(std::size_t payload_bytes, const Op &op);

    /** Run @p op on the default table over the shared pager, under
     *  the engine lock. */
    template <typename Op>
    Status onSharedPager(std::size_t payload_bytes, const Op &op);

    /**
     * Run @p op (signature Status()) in the open write transaction,
     * or -- with ConnectOptions::autoWriteTxn -- in one of its own.
     * Defined here because Database runs its autocommit statements
     * (Table writes, DDL) through the root connection with it.
     */
    template <typename Op>
    Status
    withWriteTxn(const Op &op)
    {
        if (_inWrite)
            return op();
        if (!_options.autoWriteTxn)
            return Status::invalidArgument(
                "no write transaction open: begin() first, or connect "
                "with ConnectOptions::autoWriteTxn");
        NVWAL_RETURN_IF_ERROR(begin());
        const Status s = op();
        if (!s.isOk()) {
            (void)rollback();
            return s;
        }
        return commit();
    }

    /** Replace the casual snapshot with one at the current horizon. */
    void resetCasualSnapshot();

    /** Fold the casual snapshot's read tallies into the registry. */
    void foldCasualStats();

    /** Count one optimistic retry (transact()). */
    void noteConflictRetry();

    Database &_db;
    const ConnectOptions _options;
    /** The Database's internal root connection: not counted among
     *  the open connections (set by Database). */
    bool _root = false;

    /** Deferred lock on the database's writer mutex. */
    std::unique_lock<std::mutex> _writerLock;
    bool _inWrite = false;
    std::uint64_t _lastCommitEpoch = 0;
    /** Multi-writer: publish sequence of the commit that beat this
     *  connection's last conflicted commit (0 before any). */
    std::uint64_t _lostToPublish = 0;

    /** Multi-writer: the open transaction's private workspace. */
    std::unique_ptr<MwWorkspace> _ws;

    std::unique_ptr<SnapshotCache> _snapshot;
    /** Default-table root resolved from the snapshot's catalog. */
    PageNo _snapshotRoot = kNoPage;

    /**
     * Cached casual snapshot: statements outside beginRead() reuse it
     * as long as (commit horizon, engine generation) are unchanged,
     * so a hot read loop pays one cache build, not one per statement.
     */
    std::unique_ptr<SnapshotCache> _casualSnap;
    std::uint64_t _casualGen = 0;
    PageNo _casualRoot = kNoPage;
    std::uint64_t _casualHitsFolded = 0;
    std::uint64_t _casualReadsFolded = 0;
};

} // namespace nvwal

#endif // NVWAL_DB_CONNECTION_HPP
