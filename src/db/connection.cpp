#include "connection.hpp"

#include "db/catalog_codec.hpp"

namespace nvwal
{

Connection::Connection(Database &db, ConnectOptions options)
    : _db(db), _options(options),
      _writerLock(db._writerMutex, std::defer_lock)
{}

Connection::~Connection()
{
    if (_inWrite)
        (void)rollback();
    if (_snapshot)
        (void)endRead();
    if (!_root)
        _db.releaseConnection();
}

void
Connection::noteConflictRetry()
{
    _db._env.stats.add(stats::kDbTxnConflictRetries);
}

// ---- read transactions ---------------------------------------------

Status
Connection::beginRead()
{
    if (_snapshot)
        return Status::busy("a read transaction is already open");

    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    WriteAheadLog &wal = *_db._wal;
    if (!wal.supportsSnapshots()) {
        return Status::unsupported(
            "WAL mode has no snapshot support: " +
            std::string(wal.name()));
    }

    // Pin the commit horizon; the WAL will neither supersede nor
    // truncate any frame this snapshot can reach until endRead().
    _snapshot = std::make_unique<SnapshotCache>(_db.snapshotCache());
    wal.pinSnapshot(_snapshot->horizon());

    _db._env.stats.add(stats::kSnapshotsOpened);
    _db._env.stats.setGauge(stats::kGaugeOpenSnapshots, wal.pinCount());
    return Status::ok();
}

Status
Connection::endRead()
{
    if (!_snapshot)
        return Status::invalidArgument("no read transaction to end");

    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    _db._wal->unpinSnapshot(_snapshot->horizon());
    // Fold the thread-confined tallies into the shared registry.
    _db._env.stats.add(stats::kSnapshotReads,
                       _snapshot->cacheHits() + _snapshot->fetches());
    _db._env.stats.add(stats::kSnapshotCacheHits, _snapshot->cacheHits());
    _db._env.stats.setGauge(stats::kGaugeOpenSnapshots,
                            _db._wal->pinCount());
    _snapshot.reset();
    _snapshotRoot = kNoPage;
    return Status::ok();
}

Status
Connection::defaultRoot(SnapshotCache &snap, PageNo *cached)
{
    if (*cached != kNoPage)
        return Status::ok();
    BTree catalog(snap, _db._pager->rootPage());
    NVWAL_RETURN_IF_ERROR(scanCatalog(
        catalog, [&](RowId, PageNo root, const std::string &name) {
            if (name != Database::kDefaultTable)
                return true;
            *cached = root;
            return false;
        }));
    if (*cached == kNoPage)
        return Status::notFound(std::string("no such table in snapshot: ") +
                                Database::kDefaultTable);
    return Status::ok();
}

void
Connection::resetCasualSnapshot()
{
    _casualSnap = std::make_unique<SnapshotCache>(_db.snapshotCache());
    _casualRoot = kNoPage;
    _casualGen = _db.engineGeneration();
    _casualHitsFolded = 0;
    _casualReadsFolded = 0;
    _db._env.stats.add(stats::kSnapshotsOpened);
}

void
Connection::foldCasualStats()
{
    const std::uint64_t hits = _casualSnap->cacheHits();
    const std::uint64_t reads = hits + _casualSnap->fetches();
    _db._env.stats.add(stats::kSnapshotCacheHits,
                       hits - _casualHitsFolded);
    _db._env.stats.add(stats::kSnapshotReads,
                       reads - _casualReadsFolded);
    _casualHitsFolded = hits;
    _casualReadsFolded = reads;
}

template <typename Op>
Status
Connection::readSnapshot(SnapshotCache &snap, PageNo *root, const Op &op)
{
    NVWAL_RETURN_IF_ERROR(defaultRoot(snap, root));
    _db.chargeStatement(0);
    BTree tree(snap, *root);
    return op(tree);
}

template <typename Op>
Status
Connection::casualRead(const Op &op)
{
    // One engine-lock hold for the whole statement: the horizon
    // cannot move underneath it, so no snapshot pin is needed and
    // the cached pages stay exact. Reuse means a hot read loop takes
    // this lock once per statement instead of twice (the historical
    // begin/end pair) and builds no throwaway snapshot.
    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    WriteAheadLog &wal = *_db._wal;
    if (!wal.supportsSnapshots()) {
        // No snapshots (rollback journal): the shared pager holds
        // exactly the committed state while no write transaction is
        // open, and nothing else can be read consistently.
        if (_db._inTxn)
            return Status::busy(
                "a write transaction is open and the WAL mode has no "
                "snapshot support: " + std::string(wal.name()));
        return onSharedPager(0, op);
    }
    if (!_casualSnap || _casualSnap->horizon() != wal.commitSeq() ||
        _casualGen != _db.engineGeneration())
        resetCasualSnapshot();
    const Status s = readSnapshot(*_casualSnap, &_casualRoot, op);
    foldCasualStats();
    return s;
}

template <typename Op>
Status
Connection::readDefault(const Op &op)
{
    // A write transaction reads its own uncommitted writes.
    if (_inWrite)
        return writeDefault(0, op);
    if (_snapshot)
        return readSnapshot(*_snapshot, &_snapshotRoot, op);
    return casualRead(op);
}

template <typename Op>
Status
Connection::writeDefault(std::size_t payload_bytes, const Op &op)
{
    if (_ws) {
        // The workspace also records the pages read, for commit
        // validation.
        _db.chargeStatement(payload_bytes);
        BTree tree(*_ws, _db._defaultRoot);
        return op(tree);
    }
    return onSharedPager(payload_bytes, op);
}

template <typename Op>
Status
Connection::onSharedPager(std::size_t payload_bytes, const Op &op)
{
    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    Table *table;
    NVWAL_RETURN_IF_ERROR(_db.defaultTable(&table));
    _db.chargeStatement(payload_bytes);
    return op(table->btree());
}

Status
Connection::get(RowId key, ByteBuffer *value)
{
    return readDefault(
        [&](BTree &tree) { return tree.get(key, value); });
}

Status
Connection::scan(RowId lo, RowId hi, const BTree::ScanCallback &visit)
{
    return readDefault(
        [&](BTree &tree) { return tree.scan(lo, hi, visit); });
}

Status
Connection::count(std::uint64_t *out)
{
    return readDefault([&](BTree &tree) { return tree.count(out); });
}

// ---- write transactions --------------------------------------------

Status
Connection::begin()
{
    if (_inWrite)
        return Status::busy("a write transaction is already open");

    if (_db._multiWriter) {
        // Optimistic: no lock taken. Run against a private workspace
        // pinned at the logged horizon; validation happens at commit.
        // The connection's own commits are logged before commit()
        // returns, so only a lost race can leave one to wait for.
        NVWAL_RETURN_IF_ERROR(_db.openWorkspace(_lostToPublish, &_ws));
        _inWrite = true;
        return Status::ok();
    }

    // Announce the intent before blocking on the writer slot so a
    // committing leader's combining window waits for this txn.
    _db.noteWriteIntent();
    _writerLock.lock();
    const Status s = _db.beginFromConnection();
    if (!s.isOk()) {
        _writerLock.unlock();
        _db.endWriteIntent();
        return s;
    }
    _inWrite = true;
    return Status::ok();
}

Status
Connection::commit(const CommitOptions &options)
{
    if (!_inWrite)
        return Status::invalidArgument("no write transaction to commit");
    // Clear the flag before entering the engine: a simulated power
    // failure unwinds through the WAL append after the engine has
    // already closed the transaction, and the destructor must not
    // try to roll back what no longer exists.
    _inWrite = false;

    if (_ws) {
        // Validate and install under the writer lock, announced first
        // so a committing leader's combining window counts this
        // commit; from there on it is a single-writer commit.
        const std::unique_ptr<MwWorkspace> ws = std::move(_ws);
        _db.noteWriteIntent();
        _writerLock.lock();
        std::uint64_t winner = 0;
        const Status s = _db.installWorkspace(*ws, &winner);
        if (!s.isOk()) {
            _writerLock.unlock();
            _db.endWriteIntent();
            if (s.isConflict())
                _lostToPublish = winner;
            return s;
        }
    }

    std::uint64_t epoch = 0;
    const Status s =
        _db.commitFromConnection(&_writerLock, options.durability,
                                 &epoch);
    if (s.isUnsupported()) {
        // The engine never touched the transaction; it is still open
        // and retryable at a stricter durability level.
        _inWrite = true;
        return s;
    }
    if (s.isOk() && options.durability == Durability::Async) {
        _lastCommitEpoch = epoch;
        if (options.waitForHarden && epoch != 0)
            return _db.waitForAsyncEpoch(epoch);
    }
    return s;
}

Status
Connection::rollback()
{
    if (!_inWrite)
        return Status::invalidArgument(
            "no write transaction to roll back");
    _inWrite = false;
    if (_ws) {
        _db.closeWorkspace(*_ws);
        _ws.reset();
        return Status::ok();
    }
    return _db.rollbackFromConnection(&_writerLock);
}

// ---- statements ----------------------------------------------------

Status
Connection::insert(RowId key, ValueView value)
{
    return withWriteTxn([&] {
        return writeDefault(value.size(), [&](BTree &tree) {
            return tree.insert(key, value.span());
        });
    });
}

Status
Connection::update(RowId key, ValueView value)
{
    return withWriteTxn([&] {
        return writeDefault(value.size(), [&](BTree &tree) {
            return tree.update(key, value.span());
        });
    });
}

Status
Connection::remove(RowId key)
{
    return withWriteTxn([&] {
        return writeDefault(
            0, [&](BTree &tree) { return tree.remove(key); });
    });
}

} // namespace nvwal
