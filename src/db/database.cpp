#include "database.hpp"

#include <chrono>
#include <cstring>
#include <optional>

#include "db/catalog_codec.hpp"
#include "db/connection.hpp"

namespace nvwal
{

// ---- Table ---------------------------------------------------------

Table::Table(Database &db, std::string name, RowId catalog_id,
             PageNo root)
    : _db(db), _name(std::move(name)), _catalogId(catalog_id),
      _tree(*db._pager, root)
{}

template <typename Op>
Status
Database::autocommit(const Op &op)
{
    return _rootConn->withWriteTxn(op);
}

Status
Table::insert(RowId key, ValueView value)
{
    return _db.autocommit([&] {
        std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
        _db.chargeStatement(value.size());
        return _tree.insert(key, value.span());
    });
}

Status
Table::update(RowId key, ValueView value)
{
    return _db.autocommit([&] {
        std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
        _db.chargeStatement(value.size());
        return _tree.update(key, value.span());
    });
}

Status
Table::remove(RowId key)
{
    return _db.autocommit([&] {
        std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
        _db.chargeStatement(0);
        return _tree.remove(key);
    });
}

Status
Table::get(RowId key, ByteBuffer *value)
{
    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    _db.chargeStatement(0);
    return _tree.get(key, value);
}

Status
Table::scan(RowId lo, RowId hi, const BTree::ScanCallback &visit)
{
    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    _db.chargeStatement(0);
    return _tree.scan(lo, hi, visit);
}

Status
Table::count(std::uint64_t *out)
{
    std::lock_guard<std::recursive_mutex> eng(_db._engineMutex);
    return _tree.count(out);
}

// ---- Database ------------------------------------------------------

namespace
{

/** The paper's reserved bytes per page for the mode. */
std::uint32_t
resolveReserved(const DbConfig &config)
{
    return config.walMode == WalMode::FileStock ||
                   config.walMode == WalMode::RollbackJournal
               ? 0
               : 24;
}

} // namespace

Status
validateDbConfig(const DbConfig &config)
{
    if (config.name.empty())
        return Status::invalidArgument("database name must not be empty");
    if (config.pageSize == 0 || config.pageSize > 65536)
        return Status::invalidArgument(
            "page size must be in (0, 65536]: " +
            std::to_string(config.pageSize));
    if (config.asyncMaxEpochs == 0)
        return Status::invalidArgument(
            "asyncMaxEpochs must be >= 1 (the staleness bound)");
    if (config.walMode == WalMode::Nvwal) {
        const std::string &ns = config.nvwal.heapNamespace;
        if (ns.empty() || ns.size() > NvHeap::kNamespaceNameLen)
            return Status::invalidArgument(
                "NVWAL heap namespace must be 1.." +
                std::to_string(NvHeap::kNamespaceNameLen) +
                " characters: \"" + ns + "\"");
    }
    if (config.multiWriter) {
        if (config.walMode != WalMode::Nvwal)
            return Status::invalidArgument(
                "multi-writer mode requires WalMode::Nvwal");
    }
    return Status::ok();
}

Database::Database(Env &env, DbConfig config)
    : _env(env), _config(std::move(config))
{
    ConnectOptions root_options;
    root_options.autoWriteTxn = true;
    _rootConn.reset(new Connection(*this, root_options));
    _rootConn->_root = true;
}

Database::~Database()
{
    // The root connection holds engine references; destroy it before
    // any engine state goes away.
    _rootConn.reset();
    // A destructor must not issue media operations (the handle may be
    // torn down after a simulated crash), so still-pending async
    // epochs are abandoned: commits that were never flushed fall
    // inside the documented bounded loss window. Clean shutdowns call
    // flushAsyncCommits().
}

Status
Database::open(Env &env, DbConfig config, std::unique_ptr<Database> *out)
{
    NVWAL_RETURN_IF_ERROR(validateDbConfig(config));
    std::unique_ptr<Database> db(new Database(env, std::move(config)));
    NVWAL_RETURN_IF_ERROR(db->openInternal());
    *out = std::move(db);
    return Status::ok();
}

Status
Database::recoverAfterCrash(Env &env, DbConfig config,
                            std::unique_ptr<Database> *out)
{
    // The pre-crash handle references env; destroy it before touching
    // the media. The device already applied its survival policy when
    // it threw, so only the file system's volatile state is dropped
    // here, and the heap's volatile mirror is rebuilt from media.
    out->reset();
    env.fs.crash();
    NVWAL_RETURN_IF_ERROR(env.heap.attach());
    return open(env, std::move(config), out);
}

Status
Database::openInternal()
{
    // Every rebuild invalidates reader state cached against a WAL
    // commit sequence (recovery and vacuum both reset it).
    _engineGeneration.fetch_add(1, std::memory_order_acq_rel);
    const std::uint32_t reserved = resolveReserved(_config);
    _dbFile = std::make_unique<DbFile>(_env.fs, _config.name,
                                       _config.pageSize);
    NVWAL_RETURN_IF_ERROR(_dbFile->open());
    _pager = std::make_unique<Pager>(*_dbFile, _config.pageSize, reserved,
                                     &_env.stats);

    switch (_config.walMode) {
      case WalMode::RollbackJournal:
        _wal = std::make_unique<RollbackJournal>(
            _env.fs, _config.name + "-journal", *_dbFile,
            _config.pageSize, _env.stats);
        break;
      case WalMode::FileStock:
      case WalMode::FileOptimized: {
        FileWalConfig wal_config;
        wal_config.optimized = _config.walMode == WalMode::FileOptimized;
        _wal = std::make_unique<FileWal>(
            _env.fs, _config.name + "-wal", *_dbFile, _config.pageSize,
            reserved, wal_config, _env.stats);
        break;
      }
      case WalMode::Nvwal:
        _wal = std::make_unique<NvwalLog>(
            _env.heap, _env.pmem, *_dbFile, _config.pageSize, reserved,
            _config.nvwal, _env.stats);
        break;
    }

    // Recovery order matters: the WAL index must exist before the
    // pager reads any page (the newest committed copy of a page may
    // live only in the log).
    const StatsSnapshot stats_before_recovery = _env.stats.snapshot();
    std::uint32_t db_size_pages = 0;
    NVWAL_RETURN_IF_ERROR(_wal->recover(&db_size_pages));
    _nvwalLog = dynamic_cast<NvwalLog *>(_wal.get());
    frOpenAndBuildReport(stats_before_recovery);
    _pager->setWalReader([this](PageNo page_no, ByteSpan out) {
        return _wal->readPage(page_no, out);
    });
    if (_nvwalLog != nullptr)
        _nvwalLog->setCommittedPageSource(
            [this](PageNo page_no, CommitSeq horizon) {
                return pagerImage(page_no, horizon);
            });
    NVWAL_RETURN_IF_ERROR(_pager->open());
    if (db_size_pages != 0)
        _pager->setPageCount(db_size_pages);

    // The primary root (page 2) holds the table catalog; the default
    // table is created on first open.
    _catalog = std::make_unique<BTree>(*_pager, _pager->rootPage());
    bool found = false;
    RowId id;
    PageNo root;
    NVWAL_RETURN_IF_ERROR(
        findCatalogEntry(kDefaultTable, &id, &root, &found));
    if (!found)
        NVWAL_RETURN_IF_ERROR(createTable(kDefaultTable));

    if (_config.multiWriter) {
        // From here on write transactions run in workspaces, which
        // need the default table's root and a page cursor past every
        // page in use.
        NVWAL_RETURN_IF_ERROR(
            findCatalogEntry(kDefaultTable, &id, &_defaultRoot, &found));
        _pageCursor.store(_pager->pageCount(), std::memory_order_relaxed);
        _multiWriter = true;
    }
    return Status::ok();
}

// ---- flight recorder (DESIGN.md §12) --------------------------------

void
Database::frRecord(FrRecordType type, std::uint8_t flags,
                   std::uint16_t a16, std::uint32_t a32, std::uint64_t a64,
                   std::uint64_t b64)
{
    if (_flightRecorder && _flightRecorder->ready())
        _flightRecorder->append(type, flags, a16, a32, a64, b64);
}

std::uint32_t
Database::frCheckpointId32() const
{
    return _nvwalLog != nullptr
               ? static_cast<std::uint32_t>(_nvwalLog->checkpointId())
               : 0;
}

void
Database::frRecordHarden(FrHardenReason reason)
{
    if (!_flightRecorder || !_flightRecorder->ready())
        return;
    const CommitSeq hardened = _wal->hardenedSeq();
    const std::uint64_t marks =
        hardened >= _frMarksBase ? hardened - _frMarksBase : 0;
    std::uint64_t epoch;
    {
        std::lock_guard<std::mutex> a(_asyncMutex);
        epoch = _hardenedEpoch;
    }
    frRecord(FrRecordType::Harden, kFrFlagDurableClaim,
             static_cast<std::uint16_t>(reason), frCheckpointId32(), marks,
             epoch);
}

void
Database::frNoteTruncation(std::uint64_t ckpt_before)
{
    if (_nvwalLog == nullptr || !_flightRecorder ||
        !_flightRecorder->ready())
        return;
    const std::uint64_t ckpt_after = _nvwalLog->checkpointId();
    if (ckpt_after == ckpt_before)
        return;
    const std::uint64_t marks = _nvwalLog->retiredSeq() - _frMarksBase;
    // Durable-claim marks are counted per checkpoint round; the
    // truncation starts a new round, so rebase before the next ack.
    // A segment retirement keeps the commits past the round's
    // horizon in the log, so the new round counts from there.
    _frMarksBase = _nvwalLog->retiredSeq();
    frRecord(FrRecordType::Truncation, kFrFlagDurableClaim, 0,
             static_cast<std::uint32_t>(ckpt_after), marks, ckpt_before);
}

void
Database::frMaybeSnapshotCounters()
{
    if (!_flightRecorder || !_flightRecorder->ready())
        return;
    if (++_frBatchesSinceSnapshot < kFrSnapshotEveryBatches)
        return;
    _frBatchesSinceSnapshot = 0;
    static constexpr MetricName kSampledCounters[] = {
        stats::kTxnsCommitted,   stats::kPersistBarriers,
        stats::kFlushSyscalls,   stats::kNvramBytesLogged,
        stats::kCheckpoints,
    };
    for (const MetricName name : kSampledCounters)
        frRecord(FrRecordType::CounterSnapshot, 0, 0,
                 frCounterNameHash(name.c_str()), _env.stats.get(name),
                 _txnSeq);
}

void
Database::frOpenAndBuildReport(const StatsSnapshot &stats_before)
{
    _flightRecorder.reset();
    _recoveryReport = RecoveryReport();
    _frMarksBase = 0;
    _frBatchesSinceSnapshot = 0;
    if (_config.walMode != WalMode::Nvwal || !_config.flightRecorder)
        return;

    auto recorder = std::make_unique<FlightRecorder>(
        _env.heap, _env.pmem, _env.stats,
        FlightRecorder::namespaceFor(_config.nvwal.heapNamespace),
        kFrRingRecords);
    FlightRecording parsed;
    if (!recorder->openOrCreate(&parsed).isOk()) {
        // E.g. all heap namespace slots taken: run with the recorder
        // off rather than failing the open.
        return;
    }
    _flightRecorder = std::move(recorder);

    const auto delta = [&](const char *name) {
        const auto it = stats_before.find(name);
        const std::uint64_t before =
            it == stats_before.end() ? 0 : it->second;
        return _env.stats.get(name) - before;
    };
    FrRecoveredWalState wal_state;
    wal_state.recoveredMarks = _wal->commitSeq();
    wal_state.recoveredCheckpointId =
        _nvwalLog != nullptr ? _nvwalLog->checkpointId() : 0;
    wal_state.framesSinceCheckpoint = _wal->framesSinceCheckpoint();
    wal_state.tornFramesDetected = delta(stats::kWalTornFramesDetected);
    wal_state.framesDiscarded = delta(stats::kWalRecoveryFramesDiscarded);
    wal_state.lostMarks = delta(stats::kWalRecoveryLostMarks);

    _recoveryReport = buildRecoveryReport(parsed, wal_state);
    _recoveryReport.recorderEnabled = true;
    _recoveryReport.heapNamespace = _flightRecorder->heapNamespace();

    // Delimit this incarnation in the ring. Recovered commit
    // sequences restart at marks-since-truncation, so the base is 0.
    frRecord(FrRecordType::RecorderOpen, 0, 0, frCheckpointId32(),
             _wal->commitSeq(), _wal->framesSinceCheckpoint());
}

Status
Database::publishFlightRecorder()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (!_flightRecorder || !_flightRecorder->ready())
        return Status::unsupported("the flight recorder is not enabled");
    _flightRecorder->publish();
    return Status::ok();
}

Status
Database::findCatalogEntry(const std::string &name, RowId *id,
                           PageNo *root, bool *found)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    *found = false;
    return scanCatalog(*_catalog, [&](RowId key, PageNo entry_root,
                                      const std::string &entry_name) {
        if (entry_name != name)
            return true;
        *id = key;
        *root = entry_root;
        *found = true;
        return false;
    });
}

Status
Database::createTable(const std::string &name)
{
    if (_multiWriter)
        return Status::unsupported(
            "DDL is single-writer only: reopen without multiWriter");
    if (name.empty() || name.size() > 128)
        return Status::invalidArgument("table name length");
    return autocommit([&]() -> Status {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        bool exists = false;
        RowId id;
        PageNo root;
        NVWAL_RETURN_IF_ERROR(
            findCatalogEntry(name, &id, &root, &exists));
        if (exists)
            return Status::invalidArgument("table exists: " + name);

        // Next catalog id: one past the largest in use.
        RowId next_id = 1;
        NVWAL_RETURN_IF_ERROR(_catalog->scan(
            INT64_MIN, INT64_MAX, [&](RowId key, ConstByteSpan) {
                next_id = key + 1;
                return true;
            }));

        CachedPage *page;
        PageNo new_root;
        NVWAL_RETURN_IF_ERROR(_pager->allocatePage(&page, &new_root));
        const ByteBuffer entry = encodeCatalogEntry(new_root, name);
        return _catalog->insert(next_id,
                                ConstByteSpan(entry.data(), entry.size()));
    });
}

Status
Database::openTable(const std::string &name, Table **out)
{
    if (_multiWriter)
        return Status::unsupported(
            "table handles run on the shared pager; use Connection "
            "statements in multi-writer mode");
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    auto it = _tables.find(name);
    if (it != _tables.end()) {
        *out = it->second.get();
        return Status::ok();
    }
    bool found = false;
    RowId id;
    PageNo root;
    NVWAL_RETURN_IF_ERROR(findCatalogEntry(name, &id, &root, &found));
    if (!found)
        return Status::notFound("no such table: " + name);
    auto table =
        std::unique_ptr<Table>(new Table(*this, name, id, root));
    *out = table.get();
    _tables[name] = std::move(table);
    return Status::ok();
}

Status
Database::dropTable(const std::string &name)
{
    if (_multiWriter)
        return Status::unsupported(
            "DDL is single-writer only: reopen without multiWriter");
    if (name == kDefaultTable)
        return Status::invalidArgument("cannot drop the default table");
    {
        // Invalidate any handle up-front; the pages are about to go.
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        _tables.erase(name);
    }

    return autocommit([&]() -> Status {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        bool found = false;
        RowId id;
        PageNo root;
        NVWAL_RETURN_IF_ERROR(findCatalogEntry(name, &id, &root, &found));
        if (!found)
            return Status::notFound("no such table: " + name);
        BTree tree(*_pager, root);
        NVWAL_RETURN_IF_ERROR(tree.destroy());
        return _catalog->remove(id);
    });
}

Status
Database::listTables(std::vector<std::string> *out)
{
    out->clear();
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return scanCatalog(*_catalog,
                       [&](RowId, PageNo, const std::string &name) {
                           out->push_back(name);
                           return true;
                       });
}

Status
Database::defaultTable(Table **out)
{
    return openTable(kDefaultTable, out);
}

// ---- transactions --------------------------------------------------

Status
Database::begin()
{
    return _rootConn->begin();
}

void
Database::noteWriteIntent()
{
    _writeIntents.fetch_add(1, std::memory_order_relaxed);
}

void
Database::endWriteIntent()
{
    std::lock_guard<std::mutex> q(_commitQueueMutex);
    NVWAL_ASSERT(_writeIntents.load(std::memory_order_relaxed) > 0);
    _writeIntents.fetch_sub(1, std::memory_order_relaxed);
    // Deliberately no notify: the leader re-evaluates its combining
    // window on enqueues. Waking it here would sample the instant a
    // writer sits between two transactions (intent ended, next begin
    // not yet announced), closing batches early; a withdrawn last
    // intent merely lets the window run to its bounded timeout.
}

bool
Database::collectDirtyFrames(GroupEntry *entry)
{
    // The pager's dirty set holds the pages this transaction wrote in
    // place or installed from its workspace. Spare frames keep their
    // buffers' capacity, so copying into them does not allocate.
    NVWAL_ASSERT(entry->frames.empty());
    if (entry->frames.capacity() == 0 && !_spareFrameLists.empty()) {
        entry->frames = std::move(_spareFrameLists.back());
        _spareFrameLists.pop_back();
    }
    for (const PageNo no : _pager->dirtySet()) {
        CachedPage *page = _pager->cached(no);
        NVWAL_ASSERT(page != nullptr, "dirty page not cached");
        if (_spareFrames.empty()) {
            entry->frames.emplace_back();
        } else {
            entry->frames.push_back(std::move(_spareFrames.back()));
            _spareFrames.pop_back();
        }
        GroupEntry::Frame &frame = entry->frames.back();
        frame.pageNo = no;
        frame.page.assign(page->buf.begin(), page->buf.end());
        frame.ranges = page->dirty;
        frame.observedDirtyPct = page->noteDirtyRatio();
    }
    entry->dbSizePages = _pager->pageCount();
    return !entry->frames.empty();
}

void
Database::recycleFrames(GroupEntry *entry)
{
    // Bounded, so one huge transaction does not pin its page copies
    // for the rest of the database's life.
    constexpr std::size_t kMaxSpareFrames = 64;
    constexpr std::size_t kMaxSpareLists = 8;
    for (GroupEntry::Frame &frame : entry->frames) {
        if (_spareFrames.size() == kMaxSpareFrames)
            break;
        _spareFrames.push_back(std::move(frame));
    }
    entry->frames.clear();
    if (entry->frames.capacity() != 0 &&
        _spareFrameLists.size() < kMaxSpareLists)
        _spareFrameLists.push_back(std::move(entry->frames));
}

void
Database::entryToTxn(const GroupEntry &e, TxnFrames *txn)
{
    txn->dbSizePages = e.dbSizePages;
    txn->frames.clear();
    for (const GroupEntry::Frame &f : e.frames) {
        txn->frames.push_back(FrameWrite{
            f.pageNo, ConstByteSpan(f.page.data(), f.page.size()),
            &f.ranges, f.observedDirtyPct});
    }
}

Status
Database::appendGroup(const std::vector<GroupEntry *> &batch)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    _env.stats.add(stats::kGroupCommits);
    _env.stats.add(stats::kGroupCommitTxns, batch.size());
    _env.stats.recordNs(stats::kHistGroupCommitSize, batch.size());
    _env.stats.setGauge(stats::kGaugeCommitQueueDepth, batch.size());
    {
        std::uint64_t newest_txn = 0;
        for (const GroupEntry *e : batch)
            newest_txn = std::max(newest_txn, e->txnSeq);
        frRecord(FrRecordType::GroupBatch, 0, 0,
                 static_cast<std::uint32_t>(batch.size()), newest_txn);
    }

    Status s = Status::ok();
    std::size_t i = 0;
    while (s.isOk() && i < batch.size()) {
        // Runs are split by durability: a sync run costs one
        // barrier pair for the whole run, an async run costs none
        // (its epoch hardens later). Mixing them would either
        // harden the async commits early or strand the sync ones.
        const bool async = batch[i]->async;
        std::vector<GroupEntry *> &run = _groupRun;
        std::vector<TxnFrames> &txns = _groupTxns;
        run.clear();
        while (i < batch.size() && batch[i]->async == async)
            run.push_back(batch[i++]);
        // Size the WAL batch to the run through the spare list, so each
        // TxnFrames keeps its frame vector's capacity.
        while (txns.size() > run.size()) {
            _spareTxns.push_back(std::move(txns.back()));
            txns.pop_back();
        }
        while (txns.size() < run.size()) {
            if (_spareTxns.empty()) {
                txns.emplace_back();
                continue;
            }
            txns.push_back(std::move(_spareTxns.back()));
            _spareTxns.pop_back();
        }
        for (std::size_t k = 0; k < run.size(); ++k)
            entryToTxn(*run[k], &txns[k]);
        if (async) {
            s = _wal->writeFrameGroupAsync(txns);
            if (s.isOk()) {
                const std::uint64_t epoch = registerAsyncEpoch(
                    static_cast<std::uint32_t>(run.size()));
                for (GroupEntry *ge : run) {
                    ge->epoch = epoch;
                    // No durable claim: the ack only becomes
                    // guaranteed when the epoch hardens.
                    frRecord(FrRecordType::CommitAck, 0, 2,
                             frCheckpointId32(), ge->txnSeq, epoch);
                }
                _env.stats.add(stats::kDbAsyncCommits, run.size());
            }
        } else {
            s = _wal->writeFrameGroup(txns);
            if (s.isOk()) {
                // Under Eager/Lazy the strict group's barrier
                // pair already ran, so the run's commit marks are
                // durable when the records below are stored: a
                // durable claim. ChecksumAsync acks before any
                // barrier (§4.2 checksum commits) -- a crash may
                // keep this record yet lose the marks, so no
                // claim is stamped.
                const bool hardened =
                    _config.nvwal.syncMode != SyncMode::ChecksumAsync;
                const std::uint64_t marks =
                    _wal->commitSeq() - _frMarksBase;
                for (const GroupEntry *ge : run)
                    frRecord(FrRecordType::CommitAck,
                             hardened ? kFrFlagDurableClaim : 0, 0,
                             frCheckpointId32(), ge->txnSeq, marks);
            }
        }
    }
    // Every commit of the batch is settled: logged, or covered by
    // the poison below. Batches append in publish order, so the
    // batch's last publish sequence is the newest settled one.
    _loggedPublishSeq.store(batch.back()->publishSeq,
                            std::memory_order_release);
    if (!s.isOk()) {
        // Every transaction was already published to the shared
        // cache; there is no way back for it or anything that read
        // its pages since.
        _poisoned = s;
        return s;
    }
    // A sync run after an async one merges the pending unflushed
    // ranges into its barrier (NvwalLog strict appends harden first),
    // and the staleness bound may force a harden here; either way the
    // hardened horizon may have moved, so retire what it covers.
    s = maybeHardenAsync();
    completePendingAcks();
    frMaybeSnapshotCounters();
    return s;
}

Status
Database::submitAndWait(GroupEntry *entry,
                        std::unique_lock<std::mutex> *release_after_enqueue)
{
    std::unique_lock<std::mutex> q(_commitQueueMutex);
    _commitQueue.push_back(entry);
    _commitCv.notify_all();
    // The entry is ordered in the queue; only now may the next writer
    // begin (WAL append order must equal writer-lock order).
    release_after_enqueue->unlock();

    if (_groupLeaderActive) {
        _commitCv.wait(q, [&] { return entry->done; });
        return entry->status;
    }

    _groupLeaderActive = true;
    while (!_commitQueue.empty()) {
        // Commit combining: every registered write intent is a
        // transaction that will either enqueue an entry here or
        // withdraw (rollback, failed begin, empty commit), so hold
        // the batch open until the queue has caught up with the
        // intent count -- writers mid-body get absorbed and the whole
        // group costs one barrier pair. Never fires single-threaded
        // (one intent, one queued entry) and is real-time only: the
        // simulated clock is not charged for the window.
        _commitCv.wait_for(q, std::chrono::microseconds(500), [&] {
            std::uint32_t intents =
                _writeIntents.load(std::memory_order_relaxed);
            // After the leader's own entry was appended (iteration
            // 2+), its still-registered intent can never enqueue
            // again; counting it would force the full timeout.
            if (entry->done && intents > 0)
                --intents;
            return _commitQueue.size() >= intents;
        });
        std::vector<GroupEntry *> &batch = _leaderBatch;
        batch.clear();
        batch.swap(_commitQueue);
        q.unlock();
        const Status s = appendGroup(batch);
        q.lock();
        for (GroupEntry *e : batch) {
            e->status = s;
            e->done = true;
        }
        _commitCv.notify_all();
    }
    _groupLeaderActive = false;
    return entry->status;
}

void
Database::maybeCheckpointAfterCommit()
{
    const std::uint64_t writes = _wal->pageWritesSinceCheckpoint();
    if (writes < _config.checkpointThreshold)
        return;
    // The committer released the writer lock at enqueue, so another
    // write transaction may already be open; checkpointing under it
    // would fail with Busy although this commit landed. Skip the
    // step: the next commit re-trips the threshold.
    if (!_config.autoCheckpoint || _inTxn)
        return;
    // A snapshot pinned below the horizon a round writes back to --
    // a reader's, or an open multi-writer workspace's -- would clamp
    // the round and stop it short of truncating, so the step waits
    // for it to release. An open round's horizon is frozen, and pins
    // taken since sit at or above it, so only opening waits.
    if (_wal->oldestPin() < _wal->checkpointHorizon()) {
        _env.stats.add(stats::kAutoCheckpointPinWaits);
        return;
    }
    // At twice the threshold the round finishes blocking, as
    // Database::checkpoint() runs it, so the log stays bounded. A
    // paced step issues work only to an idle device, so a commit
    // never waits behind the programs an earlier step queued.
    const bool overdue = writes >= 2 * _config.checkpointThreshold;
    if (!overdue && _dbFile->writeOutBusy())
        return;
    const RoundKind kind = overdue ? RoundKind::Full : RoundKind::Paced;
    if (!checkpointRound(kind, 0, nullptr).isOk()) {
        _env.stats.add(stats::kAutoCheckpointFailures);
        _env.stats.tracer().instant("db.auto_checkpoint_failed", "db");
    }
}

Status
Database::commit(Durability durability)
{
    CommitOptions options;
    options.durability = durability;
    options.waitForHarden = durability != Durability::Async;
    return _rootConn->commit(options);
}

void
Database::rollbackBody()
{
    _pager->discardDirty(_txnStartPageCount);
    _inTxn = false;
    _env.stats.tracer().instant("txn.rollback", "db");
    _env.stats.tracer().setCurrentTxn(0);
    // The rolled-back transaction may have created or dropped
    // tables; drop all handles so they are rebuilt from the (now
    // reverted) catalog.
    _tables.clear();
}

Status
Database::rollback()
{
    return _rootConn->rollback();
}

bool
Database::inTransaction() const
{
    return _rootConn->inWrite();
}

void
Database::chargeStatement(std::size_t payload_bytes)
{
    _env.clock.advance(_env.cost.cpuOpNs +
                       static_cast<SimTime>(_env.cost.cpuPerByteNs *
                                            static_cast<double>(
                                                payload_bytes)));
}

// ---- Connection entry points ---------------------------------------

Status
Database::connect(std::unique_ptr<Connection> *out)
{
    return connect(ConnectOptions{}, out);
}

Status
Database::connect(const ConnectOptions &options,
                  std::unique_ptr<Connection> *out)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    out->reset(new Connection(*this, options));
    ++_openConnections;
    _env.stats.setGauge(stats::kGaugeOpenConnections, _openConnections);
    return Status::ok();
}

void
Database::releaseConnection()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_ASSERT(_openConnections > 0);
    --_openConnections;
    _env.stats.setGauge(stats::kGaugeOpenConnections, _openConnections);
}

Status
Database::beginFromConnection()
{
    // The caller holds the writer mutex, so no other write
    // transaction can be open.
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_ASSERT(!_inTxn, "writer lock held but a txn is open");
    NVWAL_RETURN_IF_ERROR(_poisoned);
    _inTxn = true;
    _txnStartPageCount = _pager->pageCount();
    ++_txnSeq;
    _txnBeginNs = _env.clock.now();
    _env.stats.tracer().setCurrentTxn(_txnSeq);
    _env.stats.tracer().instant("txn.begin", "db");
    frRecord(FrRecordType::TxnBegin, 0, 0, 0, _txnSeq);
    return Status::ok();
}

Status
Database::commitFromConnection(std::unique_lock<std::mutex> *writer_lock,
                               Durability durability,
                               std::uint64_t *ack_epoch)
{
    GroupEntry entry;
    entry.async = durability == Durability::Async;
    *ack_epoch = 0;
    bool have_entry = false;
    SimTime commit_begin = 0;
    SimTime txn_begin = 0;
    {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        NVWAL_ASSERT(_inTxn, "connection commit without open txn");
        if (!_poisoned.isOk()) {
            (void)rollbackFromConnection(writer_lock);
            return _poisoned;
        }
        if (entry.async && !_wal->supportsAsyncCommits()) {
            // The transaction stays open; the caller can retry with a
            // stricter durability level.
            return Status::unsupported(
                "this WAL mode has no asynchronous (checksum) commit; "
                "use Durability::Sync or Group");
        }
        commit_begin = _env.clock.now();
        txn_begin = _txnBeginNs;
        _env.clock.advance(_env.cost.cpuTxnNs);
        have_entry = collectDirtyFrames(&entry);
        entry.txnSeq = _txnSeq;
        // Publish to the shared cache now (the collected pages are the
        // whole dirty set; mark them clean): the next writer overlaps
        // its transaction body with this batch's durability. The
        // publish sequence stamps every page it wrote, for optimistic
        // validation.
        if (have_entry) {
            entry.publishSeq = ++_publishSeq;
            for (const GroupEntry::Frame &f : entry.frames) {
                if (f.pageNo >= _pagePublishSeq.size())
                    _pagePublishSeq.resize(f.pageNo + 1, 0);
                _pagePublishSeq[f.pageNo] = entry.publishSeq;
            }
            _pager->markAllClean();
        }
        _inTxn = false;
    }

    Status s = Status::ok();
    if (have_entry)
        s = submitAndWait(&entry, writer_lock);
    else
        writer_lock->unlock();
    // The transaction was published above, so win or lose it is no
    // longer a commit candidate; on failure the database is poisoned
    // rather than the txn retryable.
    endWriteIntent();

    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    Tracer &tracer = _env.stats.tracer();
    if (s.isOk()) {
        *ack_epoch = entry.epoch;
        _env.stats.add(stats::kTxnsCommitted);
        // Spans close after durability, so the WAL append lies inside
        // db.commit. The auto-checkpoint below is still attributed to
        // this transaction (it is the commit that tripped the
        // threshold).
        tracer.complete("db.commit", "db", commit_begin, "dirty_pages",
                        entry.frames.size());
        tracer.complete("db.txn", "db", txn_begin);
        _env.stats.recordNs(stats::kHistCommitNs,
                            _env.clock.now() - commit_begin);
        maybeCheckpointAfterCommit();
    }
    // Anything after the commit is background again -- unless the
    // next writer has begun meanwhile and owns the attribution.
    if (tracer.currentTxn() == entry.txnSeq)
        tracer.setCurrentTxn(0);
    recycleFrames(&entry);
    return s;
}

Status
Database::rollbackFromConnection(std::unique_lock<std::mutex> *writer_lock)
{
    {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        NVWAL_ASSERT(_inTxn, "connection rollback without open txn");
        rollbackBody();
    }
    writer_lock->unlock();
    endWriteIntent();
    return Status::ok();
}

// ---- committed-page fetches (DESIGN.md §16) -------------------------

ConstByteSpan
Database::pagerImage(PageNo page_no, CommitSeq horizon)
{
    // The clean pager image is the newest logged version of the page
    // unless a published commit is not logged (in flight, or lost to
    // a failed append). Both sequences settle under the engine lock.
    if (!_poisoned.isOk() ||
        _publishSeq != _loggedPublishSeq.load(std::memory_order_relaxed))
        return {};
    const CachedPage *page = _pager->cached(page_no);
    if (page == nullptr || page->isDirty())
        return {};
    // The newest version is the version at the horizon only when no
    // retained commit past the horizon touched the page.
    const std::optional<CommitSeq> newest = _wal->newestFrameSeq(page_no);
    if (!newest || *newest > horizon)
        return {};
    _env.clock.advance(static_cast<SimTime>(
        _env.cost.memcpyDramNsPerByte *
        static_cast<double>(page->buf.size())));
    return page->cspan();
}

bool
Database::copyPagerImage(PageNo page_no, CommitSeq horizon, ByteSpan out)
{
    const ConstByteSpan image = pagerImage(page_no, horizon);
    if (image.empty())
        return false;
    NVWAL_ASSERT(out.size() == image.size());
    std::memcpy(out.data(), image.data(), out.size());
    return true;
}

Status
Database::fetchCommittedPage(PageNo page_no, CommitSeq horizon,
                             ByteSpan out)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (copyPagerImage(page_no, horizon, out)) {
        _env.stats.add(stats::kSnapshotPagerFetches);
        return Status::ok();
    }
    return rebuildCommittedPage(page_no, horizon, out);
}

Status
Database::rebuildCommittedPage(PageNo page_no, CommitSeq horizon,
                               ByteSpan out)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    const Status s = _wal->readPageAt(page_no, out, horizon);
    if (!s.isNotFound())
        return s;
    // No committed frame at or below the horizon: the .db file copy
    // is current for this snapshot (checkpointing never advances the
    // file past the oldest pin).
    if (page_no <= _dbFile->pageCount())
        return _dbFile->readPage(page_no, out);
    return Status::corruption("snapshot page missing from WAL and file");
}

// ---- statements ----------------------------------------------------

Status
Database::insert(RowId key, ValueView value)
{
    return _rootConn->insert(key, value);
}

Status
Database::update(RowId key, ValueView value)
{
    return _rootConn->update(key, value);
}

Status
Database::remove(RowId key)
{
    return _rootConn->remove(key);
}

Status
Database::get(RowId key, ByteBuffer *value)
{
    return _rootConn->get(key, value);
}

Status
Database::scan(RowId lo, RowId hi, const BTree::ScanCallback &visit)
{
    return _rootConn->scan(lo, hi, visit);
}

Status
Database::count(std::uint64_t *out)
{
    return _rootConn->count(out);
}

// ---- maintenance ---------------------------------------------------

Status
Database::checkpoint()
{
    return checkpointRound(RoundKind::Full, 0, nullptr);
}

Status
Database::checkpointStep(std::uint32_t max_pages, bool *done)
{
    if (max_pages == 0)
        return Status::invalidArgument(
            "checkpointStep needs max_pages > 0; checkpoint() runs a "
            "full round");
    return checkpointRound(RoundKind::Step, max_pages, done);
}

Status
Database::checkpointRound(RoundKind kind, std::uint32_t max_pages,
                          bool *done)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (_inTxn)
        return Status::busy("cannot checkpoint inside a transaction");
    const bool full = kind == RoundKind::Full;
    const std::uint64_t ckpt_before =
        _nvwalLog != nullptr ? _nvwalLog->checkpointId() : 0;
    const CommitSeq hardened_before = _wal->hardenedSeq();
    frRecord(FrRecordType::CheckpointStart, 0, full ? 1 : 0,
             static_cast<std::uint32_t>(ckpt_before),
             _wal->framesSinceCheckpoint());
    bool round_done = full;
    Status s;
    switch (kind) {
      case RoundKind::Full: s = _wal->checkpoint(); break;
      case RoundKind::Step:
        s = _wal->checkpointStep(max_pages, &round_done);
        break;
      case RoundKind::Paced:
        s = _wal->checkpointPaced(&round_done);
        break;
    }
    if (done != nullptr)
        *done = round_done;
    // A checkpoint hardens pending async appends before write-back;
    // retire the epochs that covered.
    completePendingAcks();
    NVWAL_RETURN_IF_ERROR(s);
    frNoteTruncation(ckpt_before);
    if (_wal->hardenedSeq() != hardened_before)
        frRecordHarden(FrHardenReason::Checkpoint);
    frRecord(FrRecordType::CheckpointEnd, 0, round_done ? 1 : 0,
             frCheckpointId32(), _wal->framesSinceCheckpoint());
    return Status::ok();
}

std::uint64_t
Database::walPageWritesSinceCheckpoint() const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _wal->pageWritesSinceCheckpoint();
}

std::uint64_t
Database::statValue(MetricName name) const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _env.stats.get(name);
}

std::uint64_t
Database::statGauge(MetricName name) const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _env.stats.gauge(name);
}

// ---- durability-epoch pipeline --------------------------------------

std::uint64_t
Database::registerAsyncEpoch(std::uint32_t acks)
{
    // Engine lock held by the caller (appendGroup); _asyncMutex is a
    // leaf below it.
    std::lock_guard<std::mutex> a(_asyncMutex);
    AsyncEpoch e;
    e.epoch = ++_epochSequencer;
    e.seq = _wal->commitSeq();
    e.acks = acks;
    e.issuedNs = _env.clock.now();
    _asyncEpochs.push_back(e);
    _asyncAcksPending += acks;
    _env.stats.setGauge(stats::kGaugeAsyncAcksPending, _asyncAcksPending);
    return e.epoch;
}

std::size_t
Database::completePendingAcks()
{
    const CommitSeq hardened = _wal->hardenedSeq();
    std::lock_guard<std::mutex> a(_asyncMutex);
    std::size_t completed = 0;
    while (completed < _asyncEpochs.size() &&
           _asyncEpochs[completed].seq <= hardened) {
        _asyncAcksPending -= _asyncEpochs[completed].acks;
        _hardenedEpoch = _asyncEpochs[completed].epoch;
        ++completed;
    }
    if (completed == 0)
        return 0;
    _asyncEpochs.erase(_asyncEpochs.begin(),
                       _asyncEpochs.begin() +
                           static_cast<std::ptrdiff_t>(completed));
    _env.stats.add(stats::kWalEpochsHardened, completed);
    _env.stats.setGauge(stats::kGaugeAsyncAcksPending, _asyncAcksPending);
    return completed;
}

Status
Database::maybeHardenAsync()
{
    bool over_epochs = false;
    bool over_age = false;
    {
        std::lock_guard<std::mutex> a(_asyncMutex);
        if (_asyncEpochs.empty())
            return Status::ok();
        over_epochs = _asyncEpochs.size() > _config.asyncMaxEpochs;
        over_age = _config.asyncMaxStalenessNs != 0 &&
                   _env.clock.now() - _asyncEpochs.front().issuedNs >=
                       _config.asyncMaxStalenessNs;
    }
    if (!over_epochs && !over_age)
        return Status::ok();
    return hardenPendingAsync(over_epochs ? FrHardenReason::WindowEpochs
                                          : FrHardenReason::WindowStaleness);
}

Status
Database::hardenPendingAsync(FrHardenReason reason)
{
    const CommitSeq hardened_before = _wal->hardenedSeq();
    NVWAL_RETURN_IF_ERROR(_wal->harden());
    const std::size_t retired = completePendingAcks();
    if (retired != 0 || _wal->hardenedSeq() != hardened_before)
        frRecordHarden(reason);
    return Status::ok();
}

Status
Database::flushAsyncCommits()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_RETURN_IF_ERROR(_poisoned);
    return hardenPendingAsync(FrHardenReason::Explicit);
}

Status
Database::waitForAsyncEpoch(std::uint64_t epoch)
{
    if (epoch == 0)
        return Status::ok();
    {
        std::lock_guard<std::mutex> a(_asyncMutex);
        if (_hardenedEpoch >= epoch)
            return Status::ok();
    }
    return flushAsyncCommits();
}

std::uint64_t
Database::asyncAcksPending() const
{
    std::lock_guard<std::mutex> a(_asyncMutex);
    return _asyncAcksPending;
}

std::uint64_t
Database::hardenedEpoch() const
{
    std::lock_guard<std::mutex> a(_asyncMutex);
    return _hardenedEpoch;
}

std::uint64_t
Database::lastCommitEpoch() const
{
    return _rootConn->lastCommitEpoch();
}

SnapshotCache
Database::snapshotCache()
{
    const CommitSeq horizon = _wal->commitSeq();
    // commitSeq() and committedDbSize() are read under one engine-lock
    // hold, so no commit interleaves.
    std::uint32_t pages = _wal->committedDbSize();
    if (pages == 0)
        pages = _dbFile->pageCount();
    return SnapshotCache(
        _config.pageSize, _pager->reservedBytes(), _pager->rootPage(),
        horizon, pages, [this, horizon](PageNo page_no, ByteSpan out) {
            return fetchCommittedPage(page_no, horizon, out);
        });
}

// ---- optimistic multi-writer transactions (DESIGN.md §13) -----------

Status
Database::openWorkspace(std::uint64_t after_publish,
                        std::unique_ptr<MwWorkspace> *out)
{
    // A retry must not begin below the commit it lost to: at a horizon
    // that misses it, the retry would read the same stale page and
    // lose to the same commit again for as long as its group append
    // is in flight. The leader settles _loggedPublishSeq before it
    // notifies under the queue lock, so the wakeup cannot be missed.
    if (after_publish > _loggedPublishSeq.load(std::memory_order_acquire)) {
        std::unique_lock<std::mutex> q(_commitQueueMutex);
        _commitCv.wait(q, [&] {
            return _loggedPublishSeq.load(std::memory_order_acquire) >=
                   after_publish;
        });
    }

    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_RETURN_IF_ERROR(_poisoned);
    // Pin the logged horizon exactly as beginRead() does: no
    // checkpoint advances the .db file past it or drops a frame it
    // can reach until the workspace commits or rolls back. Commits
    // published but not yet logged are invisible at the horizon, and
    // their publish sequences lie past the workspace's, so validation
    // treats them as concurrent.
    *out = std::make_unique<MwWorkspace>(
        snapshotCache(), _loggedPublishSeq.load(std::memory_order_relaxed),
        _env.clock.now(), &_pageCursor);
    _wal->pinSnapshot((*out)->horizon());
    _env.stats.setGauge(stats::kGaugeOpenSnapshots, _wal->pinCount());
    return Status::ok();
}

void
Database::closeWorkspace(const MwWorkspace &ws)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    _wal->unpinSnapshot(ws.horizon());
    _env.stats.setGauge(stats::kGaugeOpenSnapshots, _wal->pinCount());
}

Status
Database::installWorkspace(const MwWorkspace &ws, std::uint64_t *winner)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_ASSERT(!_inTxn, "writer lock held but a txn is open");
    // The workspace reads nothing more: its pages are either
    // installed below or discarded.
    closeWorkspace(ws);
    NVWAL_RETURN_IF_ERROR(_poisoned);
    const std::vector<PageNo> dirty = ws.dirtyPageNos();
    // A read-only transaction read one consistent horizon and writes
    // nothing, so it has nothing to validate.
    if (!dirty.empty()) {
        for (PageNo page_no : ws.readSet()) {
            const std::uint64_t seq = page_no < _pagePublishSeq.size()
                                          ? _pagePublishSeq[page_no]
                                          : 0;
            if (seq > ws.beginPublish()) {
                _env.stats.add(stats::kWalLogConflicts);
                *winner = seq;
                return Status::conflict(
                    "page " + std::to_string(page_no) +
                    " published at sequence " + std::to_string(seq) +
                    " after the transaction began");
            }
        }
    }

    // Every page read is still the newest committed version, so the
    // workspace image of each dirty page is exactly one commit ahead
    // of the shared pager's -- or a page freshly allocated from the
    // cursor. From here on this is the engine's write transaction.
    _inTxn = true;
    _txnStartPageCount = _pager->pageCount();
    for (PageNo page_no : dirty)
        _pager->installPage(page_no, *ws.cached(page_no));
    if (ws.dbSizePages() > _pager->pageCount())
        _pager->setPageCount(ws.dbSizePages());
    ++_txnSeq;
    _txnBeginNs = ws.beginNs();
    _env.stats.tracer().setCurrentTxn(_txnSeq);
    frRecord(FrRecordType::TxnBegin, 0, 0, 0, _txnSeq);
    return Status::ok();
}

Status
Database::vacuum()
{
    if (_multiWriter)
        return Status::unsupported(
            "vacuum is single-writer only: reopen without multiWriter "
            "to compact");
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (_inTxn)
        return Status::busy("cannot vacuum inside a transaction");
    if (_wal->hasPins())
        return Status::busy("open snapshots pin the log");
    // Make the .db file current and the log empty so the rebuild
    // can read pages straight from the file image.
    NVWAL_RETURN_IF_ERROR(checkpoint());

    const std::string tmp_name = _config.name + ".vacuum";
    if (_env.fs.exists(tmp_name))
        NVWAL_RETURN_IF_ERROR(_env.fs.remove(tmp_name));

    {
        DbFile tmp_file(_env.fs, tmp_name, _config.pageSize);
        NVWAL_RETURN_IF_ERROR(tmp_file.open());
        Pager tmp_pager(tmp_file, _config.pageSize,
                        resolveReserved(_config));
        NVWAL_RETURN_IF_ERROR(tmp_pager.open());
        BTree tmp_catalog(tmp_pager, tmp_pager.rootPage());

        // Copy each table in catalog order; scanning in key order
        // produces compact, append-built trees in the new file.
        Status copy_error = Status::ok();
        NVWAL_RETURN_IF_ERROR(scanCatalog(
            *_catalog, [&](RowId id, PageNo old_root,
                           const std::string &table_name) {
                CachedPage *root_page;
                PageNo new_root;
                copy_error =
                    tmp_pager.allocatePage(&root_page, &new_root);
                if (!copy_error.isOk())
                    return false;
                const ByteBuffer entry =
                    encodeCatalogEntry(new_root, table_name);
                copy_error = tmp_catalog.insert(
                    id, ConstByteSpan(entry.data(), entry.size()));
                if (!copy_error.isOk())
                    return false;

                BTree source(*_pager, old_root);
                BTree target(tmp_pager, new_root);
                const Status scan_status = source.scan(
                    INT64_MIN, INT64_MAX,
                    [&](RowId key, ConstByteSpan value) {
                        copy_error = target.insert(key, value);
                        return copy_error.isOk();
                    });
                if (copy_error.isOk())
                    copy_error = scan_status;
                return copy_error.isOk();
            }));
        NVWAL_RETURN_IF_ERROR(copy_error);
        NVWAL_RETURN_IF_ERROR(tmp_pager.flushAllToFile());
        NVWAL_RETURN_IF_ERROR(tmp_file.sync());
    }

    // Atomic swap, then rebuild all volatile state on the new file.
    NVWAL_RETURN_IF_ERROR(_env.fs.rename(tmp_name, _config.name));
    _tables.clear();
    _catalog.reset();
    _wal.reset();
    _pager.reset();
    _dbFile.reset();
    return openInternal();
}

Status
Database::verifyIntegrity()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_RETURN_IF_ERROR(_catalog->validate());
    std::vector<PageNo> roots;
    NVWAL_RETURN_IF_ERROR(scanCatalog(
        *_catalog, [&](RowId, PageNo root, const std::string &) {
            roots.push_back(root);
            return true;
        }));
    for (PageNo root : roots) {
        BTree tree(*_pager, root);
        NVWAL_RETURN_IF_ERROR(tree.validate());
    }
    return Status::ok();
}

} // namespace nvwal
