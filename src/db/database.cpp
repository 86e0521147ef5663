#include "database.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "db/catalog_codec.hpp"
#include "db/connection.hpp"
#include "pager/snapshot_cache.hpp"

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

/** The paper's per-mode default when DbConfig::reservedBytes is unset. */
std::uint32_t
resolveReserved(const DbConfig &config)
{
    if (config.reservedBytes.has_value())
        return *config.reservedBytes;
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
    if (config.reservedBytes.has_value() &&
        *config.reservedBytes >= config.pageSize)
        return Status::invalidArgument(
            "reserved bytes must be smaller than the page size");
    if ((config.incrementalCheckpoint || config.backgroundCheckpointer) &&
        config.checkpointStepPages == 0)
        return Status::invalidArgument(
            "incremental checkpointing needs checkpointStepPages > 0");
    if (config.asyncMaxEpochs == 0)
        return Status::invalidArgument(
            "asyncMaxEpochs must be >= 1 (the staleness bound)");
    if (config.backgroundDurability && config.walMode != WalMode::Nvwal)
        return Status::invalidArgument(
            "background durability requires the NVRAM WAL");
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
        if (config.nvwal.syncMode != SyncMode::Lazy)
            return Status::invalidArgument(
                "multi-writer mode requires SyncMode::Lazy (epoch "
                "commits flush lazily and harden in groups)");
        if (config.writerLogs < 1 || config.writerLogs > 32)
            return Status::invalidArgument(
                "writerLogs must be in [1, 32]: " +
                std::to_string(config.writerLogs));
        if (config.shardMember)
            return Status::invalidArgument(
                "multi-writer mode cannot run on a shard member");
        if (config.backgroundCheckpointer || config.backgroundDurability)
            return Status::invalidArgument(
                "multi-writer mode schedules hardens and checkpoints "
                "itself; disable the background threads");
        // "-cNN" suffixes must still fit the heap's name slots.
        if (config.nvwal.heapNamespace.size() >
            NvHeap::kNamespaceNameLen - 4)
            return Status::invalidArgument(
                "multi-writer namespace needs 4 spare characters for "
                "per-connection log suffixes: \"" +
                config.nvwal.heapNamespace + "\"");
    }
    return Status::ok();
}

Database::Database(Env &env, DbConfig config)
    : _env(env), _config(std::move(config))
{
    ConnectOptions root_options;
    root_options.autoWriteTxn = true;
    _rootConn.reset(new Connection(*this, root_options, 0));
    _rootConn->_root = true;
}

Database::~Database()
{
    // The root connection holds engine references; destroy it before
    // any engine state goes away.
    _rootConn.reset();
    // Stop the durability thread first and abandon any still-pending
    // async epochs: a destructor must not issue media operations (the
    // handle may be torn down after a simulated crash), so commits
    // that were never flushed simply fall inside the documented
    // bounded loss window. Clean shutdowns call flushAsyncCommits().
    stopDurability();
    stopCheckpointer();
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
            [this](PageNo page_no, CommitSeq horizon, ByteSpan out) {
                return copyPagerImage(page_no, horizon, out);
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

    if (_config.multiWriter)
        NVWAL_RETURN_IF_ERROR(mwActivate(stats_before_recovery));

    if (_config.backgroundCheckpointer && !_checkpointer.joinable())
        _checkpointer = std::thread(&Database::checkpointerMain, this);
    if (_config.backgroundDurability && _wal->supportsAsyncCommits() &&
        !_durabilityThread.joinable())
        _durabilityThread = std::thread(&Database::durabilityMain, this);
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
    const std::uint64_t marks = _wal->commitSeq() - _frMarksBase;
    // Durable-claim marks are counted per checkpoint round; the
    // truncation starts a new round, so rebase before the next ack.
    _frMarksBase = _wal->commitSeq();
    frRecord(FrRecordType::Truncation, kFrFlagDurableClaim, 0,
             static_cast<std::uint32_t>(ckpt_after), marks, ckpt_before);
}

void
Database::frMaybeSnapshotCounters()
{
    if (!_flightRecorder || !_flightRecorder->ready() ||
        _config.frSnapshotEveryBatches == 0)
        return;
    if (++_frBatchesSinceSnapshot < _config.frSnapshotEveryBatches)
        return;
    _frBatchesSinceSnapshot = 0;
    static const char *const kDefaultSet[] = {
        stats::kTxnsCommitted,   stats::kPersistBarriers,
        stats::kFlushSyscalls,   stats::kNvramBytesLogged,
        stats::kCheckpoints,
    };
    auto sample = [&](const std::string &name) {
        frRecord(FrRecordType::CounterSnapshot, 0, 0,
                 frCounterNameHash(name), _env.stats.get(name), _txnSeq);
    };
    if (_config.frSnapshotCounters.empty()) {
        for (const char *name : kDefaultSet)
            sample(name);
    } else {
        for (const std::string &name : _config.frSnapshotCounters)
            sample(name);
    }
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
        _config.frRingRecords, _config.frShard);
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
    wal_state.inDoubt = _wal->inDoubtTransactions();
    wal_state.lookupDecision = [this](std::uint64_t gtid, bool *commit) {
        return _wal->lookupDecision(gtid, commit);
    };

    _recoveryReport = buildRecoveryReport(parsed, wal_state);
    _recoveryReport.recorderEnabled = true;
    _recoveryReport.heapNamespace = _flightRecorder->heapNamespace();
    _recoveryReport.shard = _config.frShard;

    // Stash the report inputs: mwActivate rebuilds the report after
    // the cross-log merge adds its own recovery facts.
    _frParsedRecording = parsed;
    _frWalState = wal_state;
    _frStatsBefore = stats_before;

    // Delimit this incarnation in the ring. Recovered commit
    // sequences restart at marks-since-truncation, so the base is 0.
    frRecord(FrRecordType::RecorderOpen, 0, 0, frCheckpointId32(),
             _wal->commitSeq(), _wal->framesSinceCheckpoint());
}

Status
Database::publishFlightRecorder()
{
    if (_mwActive) {
        // _mwMutex serializes ring appends once the engine is active.
        std::lock_guard<std::mutex> mw(_mwMutex);
        if (!_flightRecorder || !_flightRecorder->ready())
            return Status::unsupported(
                "the flight recorder is not enabled");
        _flightRecorder->publish();
        return Status::ok();
    }
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
    if (_mwActive)
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
    if (_mwActive)
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
    if (_mwActive)
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

template <typename Op>
Status
Database::withCatalogPages(const Op &op)
{
    if (!_mwActive) {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        return op(static_cast<PageSource &>(*_pager));
    }
    // Multi-writer: read through a snapshot pinned at the published
    // floor; the shared pager is not serialized against multi-writer
    // checkpoints.
    std::uint32_t pages = 0;
    const std::uint64_t floor = mwPinRead(&pages);
    SnapshotCache snap(
        _config.pageSize, _pager->reservedBytes(), pages,
        _pager->rootPage(), [this, floor](PageNo no, ByteSpan buf) {
            return mwFetchPage(no, floor, buf, nullptr);
        });
    const Status s = op(static_cast<PageSource &>(snap));
    mwUnpinRead(floor);
    return s;
}

Status
Database::listTables(std::vector<std::string> *out)
{
    out->clear();
    return withCatalogPages([&](PageSource &pages) {
        BTree catalog(pages, _pager->rootPage());
        return scanCatalog(
            catalog, [&](RowId, PageNo, const std::string &name) {
                out->push_back(name);
                return true;
            });
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
    const std::vector<PageNo> dirty = _pager->dirtyPageNos();
    entry->frames.clear();
    entry->frames.reserve(dirty.size());
    for (PageNo no : dirty) {
        CachedPage *page = _pager->cached(no);
        NVWAL_ASSERT(page != nullptr, "dirty page not cached");
        GroupEntry::Frame frame;
        frame.pageNo = no;
        frame.page = page->buf;
        frame.ranges = page->dirty;
        frame.observedDirtyPct = page->noteDirtyRatio();
        entry->frames.push_back(std::move(frame));
    }
    entry->dbSizePages = _pager->pageCount();
    return !entry->frames.empty();
}

TxnFrames
Database::entryToTxn(const GroupEntry &e)
{
    TxnFrames txn;
    txn.dbSizePages = e.dbSizePages;
    txn.frames.reserve(e.frames.size());
    for (const GroupEntry::Frame &f : e.frames) {
        txn.frames.push_back(FrameWrite{
            f.pageNo, ConstByteSpan(f.page.data(), f.page.size()),
            &f.ranges, f.observedDirtyPct});
    }
    return txn;
}

Status
Database::appendGroup(const std::vector<GroupEntry *> &batch)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    _env.stats.add(stats::kGroupCommits);
    _env.stats.add(stats::kGroupCommitTxns, batch.size());
    _env.stats.recordNs(stats::kHistGroupCommitSize, batch.size());
    _env.stats.setGauge(stats::kGaugeCommitQueueDepth, batch.size());
    std::uint32_t commits = 0;
    {
        std::uint64_t newest_txn = 0;
        for (const GroupEntry *e : batch) {
            if (e->kind != GroupEntry::Kind::Commit)
                continue;
            ++commits;
            if (e->txnSeq > newest_txn)
                newest_txn = e->txnSeq;
        }
        frRecord(FrRecordType::GroupBatch, 0, 0,
                 static_cast<std::uint32_t>(batch.size()), newest_txn);
    }

    // The queue interleaves plain commits with 2PC records. Append
    // each maximal run of commits as one WAL group (one barrier pair
    // for the run); PREPARE/DECISION records go through their own WAL
    // entry points, in queue order, so a participant's records land
    // exactly where the writer-lock order put them.
    Status s = Status::ok();
    std::size_t i = 0;
    while (s.isOk() && i < batch.size()) {
        GroupEntry *e = batch[i];
        switch (e->kind) {
          case GroupEntry::Kind::Commit: {
            // Runs are split by durability: a sync run costs one
            // barrier pair for the whole run, an async run costs none
            // (its epoch hardens later). Mixing them would either
            // harden the async commits early or strand the sync ones.
            const bool async = e->async;
            std::vector<TxnFrames> txns;
            std::vector<GroupEntry *> run;
            while (i < batch.size() &&
                   batch[i]->kind == GroupEntry::Kind::Commit &&
                   batch[i]->async == async) {
                txns.push_back(entryToTxn(*batch[i]));
                run.push_back(batch[i]);
                ++i;
            }
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
            break;
          }
          case GroupEntry::Kind::Prepare: {
            const TxnFrames txn = entryToTxn(*e);
            s = _wal->writePrepare(e->gtid, txn);
            if (s.isOk())
                // 2PC control frames flush eagerly: durable claim.
                frRecord(FrRecordType::Prepare, kFrFlagDurableClaim, 0,
                         frCheckpointId32(), e->gtid);
            ++i;
            break;
          }
          case GroupEntry::Kind::Decision:
            s = _wal->writeDecision(e->gtid, e->decisionCommit);
            if (s.isOk())
                frRecord(FrRecordType::Decision, kFrFlagDurableClaim,
                         e->decisionCommit ? 1 : 0, frCheckpointId32(),
                         e->gtid);
            ++i;
            break;
        }
    }
    // Every published commit of the batch is settled: logged, or
    // covered by the poison below.
    NVWAL_ASSERT(_unloggedCommits >= commits);
    _unloggedCommits -= commits;
    if (!s.isOk()) {
        for (const GroupEntry *e : batch) {
            if (e->finalized) {
                // The transaction was already published to the shared
                // cache; there is no way back for it or anything that
                // read its pages since.
                _poisoned = s;
                break;
            }
        }
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
    if (release_after_enqueue != nullptr)
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
        std::vector<GroupEntry *> batch;
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
    if (_wal->pageWritesSinceCheckpoint() < _config.checkpointThreshold)
        return;
    if (_config.backgroundCheckpointer) {
        kickCheckpointer();
        return;
    }
    // The committer released the writer lock at enqueue, so another
    // write transaction may already be open; checkpointing under it
    // would fail with Busy although this commit landed. Skip the
    // round: the next commit re-trips the threshold.
    if (!_config.autoCheckpoint || _inTxn)
        return;
    const std::uint32_t step_pages =
        _config.incrementalCheckpoint ? _config.checkpointStepPages : 0;
    if (!checkpointRound(step_pages, nullptr).isOk()) {
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
    // Round-robin slot assignment spreads connections over the
    // per-connection logs (harmless in single-writer mode).
    const std::uint32_t slot =
        _config.writerLogs != 0 ? _nextConnSlot++ % _config.writerLogs
                                : 0;
    out->reset(new Connection(*this, options, slot));
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
    entry.finalized = true;
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
        // Publish to the shared cache now: the next writer overlaps
        // its transaction body with this batch's durability.
        if (have_entry) {
            _pager->markAllClean();
            ++_unloggedCommits;
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

Status
Database::prepareFromConnection(std::uint64_t gtid)
{
    GroupEntry entry;
    entry.kind = GroupEntry::Kind::Prepare;
    entry.gtid = gtid;
    {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        NVWAL_ASSERT(_inTxn, "connection prepare without open txn");
        NVWAL_RETURN_IF_ERROR(_poisoned);
        if (!_wal->supportsTwoPhase())
            return Status::unsupported(
                "WAL mode has no two-phase commit");
        _env.clock.advance(_env.cost.cpuTxnNs);
        // An empty frame set is fine: the PREPARE record alone still
        // makes this shard a voting participant.
        (void)collectDirtyFrames(&entry);
        entry.txnSeq = _txnSeq;
    }
    // Unlike a commit, the writer lock is kept and the pages stay
    // dirty: the transaction remains open (invisible, undecided)
    // until decideFromConnection. On failure nothing was staged and
    // the caller rolls back normally.
    return submitAndWait(&entry, nullptr);
}

Status
Database::decideFromConnection(std::uint64_t gtid, bool commit,
                               std::unique_lock<std::mutex> *writer_lock)
{
    GroupEntry entry;
    entry.kind = GroupEntry::Kind::Decision;
    entry.gtid = gtid;
    entry.decisionCommit = commit;
    // A failed decision append leaves the durable outcome unknown
    // (the record may or may not have reached NVRAM); poison rather
    // than pretend the transaction is retryable.
    entry.finalized = true;
    {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        NVWAL_ASSERT(_inTxn, "connection decide without open txn");
        if (!_poisoned.isOk()) {
            (void)rollbackFromConnection(writer_lock);
            return _poisoned;
        }
        _env.clock.advance(_env.cost.cpuTxnNs);
    }

    const Status s = submitAndWait(&entry, nullptr);

    {
        std::lock_guard<std::recursive_mutex> eng(_engineMutex);
        if (s.isOk() && commit) {
            // The staged frames are applied in the WAL; publish the
            // local page images that produced them.
            _pager->markAllClean();
            _inTxn = false;
            _env.stats.add(stats::kTxnsCommitted);
            _env.stats.tracer().complete("db.txn", "db", _txnBeginNs);
            _env.stats.tracer().setCurrentTxn(0);
        } else {
            // Abort decision, or an append whose outcome is unknown
            // (the database is poisoned by then): discard the local
            // changes either way.
            rollbackBody();
        }
    }
    writer_lock->unlock();
    endWriteIntent();

    if (!s.isOk())
        return s;
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    maybeCheckpointAfterCommit();
    return Status::ok();
}

// ---- committed-page fetches (DESIGN.md §16) -------------------------

bool
Database::copyPagerImage(PageNo page_no, CommitSeq horizon, ByteSpan out)
{
    // The clean pager image is the newest logged version of the page
    // unless a published commit is not logged (in flight, or lost to
    // a failed append) or the multi-writer overlay owns the pages.
    if (_mwActive || !_poisoned.isOk() || _unloggedCommits != 0)
        return false;
    const CachedPage *page = _pager->cached(page_no);
    if (page == nullptr || page->isDirty())
        return false;
    // The newest version is the version at the horizon only when no
    // retained commit past the horizon touched the page.
    const std::optional<CommitSeq> newest = _wal->newestFrameSeq(page_no);
    if (!newest || *newest > horizon)
        return false;
    NVWAL_ASSERT(out.size() == page->buf.size());
    std::memcpy(out.data(), page->buf.data(), out.size());
    _env.clock.advance(static_cast<SimTime>(
        _env.cost.memcpyDramNsPerByte * static_cast<double>(out.size())));
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

// ---- two-phase commit (shard-layer entry points) --------------------

Status
Database::resolvePreparedTxn(std::uint64_t gtid, bool commit)
{
    if (_mwActive)
        return Status::unsupported(
            "two-phase commit is not available in multi-writer mode");
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (_inTxn)
        return Status::busy(
            "cannot resolve an in-doubt txn inside a transaction");
    NVWAL_RETURN_IF_ERROR(_wal->resolveInDoubt(gtid, commit));
    frRecord(FrRecordType::Decision, kFrFlagDurableClaim, commit ? 1 : 0,
             frCheckpointId32(), gtid);
    if (commit) {
        // Frames that were invisible through recovery just became
        // committed; resynchronize the pager with the log so reads
        // see them.
        const std::uint32_t pages = _wal->committedDbSize();
        if (pages != 0)
            _pager->setPageCount(pages);
        _pager->dropCleanPages();
        _tables.clear();
    }
    return Status::ok();
}

std::vector<std::uint64_t>
Database::inDoubtTransactions() const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _wal->inDoubtTransactions();
}

bool
Database::lookupDecision(std::uint64_t gtid, bool *commit) const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _wal->lookupDecision(gtid, commit);
}

std::uint64_t
Database::walMaxSeenGtid() const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _wal->maxSeenGtid();
}

void
Database::holdWalForTwoPhase()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    _wal->acquireTwoPhaseHold();
}

void
Database::releaseWalTwoPhaseHold()
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    _wal->releaseTwoPhaseHold();
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
    if (_mwActive)
        return mwCheckpoint();
    return checkpointRound(0, nullptr);
}

Status
Database::checkpointStep(std::uint32_t max_pages, bool *done)
{
    if (_mwActive) {
        // Multi-writer checkpoints are always full rounds: write-back
        // happens from the DRAM overlay, not the log, so there is no
        // incremental cursor to resume.
        *done = true;
        return mwCheckpoint();
    }
    return checkpointRound(
        max_pages != 0 ? max_pages : _config.checkpointStepPages, done);
}

Status
Database::checkpointRound(std::uint32_t max_pages, bool *done)
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (_inTxn)
        return Status::busy("cannot checkpoint inside a transaction");
    const bool full = max_pages == 0;
    const std::uint64_t ckpt_before =
        _nvwalLog != nullptr ? _nvwalLog->checkpointId() : 0;
    const CommitSeq hardened_before = _wal->hardenedSeq();
    frRecord(FrRecordType::CheckpointStart, 0, full ? 1 : 0,
             static_cast<std::uint32_t>(ckpt_before),
             _wal->framesSinceCheckpoint());
    bool round_done = full;
    const Status s = full ? _wal->checkpoint()
                          : _wal->checkpointStep(max_pages, &round_done);
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
    if (_mwActive)
        return _mwPageWritesSinceCkpt.load(std::memory_order_relaxed);
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _wal->pageWritesSinceCheckpoint();
}

std::uint64_t
Database::statValue(const std::string &name) const
{
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    return _env.stats.get(name);
}

std::uint64_t
Database::statGauge(const std::string &name) const
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
    _asyncCv.notify_all();
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
    if (_config.backgroundDurability) {
        kickDurability();
        return Status::ok();
    }
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
    if (_mwActive) {
        std::uint64_t floor;
        {
            std::lock_guard<std::mutex> mw(_mwMutex);
            NVWAL_RETURN_IF_ERROR(_mwPoisoned);
            floor = _mwPublished;
        }
        return mwHardenUpTo(floor, FrHardenReason::Explicit);
    }
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    NVWAL_RETURN_IF_ERROR(_poisoned);
    return hardenPendingAsync(FrHardenReason::Explicit);
}

Status
Database::waitForAsyncEpoch(std::uint64_t epoch)
{
    if (epoch == 0)
        return Status::ok();
    if (_mwActive)
        return mwHardenUpTo(epoch, FrHardenReason::Explicit);
    {
        std::lock_guard<std::mutex> a(_asyncMutex);
        if (_hardenedEpoch >= epoch)
            return Status::ok();
        if (_asyncAbandoned)
            return Status::busy("database is shutting down");
    }
    if (!_config.backgroundDurability)
        return flushAsyncCommits();
    kickDurability();
    std::unique_lock<std::mutex> a(_asyncMutex);
    _asyncCv.wait(a, [&] {
        return _hardenedEpoch >= epoch || _asyncAbandoned;
    });
    return _hardenedEpoch >= epoch
               ? Status::ok()
               : Status::busy("shutdown before the epoch hardened");
}

std::uint64_t
Database::asyncAcksPending() const
{
    if (_mwActive) {
        // One epoch == one acked transaction in multi-writer mode.
        std::lock_guard<std::mutex> mw(_mwMutex);
        return _mwPublished - _mwHardened;
    }
    std::lock_guard<std::mutex> a(_asyncMutex);
    return _asyncAcksPending;
}

std::uint64_t
Database::hardenedEpoch() const
{
    if (_mwActive) {
        std::lock_guard<std::mutex> mw(_mwMutex);
        return _mwHardened;
    }
    std::lock_guard<std::mutex> a(_asyncMutex);
    return _hardenedEpoch;
}

std::uint64_t
Database::lastCommitEpoch() const
{
    return _rootConn->lastCommitEpoch();
}

// ---- background durability thread -----------------------------------

void
Database::durabilityMain()
{
    std::unique_lock<std::mutex> l(_durMutex);
    for (;;) {
        // Periodic drain: the 500us timeout retires epochs that age
        // past the staleness window even when no commit kicks.
        _durCv.wait_for(l, std::chrono::microseconds(500),
                        [&] { return _durStop || _durKick; });
        if (_durStop)
            return;
        _durKick = false;
        l.unlock();

        bool pending;
        {
            std::lock_guard<std::mutex> a(_asyncMutex);
            pending = !_asyncEpochs.empty();
        }
        if (pending) {
            std::lock_guard<std::recursive_mutex> eng(_engineMutex);
            if (_poisoned.isOk())
                (void)hardenPendingAsync(FrHardenReason::Background);
        }
        l.lock();
    }
}

void
Database::kickDurability()
{
    std::lock_guard<std::mutex> g(_durMutex);
    _durKick = true;
    _durCv.notify_all();
}

void
Database::stopDurability()
{
    {
        std::lock_guard<std::mutex> g(_durMutex);
        _durStop = true;
        _durCv.notify_all();
    }
    if (_durabilityThread.joinable())
        _durabilityThread.join();
    // Whatever is still pending will never harden through this
    // handle; wake waiters so they observe the abandonment.
    std::lock_guard<std::mutex> a(_asyncMutex);
    _asyncAbandoned = true;
    _asyncCv.notify_all();
}

// ---- multi-writer engine (DESIGN.md §13) ----------------------------

Status
Database::mwActivate(const StatsSnapshot &stats_before)
{
    // Quiesce the primary log into the .db file: the cross-log merge
    // below needs a fully checkpointed base image to apply diffs on.
    NVWAL_RETURN_IF_ERROR(checkpoint());

    // Attach or create the persistent anchor.
    MwMeta meta;
    const std::string meta_ns =
        mwMetaNamespaceFor(_config.nvwal.heapNamespace);
    Status root_status = _env.heap.getRoot(meta_ns, &_mwMetaOff);
    if (root_status.isNotFound()) {
        NVWAL_RETURN_IF_ERROR(
            _env.heap.nvMalloc(MwMeta::kSize, &_mwMetaOff));
        meta.writerLogs = _config.writerLogs;
        meta.epochBase = 0;
        meta.generation = 0;
        meta.dbSizePages = _dbFile->pageCount();
        mwMetaStore(_env.pmem, _mwMetaOff, meta);
        NVWAL_RETURN_IF_ERROR(_env.heap.setRoot(meta_ns, _mwMetaOff));
    } else {
        NVWAL_RETURN_IF_ERROR(root_status);
        NVWAL_RETURN_IF_ERROR(mwMetaLoad(_env.pmem, _mwMetaOff, &meta));
        if (meta.writerLogs != _config.writerLogs)
            return Status::invalidArgument(
                "writerLogs does not match the on-media layout: "
                "configured " + std::to_string(_config.writerLogs) +
                ", anchored " + std::to_string(meta.writerLogs));
    }

    // Create and recover the per-connection logs, collecting every
    // epoch-stamped transaction above the anchored base.
    struct MergeTxn
    {
        const NvwalLog::RecoveredEpochTxn *txn;
        std::uint32_t slot;
    };
    std::vector<MergeTxn> survivors;
    _mwSlots.clear();
    for (std::uint32_t i = 0; i < _config.writerLogs; ++i) {
        auto slot = std::make_unique<MwSlot>();
        NvwalConfig log_config = _config.nvwal;
        log_config.heapNamespace =
            mwLogNamespaceFor(_config.nvwal.heapNamespace, i);
        log_config.epochMarks = true;
        slot->log = std::make_unique<NvwalLog>(
            _env.heap, _env.pmem, *_dbFile, _config.pageSize,
            resolveReserved(_config), log_config, _env.stats);
        std::uint32_t unused = 0;
        NVWAL_RETURN_IF_ERROR(slot->log->recover(&unused));
        for (const NvwalLog::RecoveredEpochTxn &txn :
             slot->log->recoveredEpochTxns())
            if (txn.epoch > meta.epochBase)
                survivors.push_back(MergeTxn{&txn, i});
        _mwSlots.push_back(std::move(slot));
    }
    std::sort(survivors.begin(), survivors.end(),
              [](const MergeTxn &a, const MergeTxn &b) {
                  return a.txn->epoch < b.txn->epoch;
              });

    // Merge the contiguous epoch prefix above the base: each log is
    // prefix-consistent on its own, so the first missing epoch
    // (un-published claim, torn tail) strands everything after it.
    const std::uint32_t file_pages = _dbFile->pageCount();
    std::uint64_t merged_epoch = meta.epochBase;
    std::uint64_t kept = 0;
    std::uint32_t db_size =
        std::max(meta.dbSizePages, file_pages);
    std::map<PageNo, ByteBuffer> images;
    for (const MergeTxn &m : survivors) {
        if (m.txn->epoch != merged_epoch + 1)
            break;
        for (const NvwalLog::RecoveredFrame &f : m.txn->frames) {
            auto it = images.find(f.pageNo);
            if (it == images.end()) {
                ByteBuffer buf(_config.pageSize, 0);
                if (f.pageNo <= file_pages)
                    NVWAL_RETURN_IF_ERROR(_dbFile->readPage(
                        f.pageNo, ByteSpan(buf.data(), buf.size())));
                it = images.emplace(f.pageNo, std::move(buf)).first;
            }
            _mwSlots[m.slot]->log->readPayload(
                f.payloadOff,
                ByteSpan(it->second.data() + f.pageOffset, f.size));
        }
        merged_epoch = m.txn->epoch;
        if (m.txn->dbSizePages > db_size)
            db_size = m.txn->dbSizePages;
        ++kept;
    }
    const std::uint64_t dropped = survivors.size() - kept;
    _env.stats.add(stats::kWalEpochMergeTxns, kept);
    _env.stats.add(stats::kWalEpochMergeGapDiscarded, dropped);

    // Write the merged images back (zero-filling pages an aborted
    // transaction's cursor bump left unreferenced), sync the file,
    // and only then advance the anchor: a crash replays the same
    // merge idempotently (absolute-offset diffs in epoch order).
    if (kept != 0 || db_size > file_pages) {
        for (std::uint32_t no = file_pages + 1; no <= db_size; ++no)
            if (images.find(no) == images.end())
                images.emplace(no, ByteBuffer(_config.pageSize, 0));
        for (const auto &[no, buf] : images)
            NVWAL_RETURN_IF_ERROR(_dbFile->writePage(
                no, ConstByteSpan(buf.data(), buf.size())));
        NVWAL_RETURN_IF_ERROR(_dbFile->sync());
    }
    meta.epochBase = merged_epoch;
    meta.generation += 1;
    meta.dbSizePages = db_size;
    mwMetaStore(_env.pmem, _mwMetaOff, meta);
    _mwGeneration = meta.generation;

    // The anchor covers every merged epoch; drop the logs.
    for (std::uint32_t i = 0; i < _mwSlots.size(); ++i) {
        NvwalLog *log = _mwSlots[i]->log.get();
        if (log->nodeCount() != 0) {
            NVWAL_RETURN_IF_ERROR(log->truncateAll());
            frRecord(FrRecordType::MwTruncation, kFrFlagDurableClaim,
                     static_cast<std::uint16_t>(i),
                     static_cast<std::uint32_t>(_mwGeneration),
                     merged_epoch, log->checkpointId());
        } else {
            log->clearRecoveredEpochTxns();
        }
    }

    // Resynchronize the single-writer structures with the merged file
    // (the catalog read below must see the merged pages).
    if (db_size != 0)
        _pager->setPageCount(db_size);
    _pager->dropCleanPages();
    _tables.clear();
    bool found = false;
    RowId id;
    NVWAL_RETURN_IF_ERROR(
        findCatalogEntry(kDefaultTable, &id, &_mwDefaultRoot, &found));
    if (!found)
        return Status::corruption(
            "default table missing after the epoch merge");

    // Volatile engine state.
    _mwEpoch = merged_epoch;
    _mwPublished = merged_epoch;
    _mwHardened = merged_epoch;
    _mwEpochBase = merged_epoch;
    _mwDbSize = db_size;
    _mwDbSizeByEpoch.clear();
    _mwOverlay = PageVersionMap();
    _mwPageEpochs.clear();
    _mwPending.clear();
    _mwPins.clear();
    _mwActiveBegins.clear();
    _mwPoisoned = Status::ok();
    _mwTxnSeq = 0;
    _mwPageCursor.store(db_size, std::memory_order_relaxed);
    _mwPageWritesSinceCkpt.store(0, std::memory_order_relaxed);

    // Rebuild the forensics report with the merge facts: the deltas
    // recomputed here include the per-connection logs' recovery work.
    if (_flightRecorder && _flightRecorder->ready()) {
        const auto delta = [&](const char *name) {
            const auto it = stats_before.find(name);
            const std::uint64_t before =
                it == stats_before.end() ? 0 : it->second;
            return _env.stats.get(name) - before;
        };
        _frWalState.tornFramesDetected =
            delta(stats::kWalTornFramesDetected);
        _frWalState.framesDiscarded =
            delta(stats::kWalRecoveryFramesDiscarded);
        _frWalState.lostMarks = delta(stats::kWalRecoveryLostMarks);
        _frWalState.mwEnabled = true;
        _frWalState.mwGeneration = _mwGeneration;
        _frWalState.mwMergedEpoch = merged_epoch;
        _recoveryReport =
            buildRecoveryReport(_frParsedRecording, _frWalState);
        _recoveryReport.recorderEnabled = true;
        _recoveryReport.heapNamespace = _flightRecorder->heapNamespace();
        _recoveryReport.shard = _config.frShard;
    }

    _mwActive = true;
    return Status::ok();
}

Status
Database::mwFetchPage(PageNo page_no, std::uint64_t floor, ByteSpan out,
                      std::uint64_t *read_epoch)
{
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        std::uint64_t version_epoch = 0;
        const ByteBuffer *image =
            _mwOverlay.readAt(page_no, floor, &version_epoch);
        if (image != nullptr) {
            NVWAL_ASSERT(image->size() == out.size());
            std::copy(image->begin(), image->end(), out.data());
            if (read_epoch != nullptr)
                *read_epoch = version_epoch;
            return Status::ok();
        }
    }
    // No overlay version at or below the floor: the base image is
    // current for it. A checkpoint prunes an overlay entry only after
    // the covering file write synced, so checking the overlay first
    // makes the fallback race-free.
    if (read_epoch != nullptr)
        *read_epoch = floor;
    std::lock_guard<std::mutex> file(_mwFileMutex);
    if (page_no <= _dbFile->pageCount())
        return _dbFile->readPage(page_no, out);
    return Status::corruption(
        "page " + std::to_string(page_no) +
        " missing from the overlay and the file");
}

std::uint64_t
Database::mwBeginTxn(std::uint64_t min_floor, std::uint32_t *db_size,
                     std::uint64_t *txn_seq)
{
    std::unique_lock<std::mutex> mw(_mwMutex);
    // Read-your-writes: the caller's last commit claimed its epoch
    // before returning, but the contiguous published floor may still
    // trail it while an earlier epoch on another slot finishes its
    // append. Wait for the floor (appends only -- never hardening)
    // rather than beginning above it, which would tear the snapshot
    // prefix and mask conflicts with the in-flight epochs.
    if (min_floor > _mwEpoch)
        min_floor = _mwEpoch;
    _mwCv.wait(mw, [&] {
        return _mwPublished >= min_floor || !_mwPoisoned.isOk();
    });
    const std::uint64_t floor = _mwPublished;
    _mwActiveBegins.insert(floor);
    *db_size = _mwDbSize;
    *txn_seq = ++_mwTxnSeq;
    frRecord(FrRecordType::TxnBegin, 0, 0, 0, *txn_seq);
    return floor;
}

void
Database::mwEndTxnLocked(std::uint64_t begin_floor)
{
    const auto it = _mwActiveBegins.find(begin_floor);
    NVWAL_ASSERT(it != _mwActiveBegins.end(),
                 "closing a write txn that never began");
    _mwActiveBegins.erase(it);
}

void
Database::mwEndTxn(std::uint64_t begin_floor)
{
    std::lock_guard<std::mutex> mw(_mwMutex);
    mwEndTxnLocked(begin_floor);
}

Status
Database::mwCommitWorkspace(std::uint32_t slot_no, MwWorkspace &ws,
                            const CommitOptions &opts,
                            std::uint64_t txn_seq,
                            std::uint64_t *epoch_out)
{
    *epoch_out = 0;
    const SimTime commit_begin = _env.clock.now();
    _env.clock.advance(_env.cost.cpuTxnNs);
    const std::vector<PageNo> dirty = ws.dirtyPageNos();

    if (dirty.empty()) {
        // Read-only or no-op transaction: nothing to validate (its
        // reads were served from a consistent floor) and nothing to
        // publish; it claims no epoch.
        std::lock_guard<std::mutex> mw(_mwMutex);
        mwEndTxnLocked(ws.beginEpoch());
        NVWAL_RETURN_IF_ERROR(_mwPoisoned);
        _env.stats.add(stats::kTxnsCommitted);
        return Status::ok();
    }

    MwSlot &slot = *_mwSlots[slot_no];
    std::unique_lock<std::mutex> slot_lock(slot.mutex);
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        if (!_mwPoisoned.isOk()) {
            mwEndTxnLocked(ws.beginEpoch());
            return _mwPoisoned;
        }
        // Optimistic validation: conflict iff any read page was
        // republished after the version this transaction read. Pages
        // absent from _mwPageEpochs pass by design -- the map is
        // pruned with the overlay, and the prune floor never passes
        // an active begin floor.
        for (const auto &[page_no, read_epoch] : ws.readSet()) {
            const auto it = _mwPageEpochs.find(page_no);
            if (it != _mwPageEpochs.end() && it->second > read_epoch) {
                _env.stats.add(stats::kWalLogConflicts);
                mwEndTxnLocked(ws.beginEpoch());
                *epoch_out = it->second;
                return Status::conflict(
                    "page " + std::to_string(page_no) +
                    " republished at epoch " +
                    std::to_string(it->second));
            }
        }
        if (_mwEpoch >= 0x7fffffffULL) {
            mwEndTxnLocked(ws.beginEpoch());
            return Status::unsupported(
                "epoch counter exhausted; reopen the database");
        }
        // Claim the epoch and pre-publish the write set's epochs so a
        // concurrent validator conflicts against this commit before
        // its append even lands (claimed under the slot lock, so this
        // slot's log receives epochs in ascending order).
        epoch = ++_mwEpoch;
        for (PageNo page_no : dirty)
            _mwPageEpochs[page_no] = epoch;
        _mwPending.push_back(
            MwPending{epoch, slot_no, ws.dbSizePages(), false});
    }

    // Append to this slot's log and queue the flush -- lock-free of
    // every other slot. No barrier here: hardening is grouped.
    TxnFrames txn;
    txn.dbSizePages = ws.dbSizePages();
    txn.frames.reserve(dirty.size());
    for (PageNo page_no : dirty) {
        CachedPage *page = ws.cached(page_no);
        NVWAL_ASSERT(page != nullptr, "dirty page not in workspace");
        txn.frames.push_back(FrameWrite{
            page_no, ConstByteSpan(page->buf.data(), page->buf.size()),
            &page->dirty, page->noteDirtyRatio()});
    }
    const Status append = slot.log->writeTxnEpoch(txn, epoch);
    if (append.isOk()) {
        slot.log->flushRuns();
        slot.lastAppendedEpoch = epoch;
    }
    slot_lock.unlock();

    std::uint64_t published_floor = 0;
    bool window_harden = false;
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        if (!append.isOk()) {
            // The epoch was claimed: a permanent gap that would
            // strand every later epoch at recovery. Poison.
            _mwPoisoned = append;
            mwEndTxnLocked(ws.beginEpoch());
            _mwCv.notify_all();
            return append;
        }
        // Publish the full page images; readers at floors >= epoch
        // (once the contiguous floor reaches it) see them.
        for (PageNo page_no : dirty) {
            CachedPage *page = ws.cached(page_no);
            _mwOverlay.publish(
                page_no, epoch,
                ConstByteSpan(page->buf.data(), page->buf.size()));
        }
        for (MwPending &pending : _mwPending)
            if (pending.epoch == epoch) {
                pending.appended = true;
                break;
            }
        while (!_mwPending.empty() && _mwPending.front().appended) {
            const MwPending &front = _mwPending.front();
            _mwPublished = front.epoch;
            if (front.dbSizePages > _mwDbSize)
                _mwDbSize = front.dbSizePages;
            _mwDbSizeByEpoch[front.epoch] = _mwDbSize;
            _mwPending.pop_front();
        }
        published_floor = _mwPublished;
        mwEndTxnLocked(ws.beginEpoch());
        _env.stats.add(stats::kTxnsCommitted);
        if (opts.durability == Durability::Async)
            _env.stats.add(stats::kDbAsyncCommits);
        // Unstamped ack: durability arrives with the group harden.
        frRecord(FrRecordType::CommitAck, 0,
                   static_cast<std::uint16_t>(slot_no),
                   static_cast<std::uint32_t>(_mwGeneration), txn_seq,
                   epoch);
        _mwCv.notify_all();
        window_harden =
            published_floor - _mwHardened > _config.asyncMaxEpochs;
    }
    _mwPageWritesSinceCkpt.fetch_add(dirty.size(),
                                     std::memory_order_relaxed);

    Status harden = Status::ok();
    const bool wait_for_harden =
        opts.durability != Durability::Async || opts.waitForHarden;
    if (wait_for_harden)
        harden = mwHardenUpTo(epoch, FrHardenReason::StrictRun);
    else if (window_harden)
        harden = mwHardenUpTo(published_floor,
                              FrHardenReason::WindowEpochs);
    *epoch_out = epoch;
    _env.stats.recordNs(stats::kHistCommitNs,
                        _env.clock.now() - commit_begin);
    NVWAL_RETURN_IF_ERROR(harden);
    mwMaybeCheckpoint();
    return Status::ok();
}

Status
Database::mwHardenUpTo(std::uint64_t target, FrHardenReason reason)
{
    std::lock_guard<std::mutex> h(_mwHardenMutex);
    std::uint64_t floor = 0;
    {
        std::unique_lock<std::mutex> mw(_mwMutex);
        if (target > _mwEpoch)
            target = _mwEpoch;
        if (_mwHardened >= target)
            return Status::ok();
        _mwCv.wait(mw, [&] {
            return _mwPublished >= target || !_mwPoisoned.isOk();
        });
        NVWAL_RETURN_IF_ERROR(_mwPoisoned);
        floor = _mwPublished;
    }
    // Sample each log's flush candidate under its slot lock: every
    // epoch <= floor queued its lines (inline flushRuns) before it
    // published, so the one barrier below covers all of them.
    std::vector<CommitSeq> candidates(_mwSlots.size(), 0);
    for (std::size_t i = 0; i < _mwSlots.size(); ++i) {
        MwSlot &slot = *_mwSlots[i];
        std::uint64_t newest = 0;
        {
            std::lock_guard<std::mutex> sl(slot.mutex);
            candidates[i] = slot.log->flushCandidateSeq();
            newest = slot.lastAppendedEpoch;
        }
        std::lock_guard<std::mutex> mw(_mwMutex);
        frRecord(FrRecordType::MwLogHarden, 0,
                   static_cast<std::uint16_t>(i),
                   static_cast<std::uint32_t>(_mwGeneration), newest,
                   candidates[i]);
    }
    _env.pmem.persistBarrier();
    for (std::size_t i = 0; i < _mwSlots.size(); ++i) {
        std::lock_guard<std::mutex> sl(_mwSlots[i]->mutex);
        _mwSlots[i]->log->finishHarden(candidates[i]);
    }
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        if (floor > _mwHardened)
            _mwHardened = floor;
        _env.stats.add(stats::kWalMwHardens);
        frRecord(FrRecordType::MwHarden, kFrFlagDurableClaim,
                   static_cast<std::uint16_t>(reason),
                   static_cast<std::uint32_t>(_mwGeneration), floor,
                   _mwHardened);
        _mwCv.notify_all();
    }
    return Status::ok();
}

Status
Database::mwCheckpoint()
{
    std::lock_guard<std::mutex> ck(_mwCkptMutex);
    return mwCheckpointLocked();
}

void
Database::mwMaybeCheckpoint()
{
    if (!_config.autoCheckpoint)
        return;
    if (_mwPageWritesSinceCkpt.load(std::memory_order_relaxed) <
        _config.checkpointThreshold)
        return;
    std::unique_lock<std::mutex> ck(_mwCkptMutex, std::try_to_lock);
    if (!ck.owns_lock())
        return;  // another round is already draining
    if (!mwCheckpointLocked().isOk()) {
        _env.stats.add(stats::kAutoCheckpointFailures);
        _env.stats.tracer().instant("db.auto_checkpoint_failed", "db");
    }
}

Status
Database::mwCheckpointLocked()
{
    TraceSpan span(_env.stats.tracer(), "wal.checkpoint", "wal");
    // Every epoch written to the file must be durable in some log
    // first (no file state ahead of the logs), so harden the current
    // published floor before any write-back.
    std::uint64_t floor = 0;
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        NVWAL_RETURN_IF_ERROR(_mwPoisoned);
        floor = _mwPublished;
    }
    NVWAL_RETURN_IF_ERROR(
        mwHardenUpTo(floor, FrHardenReason::Checkpoint));

    // Clamp the write-back target: the base image must not advance
    // past a reader pin or an active transaction's begin floor (their
    // overlay versions -- including "absent = base" -- must survive).
    std::uint64_t target = 0;
    std::uint32_t db_size_at_target = 0;
    std::map<PageNo, ByteBuffer> pages;
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        target = _mwHardened;
        if (!_mwPins.empty())
            target = std::min(target, *_mwPins.begin());
        if (!_mwActiveBegins.empty())
            target = std::min(target, *_mwActiveBegins.begin());
        if (target < _mwHardened)
            _env.stats.add(stats::kCheckpointsPinBlocked);
        if (target <= _mwEpochBase)
            return Status::ok();
        for (const auto &[page_no, image] :
             _mwOverlay.collectUpTo(target))
            pages.emplace(page_no, *image);
        const auto it = _mwDbSizeByEpoch.upper_bound(target);
        NVWAL_ASSERT(it != _mwDbSizeByEpoch.begin(),
                     "published epochs above the base have size marks");
        db_size_at_target = std::prev(it)->second;
        frRecord(FrRecordType::CheckpointStart, 0, 1,
                   static_cast<std::uint32_t>(_mwGeneration), target);
    }

    // File first, then anchor, then volatile prune, then truncation:
    // a crash at any point recovers (the logs still hold everything
    // above the persisted anchor).
    {
        std::lock_guard<std::mutex> file(_mwFileMutex);
        const std::uint32_t file_pages = _dbFile->pageCount();
        for (std::uint32_t no = file_pages + 1; no <= db_size_at_target;
             ++no)
            if (pages.find(no) == pages.end())
                pages.emplace(no, ByteBuffer(_config.pageSize, 0));
        for (const auto &[no, buf] : pages)
            NVWAL_RETURN_IF_ERROR(_dbFile->writePage(
                no, ConstByteSpan(buf.data(), buf.size())));
        NVWAL_RETURN_IF_ERROR(_dbFile->sync());
    }
    MwMeta meta;
    meta.writerLogs = _config.writerLogs;
    meta.epochBase = target;
    meta.generation = _mwGeneration;
    meta.dbSizePages = db_size_at_target;
    mwMetaStore(_env.pmem, _mwMetaOff, meta);
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        _mwEpochBase = target;
        _mwOverlay.pruneTo(target);
        for (auto it = _mwPageEpochs.begin();
             it != _mwPageEpochs.end();) {
            if (it->second <= target)
                it = _mwPageEpochs.erase(it);
            else
                ++it;
        }
        // Keep the newest size mark at or below the base (the next
        // round's clamp may land on it), drop the rest.
        auto keep = _mwDbSizeByEpoch.upper_bound(target);
        if (keep != _mwDbSizeByEpoch.begin())
            _mwDbSizeByEpoch.erase(_mwDbSizeByEpoch.begin(),
                                   std::prev(keep));
    }

    // Truncate every log whose epochs are all covered by the anchor.
    for (std::size_t i = 0; i < _mwSlots.size(); ++i) {
        MwSlot &slot = *_mwSlots[i];
        std::lock_guard<std::mutex> sl(slot.mutex);
        if (slot.lastAppendedEpoch <= target &&
            slot.log->nodeCount() != 0) {
            NVWAL_RETURN_IF_ERROR(slot.log->truncateAll());
            std::lock_guard<std::mutex> mw(_mwMutex);
            frRecord(FrRecordType::MwTruncation, kFrFlagDurableClaim,
                       static_cast<std::uint16_t>(i),
                       static_cast<std::uint32_t>(_mwGeneration),
                       target, slot.log->checkpointId());
        }
    }
    // The trigger counts page writes, as the commit path adds them;
    // the recorder keeps logging frames on media.
    std::uint64_t remaining_writes = 0;
    std::uint64_t remaining_frames = 0;
    for (const auto &slot : _mwSlots) {
        std::lock_guard<std::mutex> sl(slot->mutex);
        remaining_writes += slot->log->pageWritesSinceCheckpoint();
        remaining_frames += slot->log->framesSinceCheckpoint();
    }
    _mwPageWritesSinceCkpt.store(remaining_writes,
                                 std::memory_order_relaxed);
    _env.stats.add(stats::kCheckpoints);
    {
        std::lock_guard<std::mutex> mw(_mwMutex);
        frRecord(FrRecordType::CheckpointEnd, 0, 1,
                   static_cast<std::uint32_t>(_mwGeneration), target,
                   remaining_frames);
    }
    return Status::ok();
}

std::uint64_t
Database::mwPinRead(std::uint32_t *db_size, std::uint64_t min_floor)
{
    std::unique_lock<std::mutex> mw(_mwMutex);
    if (min_floor > _mwEpoch)
        min_floor = _mwEpoch;
    _mwCv.wait(mw, [&] {
        return _mwPublished >= min_floor || !_mwPoisoned.isOk();
    });
    _mwPins.insert(_mwPublished);
    *db_size = _mwDbSize;
    _env.stats.setGauge(stats::kGaugeOpenSnapshots, _mwPins.size());
    return _mwPublished;
}

void
Database::mwUnpinRead(std::uint64_t floor)
{
    std::lock_guard<std::mutex> mw(_mwMutex);
    const auto it = _mwPins.find(floor);
    NVWAL_ASSERT(it != _mwPins.end(), "unpin without pin");
    _mwPins.erase(it);
    _env.stats.setGauge(stats::kGaugeOpenSnapshots, _mwPins.size());
}

std::uint64_t
Database::mwPublishedEpoch() const
{
    std::lock_guard<std::mutex> mw(_mwMutex);
    return _mwPublished;
}

std::uint64_t
Database::mwHardenedEpoch() const
{
    std::lock_guard<std::mutex> mw(_mwMutex);
    return _mwHardened;
}

std::uint64_t
Database::mwReachableNvramBlocks() const
{
    if (!_mwActive)
        return 0;
    std::uint64_t blocks = _env.heap.extentBlocksAt(_mwMetaOff);
    for (const auto &slot : _mwSlots) {
        std::lock_guard<std::mutex> sl(slot->mutex);
        blocks += slot->log->reachableNvramBlocks();
    }
    return blocks;
}

// ---- background checkpointer ---------------------------------------

void
Database::checkpointerMain()
{
    std::unique_lock<std::mutex> l(_ckptMutex);
    for (;;) {
        _ckptCv.wait(l, [&] { return _ckptStop || _ckptKick; });
        if (_ckptStop)
            return;
        _ckptKick = false;
        l.unlock();

        // Drain: one bounded round per engine-lock acquisition, so
        // foreground commits interleave instead of stalling behind a
        // monolithic checkpoint. done=true also covers the
        // pin-blocked case (round complete, truncation deferred);
        // the next commit kicks again.
        bool done = false;
        while (!done) {
            {
                std::lock_guard<std::recursive_mutex> eng(_engineMutex);
                if (_inTxn || _wal->framesSinceCheckpoint() == 0)
                    break;
                const Status s =
                    checkpointRound(_config.checkpointStepPages, &done);
                _env.stats.add(stats::kCheckpointerSteps);
                if (!s.isOk())
                    break;
            }
            std::lock_guard<std::mutex> g(_ckptMutex);
            if (_ckptStop)
                return;
        }
        l.lock();
    }
}

void
Database::kickCheckpointer()
{
    std::lock_guard<std::mutex> g(_ckptMutex);
    _ckptKick = true;
    _ckptCv.notify_all();
}

void
Database::stopCheckpointer()
{
    {
        std::lock_guard<std::mutex> g(_ckptMutex);
        _ckptStop = true;
        _ckptCv.notify_all();
    }
    if (_checkpointer.joinable())
        _checkpointer.join();
}

Status
Database::vacuum()
{
    if (_mwActive)
        return Status::unsupported(
            "vacuum is single-writer only: reopen without multiWriter "
            "to compact");
    std::lock_guard<std::recursive_mutex> eng(_engineMutex);
    if (_inTxn)
        return Status::busy("cannot vacuum inside a transaction");
    if (_wal->hasPins())
        return Status::busy("open snapshots pin the log");
    if (_config.shardMember)
        return Status::unsupported(
            "vacuum on a shard member: the reopen would re-recover the "
            "shared NVRAM heap under the other shards");
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
    return withCatalogPages([&](PageSource &pages) -> Status {
        BTree catalog(pages, _pager->rootPage());
        NVWAL_RETURN_IF_ERROR(catalog.validate());
        std::vector<PageNo> roots;
        NVWAL_RETURN_IF_ERROR(scanCatalog(
            catalog, [&](RowId, PageNo root, const std::string &) {
                roots.push_back(root);
                return true;
            }));
        for (PageNo root : roots) {
            BTree tree(pages, root);
            NVWAL_RETURN_IF_ERROR(tree.validate());
        }
        return Status::ok();
    });
}

} // namespace nvwal
