#include "nvwal_log.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace nvwal
{

std::string
NvwalConfig::schemeName() const
{
    std::string name;
    if (userHeap)
        name += "UH+";
    switch (syncMode) {
      case SyncMode::Eager:
        name += "E";
        break;
      case SyncMode::Lazy:
        name += "LS";
        break;
      case SyncMode::ChecksumAsync:
        name += "CS";
        break;
    }
    if (diffLogging)
        name += "+Diff";
    return name;
}

NvwalLog::NvwalLog(NvHeap &heap, Pmem &pmem, DbFile &db_file,
                   std::uint32_t page_size, std::uint32_t reserved_bytes,
                   NvwalConfig config, MetricsRegistry &stats)
    : _heap(heap), _pmem(pmem), _dbFile(db_file), _pageSize(page_size),
      _reservedBytes(reserved_bytes), _config(config), _stats(stats),
      _logWriteHist(stats.histogram(stats::kHistLogWriteNs)),
      _commitMarkHist(stats.histogram(stats::kHistCommitMarkNs)),
      _checkpointHist(stats.histogram(stats::kHistCheckpointNs)),
      _recoverHist(stats.histogram(stats::kHistRecoverNs)),
      _name("NVWAL " + config.schemeName()),
      _chainSeed(chainSeed(config.heapNamespace)), _chain(_chainSeed)
{
    NVWAL_ASSERT(page_size <= 0xffff,
                 "frame headers store 16-bit sizes/offsets");
}

std::uint64_t
NvwalLog::chainSeed(const std::string &heap_namespace)
{
    return fnv1a64(ConstByteSpan(
        reinterpret_cast<const std::uint8_t *>(heap_namespace.data()),
        heap_namespace.size()));
}

void
NvwalLog::resetSinceCheckpoint()
{
    _chain = CumulativeChecksum(_chainSeed);
    _framesSinceCheckpoint = 0;
    _pageWritesSinceCheckpoint = 0;
    _nodesSinceCheckpoint = 0;
}

std::uint64_t
NvwalLog::countPageWrites(std::vector<FrameRef>::const_iterator begin,
                          std::vector<FrameRef>::const_iterator end)
{
    std::uint64_t writes = 0;
    for (auto it = begin; it != end; ++it)
        if (it == begin || it->pageNo != std::prev(it)->pageNo)
            ++writes;
    return writes;
}

void
NvwalLog::noteCommitted(std::vector<FrameRef>::const_iterator begin,
                        std::vector<FrameRef>::const_iterator end)
{
    _framesSinceCheckpoint += static_cast<std::uint64_t>(end - begin);
    _pageWritesSinceCheckpoint += countPageWrites(begin, end);
}

void
NvwalLog::persistU64(NvOffset off, std::uint64_t value)
{
    _pmem.storeU64(off, value);
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(off, off + 8);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
}

Status
NvwalLog::initHeader()
{
    // The header allocation follows the same tri-state protocol as
    // log nodes (Algorithm 1): allocate pending, publish the link
    // (here: the namespace root), then mark in-use. A crash before
    // the root lands leaves a pending block the heap reclaims; a
    // crash before nvSetUsedFlag() leaves the root dangling at a
    // reclaimed block, which recover() detects and re-initializes.
    // The previous nvMalloc() version leaked the header block forever
    // when a crash hit between allocation and root publication.
    NVWAL_RETURN_IF_ERROR(_heap.nvPreMalloc(64, &_headerOff));
    std::uint8_t header[32];
    std::memset(header, 0, sizeof(header));
    storeU64(header, kMagic);
    storeU32(header + 8, _pageSize);
    storeU32(header + 12, _reservedBytes);
    storeU64(header + 16, 0);                 // checkpoint id
    storeU64(header + 24, kNullNvOffset);     // first node
    _pmem.memcpyToNvram(_headerOff, ConstByteSpan(header, sizeof(header)));
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(_headerOff, _headerOff + sizeof(header));
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    // Publishing the root is the atomic "this log exists" step.
    NVWAL_RETURN_IF_ERROR(_heap.setRoot(_config.heapNamespace, _headerOff));
    return _heap.nvSetUsedFlag(_headerOff);
}

Status
NvwalLog::loadHeader()
{
    NvramDevice &dev = _pmem.device();
    if (dev.readU64(_headerOff) != kMagic)
        return Status::corruption("NVWAL header magic mismatch");
    std::uint8_t geo[8];
    dev.read(_headerOff + 8, ByteSpan(geo, sizeof(geo)));
    if (loadU32(geo) != _pageSize || loadU32(geo + 4) != _reservedBytes)
        return Status::invalidArgument("NVWAL page geometry mismatch");
    _checkpointId = dev.readU64(checkpointIdFieldOff());
    return Status::ok();
}

Status
NvwalLog::appendNode(std::uint32_t min_payload)
{
    std::size_t bytes = kNodeHeaderSize + min_payload;
    NvOffset node;
    if (_config.userHeap) {
        // Pre-allocate a large block to amortize the heap-manager
        // calls over multiple frames (the paper's 8 KB blocks hold
        // two full-page WAL frames, section 5.3), so never size it
        // below two of the requesting frame.
        bytes = std::max<std::size_t>(
            {bytes, _config.nvBlockSize,
             kNodeHeaderSize + 2ull * min_payload});
    }
    // Both modes follow Algorithm 1 lines 5-13: allocate pending,
    // link, then mark in-use. An eagerly in-use but unlinked block
    // would be unreachable (and unreclaimable) after a crash between
    // allocation and linking. The baseline still pays the manager
    // calls per frame instead of per block.
    NVWAL_RETURN_IF_ERROR(_heap.nvPreMalloc(bytes, &node));
    // The usable capacity: the whole block for the user-level heap
    // (frames bump-allocate inside it), but only the requested bytes
    // for the per-frame baseline -- it must pay another allocation
    // for the next frame even though the heap rounded the extent up.
    const std::uint32_t capacity =
        _config.userHeap
            ? _heap.extentBlocksAt(node) * _heap.blockSize()
            : static_cast<std::uint32_t>(bytes);

    // Terminate the new node before anything can reach it, then
    // publish the link (dmb; flush; dmb; persist -- lines 8-11).
    persistU64(node, kNullNvOffset);
    persistU64(_linkFieldOff, node);

    NVWAL_RETURN_IF_ERROR(_heap.nvSetUsedFlag(node));

    _tailNode = node;
    _tailUsed = kNodeHeaderSize;
    _tailCapacity = capacity;
    _linkFieldOff = node;  // next node links at this node's next field
    _nodesSinceCheckpoint++;
    return Status::ok();
}

Status
NvwalLog::placeFrame(PageNo page_no, std::uint16_t page_offset,
                     ConstByteSpan payload, NvOffset *frame_off)
{
    NVWAL_ASSERT(!payload.empty() && payload.size() <= _pageSize);
    const std::uint32_t total =
        kFrameHeaderSize + static_cast<std::uint32_t>(payload.size());
    if (_tailNode == kNullNvOffset || _tailUsed + total > _tailCapacity) {
        // Heap-manager path: the frame forces a new node allocation
        // (per frame for the LS baseline, per block for the
        // user-level heap).
        TraceSpan span(_stats.tracer(), "wal.append_node", "wal",
                       "bytes", total);
        NVWAL_RETURN_IF_ERROR(appendNode(total));
        _stats.add(stats::kWalNodeAllocs);
    } else {
        // User-level bump-allocation inside the tail node: no heap
        // manager involved (the paper's amortization win, §3.3).
        _stats.add(stats::kWalBumpAllocs);
    }

    const NvOffset off = _tailNode + _tailUsed;
    _stats.tracer().instant("wal.frame_append", "wal", "page",
                            page_no);

    std::uint8_t header[kFrameHeaderSize];
    storeU32(header, page_no);
    storeU16(header + 4, page_offset);
    storeU16(header + 6, static_cast<std::uint16_t>(payload.size()));
    storeU64(header + 8, 0);  // commit word, set later
    storeU64(header + 16, _checkpointId);
    _chain.update(ConstByteSpan(header, 8));
    _chain.update(ConstByteSpan(header + 16, 8));
    _chain.update(payload);
    storeU64(header + 24, _chain.value());

    _pmem.memcpyToNvram(off, ConstByteSpan(header, kFrameHeaderSize));
    _pmem.memcpyToNvram(off + kFrameHeaderSize, payload);

    _tailUsed = static_cast<std::uint32_t>(
        alignUp(_tailUsed + total, 8));
    _stats.add(stats::kNvramFramesWritten);
    _stats.add(stats::kNvramBytesLogged, total);
    *frame_off = off;
    return Status::ok();
}

Status
NvwalLog::reserveContiguous(std::uint32_t bytes)
{
    if (!_config.userHeap)
        return Status::ok();  // the LS baseline allocates per frame
    if (_tailNode != kNullNvOffset && _tailUsed + bytes <= _tailCapacity)
        return Status::ok();  // the tail node already fits the txn
    TraceSpan span(_stats.tracer(), "wal.append_node", "wal", "bytes",
                   bytes);
    const Status reserved = appendNode(bytes);
    if (!reserved.isOk() && reserved.code() == StatusCode::NoSpace) {
        // One extent for the whole transaction does not fit (NVRAM
        // pressure or fragmentation). Fall back to per-frame
        // placement: the frames lose contiguity but the transaction
        // still commits, exactly as before the marshalling pass.
        return Status::ok();
    }
    NVWAL_RETURN_IF_ERROR(reserved);
    _stats.add(stats::kWalNodeAllocs);
    return Status::ok();
}

Status
NvwalLog::logTxnFrames(const std::vector<FrameWrite> &frames,
                       std::vector<FrameRef> *refs)
{
    // Marshal the transaction (paper §4.2): expand every FrameWrite
    // into its dirty ranges first so the transaction's total footprint
    // is known, then reserve one contiguous run in the tail node and
    // place the frames back to back. Contiguity is what lets
    // lazySyncRefs collapse the batch into a single flush range.
    std::vector<PendingFrame> pending;
    std::uint32_t total = 0;
    for (const FrameWrite &fw : frames) {
        NVWAL_ASSERT(fw.page.size() == _pageSize);
        std::vector<ByteRange> ranges;
        if (_config.diffLogging) {
            NVWAL_ASSERT(fw.ranges != nullptr,
                         "diff logging needs dirty ranges");
            if (_config.diffGranularity == DiffGranularity::MultiRange)
                ranges = fw.ranges->ranges();
            else
                ranges.push_back(fw.ranges->bounding());
            // Adaptive logging granularity (DESIGN.md §14): when the
            // bytes this page would log exceed the threshold share of
            // the page -- judged by the pager's observed dirty-ratio
            // EWMA when provided, else by this commit alone -- ship
            // ONE full-page frame instead. Same wire format
            // (pageOffset 0, size == page size), but the frame
            // supersedes the page's replay chain: it becomes the
            // full_frame_shortcut anchor every later read starts at.
            const std::uint32_t threshold =
                _config.adaptiveFullFrameThresholdPct;
            bool adaptive_full = false;
            const bool already_full =
                ranges.size() == 1 && ranges[0].lo == 0 &&
                ranges[0].size() == _pageSize;
            if (threshold > 0 && !already_full) {
                std::uint64_t log_bytes = 0;
                for (const ByteRange &r : ranges)
                    log_bytes += r.size();
                if (log_bytes > 0) {
                    const std::uint64_t pct =
                        fw.observedDirtyPct != 0
                            ? fw.observedDirtyPct
                            : 100 * log_bytes / _pageSize;
                    if (pct > threshold) {
                        ranges.assign(1, ByteRange{0, _pageSize});
                        adaptive_full = true;
                        _stats.add(stats::kWalFullFramesAdaptive);
                    }
                }
            }
            // Natural full-page writes are neither promotions nor
            // byte-diffs; the two counters partition only the frames
            // the adaptive decision actually ruled on.
            if (!adaptive_full && !already_full) {
                std::uint64_t diff_frames = 0;
                for (const ByteRange &r : ranges)
                    diff_frames += r.empty() ? 0 : 1;
                if (diff_frames > 0)
                    _stats.add(stats::kWalDiffFrames, diff_frames);
            }
        } else {
            ranges.push_back(ByteRange{0, _pageSize});
        }
        for (const ByteRange &r : ranges) {
            if (r.empty())
                continue;
            NVWAL_ASSERT(r.hi <= _pageSize);
            pending.push_back(PendingFrame{
                fw.pageNo, static_cast<std::uint16_t>(r.lo),
                fw.page.subspan(r.lo, r.size())});
            total += static_cast<std::uint32_t>(alignUp(
                kFrameHeaderSize + r.size(), 8));
        }
    }
    if (pending.empty())
        return Status::ok();

    NVWAL_RETURN_IF_ERROR(reserveContiguous(total));
    for (const PendingFrame &pf : pending) {
        NvOffset off;
        NVWAL_RETURN_IF_ERROR(
            placeFrame(pf.pageNo, pf.pageOffset, pf.payload, &off));
        refs->push_back(FrameRef{
            off, pf.pageNo, pf.pageOffset,
            static_cast<std::uint16_t>(pf.payload.size()), 0});
        if (_config.syncMode == SyncMode::Eager) {
            // Figure 4(b): flush + fence + persist per log entry.
            _pmem.memoryBarrier();
            _pmem.cacheLineFlush(
                off, off + kFrameHeaderSize + pf.payload.size());
            _pmem.memoryBarrier();
            _pmem.persistBarrier();
        }
    }
    return Status::ok();
}

Status
NvwalLog::writeFrames(const std::vector<FrameWrite> &frames, bool commit,
                      std::uint32_t db_size_pages)
{
    // Phase 1 -- logging: memcpy WAL frames into NVRAM (Algorithm 1
    // lines 1-20). Eager mode synchronizes after every frame; lazy
    // and checksum-async modes defer.
    std::vector<FrameRef> refs;
    const SimTime log_begin = _pmem.clock().now();
    NVWAL_RETURN_IF_ERROR(logTxnFrames(frames, &refs));

    syncRefs(refs, /*force=*/false);

    if (!frames.empty()) {
        _stats.tracer().complete("wal.log_write", "wal", log_begin,
                                 "frames", refs.size());
        _logWriteHist.record(_pmem.clock().now() - log_begin);
    }

    _pendingRefs.insert(_pendingRefs.end(), refs.begin(), refs.end());
    if (!commit)
        return Status::ok();
    if (_pendingRefs.empty()) {
        // A commit that dirtied no pages still carries the database
        // size (e.g. a truncating vacuum): record it, or the next
        // commit mark would persist a stale size.
        _dbSizePages = db_size_pages;
        return Status::ok();
    }

    // An eager-mode commit mark promises everything below it is
    // durable; unhardened async frames chained earlier would break
    // that promise if torn. (Lazy merged them in syncRefs above;
    // ChecksumAsync promises nothing, so it defers as designed.)
    if (_config.syncMode == SyncMode::Eager && !_unhardenedRuns.empty())
        NVWAL_RETURN_IF_ERROR(harden());

    persistCommitMark(_pendingRefs.back(), db_size_pages,
                      _pendingRefs.size());

    // Publish in the volatile index under a fresh commit sequence.
    // Pages committed while an incremental checkpoint round is
    // active must be written back (again) before that round may
    // truncate the log.
    const CommitSeq seq = ++_commitSeq;
    for (FrameRef &ref : _pendingRefs) {
        ref.seq = seq;
        indexFrame(ref);
        if (_ckptRoundActive)
            _ckptPending.insert(ref.pageNo);
    }
    noteCommitted(_pendingRefs.begin(), _pendingRefs.end());
    _pendingRefs.clear();
    _dbSizePages = db_size_pages;
    return Status::ok();
}

void
NvwalLog::syncRefs(const std::vector<FrameRef> &refs, bool force)
{
    if (_config.syncMode != SyncMode::Lazy && !force)
        return;
    if (refs.empty() && _unhardenedRuns.empty())
        return;
    // Transaction-aware lazy synchronization (Algorithm 1 lines
    // 21-28): one dmb, a batch of non-blocking flushes, a closing
    // dmb and one persist barrier for the whole batch. Group commit
    // widens the batch to many transactions' frames; ranges still
    // pending from async appends ride along, so the barrier pair
    // also catches the durability horizon up (DESIGN.md §11).
    //
    // Before issuing anything, coalesce the batch: align every
    // frame's [off, off + header + size) to cache-line boundaries,
    // sort, and merge overlapping or adjacent intervals. Marshalled
    // placement puts a transaction's frames back to back, so the
    // batch usually collapses to one contiguous run -- one kernel
    // crossing instead of one per frame, and a line shared by two
    // small diffs is flushed exactly once.
    const std::uint64_t line = _pmem.cost().cacheLineSize;
    std::vector<std::pair<NvOffset, NvOffset>> runs;
    runs.reserve(refs.size() + _unhardenedRuns.size());
    std::uint64_t naive_lines = 0;
    for (const FrameRef &ref : refs) {
        const NvOffset lo = alignDown(ref.off, line);
        const NvOffset hi =
            alignUp(ref.off + kFrameHeaderSize + ref.size, line);
        naive_lines += (hi - lo) / line;
        runs.emplace_back(lo, hi);
    }
    for (const auto &run : _unhardenedRuns)
        naive_lines += (run.second - run.first) / line;
    runs.insert(runs.end(), _unhardenedRuns.begin(),
                _unhardenedRuns.end());
    const std::uint64_t inputs = runs.size();
    std::sort(runs.begin(), runs.end());
    std::size_t last = 0;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        if (runs[i].first <= runs[last].second)
            runs[last].second = std::max(runs[last].second,
                                         runs[i].second);
        else
            runs[++last] = runs[i];
    }
    runs.resize(last + 1);

    std::uint64_t flushed_lines = 0;
    _pmem.memoryBarrier();
    for (const auto &run : runs) {
        flushed_lines += (run.second - run.first) / line;
        _pmem.cacheLineFlush(run.first, run.second);
    }
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    _stats.add(stats::kWalFlushRangesCoalesced, inputs - runs.size());
    _stats.add(stats::kPmemFlushLinesDeduped,
               naive_lines - flushed_lines);
    _unhardenedRuns.clear();
    _hardenedSeq = _commitSeq;
}

void
NvwalLog::deferSyncRef(const FrameRef &ref)
{
    const std::uint64_t line = _pmem.cost().cacheLineSize;
    const NvOffset lo = alignDown(ref.off, line);
    const NvOffset hi =
        alignUp(ref.off + kFrameHeaderSize + ref.size, line);
    // Extend the previous run in place when the append is contiguous
    // (the common marshalled case), so the pending set stays tiny.
    if (!_unhardenedRuns.empty() && _unhardenedRuns.back().second >= lo) {
        _unhardenedRuns.back().second =
            std::max(_unhardenedRuns.back().second, hi);
        return;
    }
    _unhardenedRuns.emplace_back(lo, hi);
}

Status
NvwalLog::harden()
{
    if (_unhardenedRuns.empty()) {
        _hardenedSeq = _commitSeq;
            return Status::ok();
    }
    // One barrier pair for every range appended since the last
    // harden, however many transactions they span: this is where the
    // epoch pipeline's persist-barrier amortization comes from.
    const SimTime begin = _pmem.clock().now();
    std::sort(_unhardenedRuns.begin(), _unhardenedRuns.end());
    std::size_t last = 0;
    for (std::size_t i = 1; i < _unhardenedRuns.size(); ++i) {
        if (_unhardenedRuns[i].first <= _unhardenedRuns[last].second)
            _unhardenedRuns[last].second =
                std::max(_unhardenedRuns[last].second,
                         _unhardenedRuns[i].second);
        else
            _unhardenedRuns[++last] = _unhardenedRuns[i];
    }
    _unhardenedRuns.resize(last + 1);
    _pmem.memoryBarrier();
    for (const auto &run : _unhardenedRuns)
        _pmem.cacheLineFlush(run.first, run.second);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    _unhardenedRuns.clear();
    _hardenedSeq = _commitSeq;
    _stats.add(stats::kWalHardenBatches);
    _stats.tracer().complete("wal.harden", "wal", begin);
    return Status::ok();
}

Status
NvwalLog::writeFrameGroupAsync(const std::vector<TxnFrames> &txns)
{
    NVWAL_ASSERT(_pendingRefs.empty(),
                 "async commit with an open single-writer transaction");

    // Checksum commit (paper §3.2 / Figure 4(d)) stretched into a
    // durability epoch: append every transaction's frames and set a
    // commit mark per transaction, with no flush or barrier at all.
    // The cumulative checksum chain is what recovery later uses to
    // decide how much of this survived; harden() retires the epoch
    // with one coalesced barrier pair.
    std::vector<FrameRef> refs;
    std::vector<std::size_t> txn_end;   //!< end index in refs, per txn
    const SimTime log_begin = _pmem.clock().now();
    for (const TxnFrames &txn : txns) {
        NVWAL_RETURN_IF_ERROR(logTxnFrames(txn.frames, &refs));
        txn_end.push_back(refs.size());
    }
    if (refs.empty()) {
        if (!txns.empty())
            _dbSizePages = txns.back().dbSizePages;
        return Status::ok();
    }
    _stats.tracer().complete("wal.log_write", "wal", log_begin,
                             "frames", refs.size());
    _logWriteHist.record(_pmem.clock().now() - log_begin);

    // Per-transaction commit marks (plain stores): recovery recovers
    // the longest valid committed prefix, so marking transactions
    // individually narrows the loss window for free -- no caller has
    // been acknowledged yet, so there is no group-atomicity promise
    // to keep.
    std::size_t begin = 0;
    for (std::size_t t = 0; t < txns.size(); ++t) {
        const std::size_t end = txn_end[t];
        if (end == begin)
            continue;  // a transaction that dirtied nothing
        _pmem.storeU64(refs[end - 1].off + 8,
                       kCommitFlag | txns[t].dbSizePages);
        const CommitSeq seq = ++_commitSeq;
        for (std::size_t i = begin; i < end; ++i) {
            refs[i].seq = seq;
            indexFrame(refs[i]);
            if (_ckptRoundActive)
                _ckptPending.insert(refs[i].pageNo);
        }
        noteCommitted(refs.begin() + begin, refs.begin() + end);
        begin = end;
    }
    for (const FrameRef &ref : refs)
        deferSyncRef(ref);
    _dbSizePages = txns.back().dbSizePages;
    return Status::ok();
}

void
NvwalLog::persistCommitMark(const FrameRef &last,
                            std::uint32_t db_size_pages,
                            std::uint64_t frame_count)
{
    // Commit: set the commit mark on the last frame with a single
    // 8-byte atomic store, then flush and persist it (Algorithm 1
    // lines 29-36). ChecksumAsync flushes the whole header line so
    // the cumulative checksum lands with the mark (Figure 4(d));
    // frames themselves were never flushed.
    const SimTime mark_begin = _pmem.clock().now();
    _pmem.storeU64(last.off + 8, kCommitFlag | db_size_pages);
    _pmem.memoryBarrier();
    if (_config.syncMode == SyncMode::ChecksumAsync)
        _pmem.cacheLineFlush(last.off, last.off + kFrameHeaderSize);
    else
        _pmem.cacheLineFlush(last.off + 8, last.off + 16);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    _stats.tracer().complete("wal.commit_mark", "wal", mark_begin,
                             "frames", frame_count);
    _commitMarkHist.record(_pmem.clock().now() - mark_begin);
}

Status
NvwalLog::writeFrameGroup(const std::vector<TxnFrames> &txns)
{
    NVWAL_ASSERT(_pendingRefs.empty(),
                 "group commit with an open single-writer transaction");

    // Phase 1 -- log every transaction's frames back to back, each
    // transaction marshalled contiguously. Eager mode still
    // synchronizes per frame; Lazy defers to one barrier pair
    // covering the whole group.
    std::vector<FrameRef> refs;
    std::vector<std::size_t> txn_end;   //!< end index in refs, per txn
    const SimTime log_begin = _pmem.clock().now();
    for (const TxnFrames &txn : txns) {
        NVWAL_RETURN_IF_ERROR(logTxnFrames(txn.frames, &refs));
        txn_end.push_back(refs.size());
    }
    if (refs.empty()) {
        // Even an all-empty group carries the final database size
        // (same stale-size hazard as an empty single commit).
        if (!txns.empty())
            _dbSizePages = txns.back().dbSizePages;
        return Status::ok();
    }

    syncRefs(refs, /*force=*/false);
    _stats.tracer().complete("wal.log_write", "wal", log_begin,
                             "frames", refs.size());
    _logWriteHist.record(_pmem.clock().now() - log_begin);

    // See writeFrames: an eager-mode mark must not sit above an
    // unhardened async prefix.
    if (_config.syncMode == SyncMode::Eager && !_unhardenedRuns.empty())
        NVWAL_RETURN_IF_ERROR(harden());

    // Phase 2 -- one commit mark for the whole group, carrying the
    // final transaction's database size. Recovery sees the group as
    // a single atomic unit: all of it commits or none of it does,
    // which is sound because no caller is acknowledged before the
    // group is durable.
    persistCommitMark(refs.back(), txns.back().dbSizePages,
                      refs.size());

    // Phase 3 -- publish, one commit sequence per transaction so
    // snapshots can still distinguish intra-group boundaries.
    std::size_t begin = 0;
    for (std::size_t t = 0; t < txns.size(); ++t) {
        const std::size_t end = txn_end[t];
        if (end == begin)
            continue;  // a transaction that dirtied nothing
        const CommitSeq seq = ++_commitSeq;
        for (std::size_t i = begin; i < end; ++i) {
            refs[i].seq = seq;
            indexFrame(refs[i]);
            if (_ckptRoundActive)
                _ckptPending.insert(refs[i].pageNo);
        }
        begin = end;
    }
    // Counted over the whole group, the unit recovery sees: a page
    // that ends one transaction and starts the next is one write.
    noteCommitted(refs.begin(), refs.end());
    _dbSizePages = txns.back().dbSizePages;
    return Status::ok();
}

Status
NvwalLog::placeControlFrame(std::uint32_t type, std::uint64_t gtid,
                            std::uint32_t db_size_pages, FrameRef *out)
{
    std::uint8_t payload[kControlPayloadSize];
    storeU32(payload, kControlMagic);
    storeU32(payload + 4, type);
    storeU64(payload + 8, gtid);
    storeU32(payload + 16, db_size_pages);
    storeU32(payload + 20, 0);
    NvOffset off;
    NVWAL_RETURN_IF_ERROR(placeFrame(
        kControlPage, 0, ConstByteSpan(payload, sizeof(payload)), &off));
    *out = FrameRef{off, kControlPage, 0, kControlPayloadSize, 0};
    return Status::ok();
}

Status
NvwalLog::writePrepare(std::uint64_t gtid, const TxnFrames &txn)
{
    NVWAL_ASSERT(_pendingRefs.empty(),
                 "prepare with an open single-writer transaction");
    if (_staged.count(gtid) != 0)
        return Status::invalidArgument(
            "gtid already prepared in this log: " + std::to_string(gtid));

    // Phase 1 of 2PC is phase 1+2 of a normal commit, with the
    // commit mark carried by a PREPARE control frame appended after
    // the data: the whole unit becomes durable (and chain-valid)
    // atomically, but the data frames stay staged -- invisible to
    // readers and checkpoints -- until the decision record lands.
    std::vector<FrameRef> refs;
    const SimTime log_begin = _pmem.clock().now();
    NVWAL_RETURN_IF_ERROR(logTxnFrames(txn.frames, &refs));
    FrameRef ctrl;
    NVWAL_RETURN_IF_ERROR(placeControlFrame(kCtrlPrepare, gtid,
                                            txn.dbSizePages, &ctrl));
    std::vector<FrameRef> unit = refs;
    unit.push_back(ctrl);
    // 2PC records harden eagerly under EVERY sync mode, pending
    // async ranges included: a prepared unit that could tear would
    // let recovery re-stage garbage that a COMMIT decision then
    // applies, and an in-doubt shard resolves by reading other
    // participants' decision records -- neither may be probabilistic.
    syncRefs(unit, /*force=*/true);
    _stats.tracer().complete("wal.log_write", "wal", log_begin,
                             "frames", unit.size());
    _logWriteHist.record(_pmem.clock().now() - log_begin);

    persistCommitMark(ctrl, txn.dbSizePages, unit.size());

    _staged[gtid] = StagedTxn{std::move(refs), txn.dbSizePages};
    _maxSeenGtid = std::max(_maxSeenGtid, gtid);
    _stats.add(stats::kWalPrepareRecords);
    _stats.tracer().instant("wal.prepare", "wal", "gtid", gtid);
    return Status::ok();
}

void
NvwalLog::applyDecision(std::uint64_t gtid, bool commit)
{
    _decisions[gtid] = commit;
    _maxSeenGtid = std::max(_maxSeenGtid, gtid);
    auto it = _staged.find(gtid);
    if (it == _staged.end())
        return;
    if (commit) {
        // The staged frames become visible under one fresh sequence,
        // exactly like a group commit's atomicity unit.
        const CommitSeq seq = ++_commitSeq;
        for (FrameRef &ref : it->second.refs) {
            ref.seq = seq;
            indexFrame(ref);
            if (_ckptRoundActive)
                _ckptPending.insert(ref.pageNo);
        }
        noteCommitted(it->second.refs.begin(), it->second.refs.end());
        _dbSizePages = it->second.dbSizePages;
    }
    // Aborted frames stay as dead bytes until truncation; they are
    // unreachable from the page index, so reads never see them.
    _staged.erase(it);
}

Status
NvwalLog::writeDecision(std::uint64_t gtid, bool commit)
{
    NVWAL_ASSERT(_pendingRefs.empty(),
                 "decision with an open single-writer transaction");
    FrameRef ctrl;
    NVWAL_RETURN_IF_ERROR(placeControlFrame(
        commit ? kCtrlCommit : kCtrlAbort, gtid, 0, &ctrl));
    std::vector<FrameRef> unit{ctrl};
    // Decisions are the 2PC ground truth; like prepares they flush
    // eagerly under every sync mode (see writePrepare).
    syncRefs(unit, /*force=*/true);
    // The decision's own mark carries the database size that results
    // from it, keeping the "last mark's size" recovery rule uniform.
    const auto staged = _staged.find(gtid);
    const std::uint32_t db_size =
        commit && staged != _staged.end() ? staged->second.dbSizePages
                                          : _dbSizePages;
    persistCommitMark(ctrl, db_size, 1);

    applyDecision(gtid, commit);
    _stats.add(stats::kWalDecisionRecords);
    _stats.tracer().instant("wal.decision", "wal", "gtid", gtid);
    return Status::ok();
}

Status
NvwalLog::resolveInDoubt(std::uint64_t gtid, bool commit)
{
    if (_staged.find(gtid) == _staged.end())
        return Status::notFound("gtid not in doubt: " +
                                std::to_string(gtid));
    return writeDecision(gtid, commit);
}

std::vector<std::uint64_t>
NvwalLog::inDoubtTransactions() const
{
    std::vector<std::uint64_t> gtids;
    gtids.reserve(_staged.size());
    for (const auto &[gtid, txn] : _staged)
        gtids.push_back(gtid);
    return gtids;
}

bool
NvwalLog::lookupDecision(std::uint64_t gtid, bool *commit) const
{
    const auto it = _decisions.find(gtid);
    if (it == _decisions.end())
        return false;
    *commit = it->second;
    return true;
}

void
NvwalLog::indexFrame(const FrameRef &ref)
{
    const std::uint64_t nodes_before = _frameIndexNodes;
    auto [it, inserted] = _pageIndex.try_emplace(ref.pageNo);
    PageEntry &entry = it->second;
    if (inserted)
        entry.frames.bindNodeGauge(&_frameIndexNodes);
    const bool full_page =
        ref.pageOffset == 0 && ref.size == _pageSize;
    if (full_page && !hasPins()) {
        // A full-page frame supersedes all earlier frames -- but an
        // open snapshot may still need the superseded diffs for
        // readPageAt(), so the prune only runs while no snapshot is
        // pinned. Retained stale prefixes are harmless: replaying
        // absolute-byte diffs in log order is idempotent, and the
        // leaf's anchorSeq makes reads skip them anyway.
        _indexedFrames -= entry.frames.frameCount();
        entry.frames.clear();
    }
    entry.frames.insert(
        ref.seq, FrameIndex::Slot{ref.off, ref.pageOffset, ref.size},
        full_page);
    ++_indexedFrames;
    if (_frameIndexNodes != nodes_before)
        publishIndexGauge();
}

void
NvwalLog::publishIndexGauge()
{
    _stats.setGauge(stats::kWalFrameIndexNodes, _frameIndexNodes);
}

Status
NvwalLog::materializePage(PageNo page_no, ByteSpan out, CommitSeq horizon,
                          CommitSeq *effective_out)
{
    auto it = _pageIndex.find(page_no);
    if (it == _pageIndex.end())
        return Status::notFound("page not in WAL index");
    NVWAL_ASSERT(out.size() == _pageSize);
    PageEntry &entry = it->second;

    // O(log) horizon lookup: the newest leaf at or below the horizon
    // in the page's radix frame index. The steps counter (descent
    // nodes + leaves visited + frames applied) is the deterministic
    // observable the long-log flatness gate watches.
    std::uint64_t steps = 0;
    const FrameIndex::Leaf *visible =
        entry.frames.findVisible(horizon, &steps);
    if (visible == nullptr) {
        // No retained frame at or below the horizon. NotFound is the
        // WAL read contract -- the caller falls back to the .db
        // file, which (for horizon >= baseSeq) holds exactly the
        // checkpointed base image.
        return Status::notFound(
            "no committed frame at snapshot horizon");
    }

    const CommitSeq effective = visible->seq;
    if (effective_out != nullptr)
        *effective_out = effective;
    // One replay from the frame index (the counter keeps its old
    // name, see stats.hpp).
    _stats.add(stats::kWalMaterializeCacheMisses);

    // Replay start, in preference order: the indexed "last full
    // frame <= horizon" anchor (no scan -- each leaf carries it,
    // maintained O(1) at insert), else the .db file, else zeros (a
    // page born in the log). An anchor at or below
    // baseSeq/prunedThrough points at reclaimed frames whose effects
    // the base image already contains; ignore it.
    const CommitSeq anchor = visible->anchorSeq;
    const bool anchored = anchor != 0 && anchor > entry.baseSeq &&
                          anchor > entry.frames.prunedThrough();
    CommitSeq replay_lo = 0;
    if (anchored) {
        _stats.add(stats::kWalFullFrameShortcuts);
        replay_lo = anchor;
    } else if (page_no <= _dbFile.pageCount()) {
        // Base image: the page as the .db file knows it. Checkpoint
        // write-back never advances the base image past the oldest
        // pinned snapshot (checkpointTarget()), so base +
        // prefix-of-diffs is exactly the page at the horizon. An
        // I/O error here is the caller's to handle, not fatal.
        NVWAL_RETURN_IF_ERROR(_dbFile.readPage(page_no, out));
    } else {
        // A page born in the log and not yet checkpointed: diffs
        // apply over zeros.
        std::memset(out.data(), 0, out.size());
    }
    entry.frames.forRange(
        replay_lo, effective, [&](const FrameIndex::Leaf &leaf) {
            ++steps;  // leaf visited
            std::size_t begin = 0;
            if (anchored && leaf.seq == anchor) {
                NVWAL_ASSERT(leaf.lastFull >= 0,
                             "anchor leaf without a full frame");
                begin = static_cast<std::size_t>(leaf.lastFull);
            }
            for (std::size_t i = begin; i < leaf.slots.size(); ++i) {
                const FrameIndex::Slot &slot = leaf.slots[i];
                _pmem.readFromNvram(
                    slot.off + kFrameHeaderSize,
                    out.subspan(slot.pageOffset, slot.size));
                ++steps;  // frame applied
            }
        });
    _stats.add(stats::kWalFrameScanSteps, steps);
    return Status::ok();
}

Status
NvwalLog::readPage(PageNo page_no, ByteSpan out)
{
    return materializePage(page_no, out, kNoPin);
}

Status
NvwalLog::readPageAt(PageNo page_no, ByteSpan out, CommitSeq horizon)
{
    return materializePage(page_no, out, horizon);
}

Status
NvwalLog::checkpoint()
{
    TraceSpan span(_stats.tracer(), "wal.checkpoint", "wal");
    const SimTime begin = _pmem.clock().now();
    bool done = false;
    while (!done) {
        NVWAL_RETURN_IF_ERROR(
            checkpointStep(~static_cast<std::uint32_t>(0), &done));
    }
    _checkpointHist.record(_pmem.clock().now() - begin);
    return Status::ok();
}

Status
NvwalLog::checkpointStep(std::uint32_t max_pages, bool *done)
{
    TraceSpan span(_stats.tracer(), "wal.checkpoint_step", "wal");
    *done = false;
    NVWAL_ASSERT(_pendingRefs.empty(),
                 "checkpoint with an open transaction");
    // Write-back must never outrun the durable log: if the .db base
    // advanced past frames that could still tear, a post-crash
    // recovery would mix a newer base with an older log prefix.
    // Harden pending async ranges before touching the file.
    if (!_unhardenedRuns.empty())
        NVWAL_RETURN_IF_ERROR(harden());
    // Trivially done only when the chain itself is empty: a log can
    // hold zero indexed frames yet still own nodes (pure 2PC control
    // records, aborted staged frames) that a full round must free.
    if (_indexedFrames == 0 && _nodesSinceCheckpoint == 0) {
        _ckptRoundActive = false;
        _ckptQueue.clear();
        _ckptQueuePos = 0;
        _ckptPending.clear();
        *done = true;
        return Status::ok();
    }

    // The write-back horizon: the newest commit, clamped to the
    // oldest pinned snapshot so the base image a pinned reader falls
    // back to never gets ahead of its horizon.
    const CommitSeq target = checkpointTarget();

    // Start a new round: snapshot the dirty-in-log page set in
    // ascending page order (the map already is), so the block device
    // sees one sequential sweep instead of a scatter (Fig. 8). Pages
    // committed while the round is in progress land in _ckptPending
    // (see writeFrames) and are drained by ascending catch-up passes,
    // so the round only finishes when the write-back has caught up
    // with the log.
    if (!_ckptRoundActive) {
        _ckptQueue.clear();
        _ckptQueue.reserve(_pageIndex.size());
        for (const auto &[page_no, entry] : _pageIndex)
            if (!entry.frames.empty())
                _ckptQueue.push_back(page_no);
        _ckptQueuePos = 0;
        _ckptPending.clear();
        _ckptLastWritten = kNoPage;
        _ckptRoundActive = true;
    }

    // Reconstruct and batch up to max_pages pages to the .db file
    // (section 4.3: replaying this after a crash is idempotent
    // because the log is only truncated after the fsync). A page
    // whose newest retained frame is visible at the target is asked
    // of the committed-page source first (the database's page cache,
    // DESIGN.md §16): its image then needs no base read and no
    // replay. Otherwise the page is replayed at the target.
    ByteBuffer page(_pageSize);
    std::uint32_t written = 0;
    while (written < max_pages) {
        if (_ckptQueuePos == _ckptQueue.size()) {
            if (_ckptPending.empty())
                break;  // the round has caught up with the log
            // Catch-up pass over the pages re-dirtied mid-round,
            // again in ascending order.
            _ckptQueue.assign(_ckptPending.begin(), _ckptPending.end());
            _ckptQueuePos = 0;
            _ckptPending.clear();
        }
        const PageNo page_no = _ckptQueue[_ckptQueuePos++];
        PageEntry &entry = _pageIndex.find(page_no)->second;
        const ByteSpan out(page.data(), _pageSize);
        CommitSeq effective = entry.frames.newestSeq();
        if (effective != 0 && effective <= target && _committedPageSource &&
            _committedPageSource(page_no, target, out)) {
            _stats.add(stats::kWalCkptPagesFromPager);
        } else {
            const Status read =
                materializePage(page_no, out, target, &effective);
            if (read.isNotFound()) {
                // The page was born after the clamped horizon; it
                // stays in the log and a later round (once the pin
                // releases) writes it back.
                continue;
            }
            NVWAL_RETURN_IF_ERROR(read);
        }
        if (effective == entry.baseSeq) {
            // Everything visible at the target is already in the
            // base image (the page re-queued but its new commits sit
            // past the clamped horizon); nothing to write.
            continue;
        }
        NVWAL_RETURN_IF_ERROR(_dbFile.writePage(
            page_no, ConstByteSpan(page.data(), _pageSize)));
        _stats.add(stats::kWalCkptPagesWritten);
        if (_ckptLastWritten != kNoPage && page_no > _ckptLastWritten)
            _stats.add(stats::kWalCkptSequentialWrites);
        _ckptLastWritten = page_no;
        ++written;
        // Reclaim the page's written-back frames from the volatile
        // index (the NVRAM bytes stay until truncation): the base
        // image now contains every effect at or below `effective`,
        // and every pinned horizon is >= target >= effective, so no
        // reader can need them. This is what bounds index memory for
        // fully-checkpointed pages between truncations.
        entry.baseSeq = effective;
        const std::uint64_t nodes_before = _frameIndexNodes;
        _indexedFrames -= entry.frames.pruneThrough(effective);
        if (_frameIndexNodes != nodes_before)
            publishIndexGauge();
    }
    if (_ckptQueuePos < _ckptQueue.size() || !_ckptPending.empty()) {
        // Sync what this step wrote: file writes are buffered, so
        // without a per-step fsync the entire block-program bill
        // would land on the final step and the latency bound this
        // API exists for would be lost. Intermediate syncs are safe
        // because replaying the (still intact) log is idempotent.
        if (written > 0)
            NVWAL_RETURN_IF_ERROR(_dbFile.sync());
        return Status::ok();  // more steps required
    }

    NVWAL_RETURN_IF_ERROR(_dbFile.sync());
    _ckptRoundActive = false;
    _ckptQueue.clear();
    _ckptQueuePos = 0;
    if (target == _commitSeq && _indexedFrames != 0) {
        // A pin released mid-round: the steps before the release
        // wrote pages back only up to the old clamped target, so the
        // frames past it are still live. Truncating now would lose
        // them; the next step starts a fresh round that drains them.
        return Status::ok();
    }
    *done = true;

    if (target < _commitSeq) {
        // A pinned snapshot sits below the newest commit, so frames
        // past the target must survive; the round ends with the base
        // file advanced to the target but the log retained. A later
        // round truncates once the pin releases.
        _stats.add(stats::kCheckpointsPinBlocked);
        return Status::ok();
    }
    if (!_staged.empty() || _twoPhaseHolds > 0) {
        // A prepared-but-undecided transaction (or a coordinator
        // mid-protocol) pins the log the same way a snapshot does:
        // truncating would destroy the staged frames -- and, on other
        // participants, the decision records an in-doubt shard needs
        // to resolve after a crash. Write-back is complete; only the
        // truncation is deferred to a later round.
        _stats.add(stats::kWalCkptTwoPhaseBlocked);
        return Status::ok();
    }

    // Open a new checkpoint epoch *before* truncating: every logged
    // frame carries the epoch id, so bumping it atomically
    // invalidates the whole log. Without this, a crash midway
    // through freeing the nodes (tail first, section 4.3) would
    // leave a valid *prefix* of frames, and replaying old diffs on
    // top of the already-checkpointed pages would revert the
    // transactions whose frames were freed.
    _checkpointId++;
    persistU64(checkpointIdFieldOff(), _checkpointId);

    // Truncate the NVRAM log: free nodes from the end of the list to
    // the beginning (section 4.3), then clear the head pointer.
    std::vector<NvOffset> nodes;
    NvOffset node = _pmem.device().readU64(firstNodeFieldOff());
    while (node != kNullNvOffset) {
        nodes.push_back(node);
        node = _pmem.device().readU64(node);
    }
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it)
        NVWAL_RETURN_IF_ERROR(_heap.nvFree(*it));
    persistU64(firstNodeFieldOff(), kNullNvOffset);

    // Every page's frames are gone and the .db file holds its newest
    // image, so the whole volatile index goes with them.
    _pageIndex.clear();
    _indexedFrames = 0;
    publishIndexGauge();
    resetSinceCheckpoint();
    _tailNode = kNullNvOffset;
    _tailUsed = 0;
    _tailCapacity = 0;
    _linkFieldOff = firstNodeFieldOff();
    _stats.add(stats::kCheckpoints);
    return Status::ok();
}

Status
NvwalLog::recover(std::uint32_t *db_size_pages)
{
    TraceSpan span(_stats.tracer(), "wal.recover", "wal");
    const SimTime recover_begin = _pmem.clock().now();
    *db_size_pages = 0;
    _pageIndex.clear();
    _indexedFrames = 0;
    publishIndexGauge();
    _pendingRefs.clear();
    _ckptRoundActive = false;
    _ckptQueue.clear();
    _ckptQueuePos = 0;
    _ckptPending.clear();
    resetSinceCheckpoint();
    _dbSizePages = 0;
    _tailNode = kNullNvOffset;
    _tailUsed = 0;
    _tailCapacity = 0;
    // Sequences restart per process lifetime; recovery runs only
    // while no connection (and hence no snapshot pin) is open.
    NVWAL_ASSERT(!hasPins(), "recovery with an open snapshot");
    _commitSeq = 0;
    // Whatever survived the crash is on media by definition; the
    // async pipeline restarts empty.
    _unhardenedRuns.clear();
    _hardenedSeq = 0;
    _staged.clear();
    _decisions.clear();
    _maxSeenGtid = 0;
    _twoPhaseHolds = 0;

    // The heap manager reclaims pending blocks first (section 4.3,
    // failure case 1): a block that was allocated but never linked
    // leaks otherwise, and a block that was linked but never marked
    // in-use must be treated as free (failure case 2).
    NVWAL_RETURN_IF_ERROR(_heap.recover());

    Status root = _heap.getRoot(_config.heapNamespace, &_headerOff);
    if (root.isNotFound()) {
        NVWAL_RETURN_IF_ERROR(initHeader());
        _linkFieldOff = firstNodeFieldOff();
        _recoverHist.record(_pmem.clock().now() - recover_begin);
        return Status::ok();
    }
    NVWAL_RETURN_IF_ERROR(root);
    if (_heap.blockStateAt(_headerOff) != BlockState::InUse) {
        // The root points at a block the heap reclaimed: the crash
        // hit initHeader() between setRoot() and nvSetUsedFlag(), so
        // heap recovery freed the pending header. The log never
        // existed; re-initialize it (failure case 2 applied to the
        // header allocation itself).
        NVWAL_RETURN_IF_ERROR(initHeader());
        _linkFieldOff = firstNodeFieldOff();
        _recoverHist.record(_pmem.clock().now() - recover_begin);
        return Status::ok();
    }
    NVWAL_RETURN_IF_ERROR(loadHeader());
    _linkFieldOff = firstNodeFieldOff();

    NvramDevice &dev = _pmem.device();

    // Walk the node chain, validating the frame checksum chain.
    // Frames after the last valid *durable mark* -- a data commit, a
    // PREPARE, or a DECISION, all of which carry a commit word --
    // belong to a unit that never became durable and are discarded.
    // The tail restores at the last mark, not the last data commit:
    // a staged PREPARE past the last commit must survive.
    struct Mark
    {
        NvOffset node = kNullNvOffset;
        std::uint32_t used = 0;
        std::uint32_t capacity = 0;
        CumulativeChecksum chain;
        std::uint32_t dbSize = 0;
    };
    Mark last_mark;
    bool any_mark = false;
    std::uint32_t recovered_db_size = 0;
    std::uint64_t page_writes = 0;
    std::vector<FrameRef> pending;
    std::vector<FrameRef> committed;
    ByteBuffer payload(_pageSize);

    // Checksum-commit classification (DESIGN.md §11): the first chain
    // mismatch ends the recoverable prefix, but the walk keeps
    // scanning read-only to meter the loss window. In discard mode
    // each structurally-plausible frame is checked *incrementally* --
    // its stored checksum against its predecessor's stored checksum
    // plus its own content -- which distinguishes a torn frame
    // (content damaged in the NVRAM cache hierarchy) from an intact
    // frame that is merely unreachable past the break.
    bool discard_mode = false;
    std::uint64_t discard_prev_chain = 0;
    const auto enterDiscardMode = [&](std::uint64_t stored_chain,
                                      std::uint64_t commit_word) {
        discard_mode = true;
        discard_prev_chain = stored_chain;
        _stats.add(stats::kWalTornFramesDetected);
        _stats.add(stats::kWalRecoveryFramesDiscarded);
        if (commit_word != 0)
            _stats.add(stats::kWalRecoveryLostMarks);
    };

    NvOffset link_field = firstNodeFieldOff();
    NvOffset node = dev.readU64(link_field);
    CumulativeChecksum chain(_chainSeed);
    while (node != kNullNvOffset) {
        if (_heap.blockStateAt(node) != BlockState::InUse) {
            // Dangling reference to a block the heap reclaimed
            // (crash between linking and nvSetUsedFlag): delete the
            // reference (section 4.3, failure case 2). In discard
            // mode the walk is read-only; the truncation pass below
            // already frees everything past the last mark.
            if (!discard_mode)
                persistU64(link_field, kNullNvOffset);
            break;
        }
        const std::uint32_t capacity =
            _heap.extentBlocksAt(node) * _heap.blockSize();
        std::uint32_t pos = kNodeHeaderSize;
        while (pos + kFrameHeaderSize <= capacity) {
            std::uint8_t header[kFrameHeaderSize];
            _pmem.readFromNvram(node + pos,
                                ByteSpan(header, kFrameHeaderSize));
            const PageNo page_no = loadU32(header);
            const std::uint16_t page_off = loadU16(header + 4);
            const std::uint16_t size = loadU16(header + 6);
            const std::uint64_t commit_word = loadU64(header + 8);
            const std::uint64_t ckpt_id = loadU64(header + 16);
            if (size == 0 || page_no == kNoPage ||
                static_cast<std::uint32_t>(page_off) + size > _pageSize ||
                pos + kFrameHeaderSize + size > capacity ||
                ckpt_id != _checkpointId) {
                // No (valid) frame here: the rest of this node is
                // unused tail space -- continue with the next node.
                // If these bytes were a torn frame instead, any
                // later commit's cumulative checksum will fail to
                // verify, which ends the walk there.
                break;
            }
            _pmem.readFromNvram(node + pos + kFrameHeaderSize,
                     ByteSpan(payload.data(), size));
            const std::uint64_t stored_chain = loadU64(header + 24);
            if (discard_mode) {
                // Read-only tail metering past the recoverable
                // prefix: a frame whose stored checksum disagrees
                // with (predecessor's stored checksum + own content)
                // is torn; one that agrees is intact but discarded.
                CumulativeChecksum attempt{discard_prev_chain};
                attempt.update(ConstByteSpan(header, 8));
                attempt.update(ConstByteSpan(header + 16, 8));
                attempt.update(ConstByteSpan(payload.data(), size));
                _stats.add(stats::kWalRecoveryFramesDiscarded);
                if (attempt.value() != stored_chain)
                    _stats.add(stats::kWalTornFramesDetected);
                if (commit_word != 0)
                    _stats.add(stats::kWalRecoveryLostMarks);
                discard_prev_chain = stored_chain;
                pos = static_cast<std::uint32_t>(
                    alignUp(pos + kFrameHeaderSize + size, 8));
                continue;
            }
            CumulativeChecksum attempt = chain;
            attempt.update(ConstByteSpan(header, 8));
            attempt.update(ConstByteSpan(header + 16, 8));
            attempt.update(ConstByteSpan(payload.data(), size));
            if (attempt.value() != stored_chain) {
                // Torn or missing bytes: the committed prefix ends
                // at the previous mark; keep scanning to meter what
                // was lost.
                enterDiscardMode(stored_chain, commit_word);
                pos = static_cast<std::uint32_t>(
                    alignUp(pos + kFrameHeaderSize + size, 8));
                continue;
            }
            chain = attempt;
            const NvOffset frame_off = node + pos;
            pos = static_cast<std::uint32_t>(
                alignUp(pos + kFrameHeaderSize + size, 8));
            bool mark = false;
            if (page_no == kControlPage) {
                // A 2PC control frame (chained like any frame). Its
                // payload is already in `payload`.
                if (size != kControlPayloadSize ||
                    loadU32(payload.data()) != kControlMagic) {
                    // Chain-valid bytes that are not a record we
                    // ever wrote: treat as damage, end the prefix.
                    enterDiscardMode(stored_chain, commit_word);
                    continue;
                }
                const std::uint32_t type = loadU32(payload.data() + 4);
                const std::uint64_t gtid = loadU64(payload.data() + 8);
                const std::uint32_t txn_db_size =
                    loadU32(payload.data() + 16);
                _maxSeenGtid = std::max(_maxSeenGtid, gtid);
                if (commit_word != 0) {
                    mark = true;
                    if (type == kCtrlPrepare) {
                        // Re-stage: durable, undecided, invisible.
                        _staged[gtid] =
                            StagedTxn{std::move(pending), txn_db_size};
                        pending.clear();
                    } else {
                        const bool commit = type == kCtrlCommit;
                        _decisions[gtid] = commit;
                        auto it = _staged.find(gtid);
                        if (it != _staged.end()) {
                            if (commit) {
                                const CommitSeq seq = ++_commitSeq;
                                for (FrameRef &ref : it->second.refs)
                                    ref.seq = seq;
                                page_writes += countPageWrites(
                                    it->second.refs.begin(),
                                    it->second.refs.end());
                                committed.insert(
                                    committed.end(),
                                    it->second.refs.begin(),
                                    it->second.refs.end());
                                recovered_db_size =
                                    it->second.dbSizePages;
                            }
                            _staged.erase(it);
                        }
                    }
                }
            } else {
                pending.push_back(FrameRef{frame_off, page_no, page_off,
                                           size, 0});
                if (commit_word != 0) {
                    // Every frame up to this mark committed together;
                    // a group commit recovers as one sequence, which
                    // is exactly its atomicity unit.
                    mark = true;
                    const CommitSeq seq = ++_commitSeq;
                    for (FrameRef &ref : pending)
                        ref.seq = seq;
                    page_writes +=
                        countPageWrites(pending.begin(), pending.end());
                    committed.insert(committed.end(), pending.begin(),
                                     pending.end());
                    pending.clear();
                    recovered_db_size = static_cast<std::uint32_t>(
                        commit_word & ~kCommitFlag);
                }
            }
            if (mark) {
                any_mark = true;
                last_mark.node = node;
                last_mark.used = pos;
                last_mark.capacity = capacity;
                last_mark.chain = chain;
                last_mark.dbSize = recovered_db_size;
            }
        }
        _nodesSinceCheckpoint++;
        link_field = node;
        node = dev.readU64(node);
    }

    if (any_mark) {
        _tailNode = last_mark.node;
        _tailUsed = last_mark.used;
        // Per-frame (non-user-heap) nodes never accept a second
        // frame, recovered or not.
        _tailCapacity =
            _config.userHeap ? last_mark.capacity : last_mark.used;
        _linkFieldOff = _tailNode;
        _chain = last_mark.chain;
        _dbSizePages = last_mark.dbSize;
        for (const FrameRef &ref : committed)
            indexFrame(ref);
        _framesSinceCheckpoint = committed.size();
        _pageWritesSinceCheckpoint = page_writes;

        // Erase the frame header slot right after the last durable
        // mark. The tail may hold a torn (or merely uncommitted)
        // frame; if it stayed in place and a later append skipped to
        // a fresh node because its frame did not fit here, a future
        // recovery walk would stop on the stale bytes and lose the
        // valid continuation in the following nodes.
        if (_tailUsed + kFrameHeaderSize <= last_mark.capacity) {
            const std::uint8_t zeros[kFrameHeaderSize] = {};
            const NvOffset tail = _tailNode + _tailUsed;
            _pmem.memcpyToNvram(
                tail, ConstByteSpan(zeros, kFrameHeaderSize));
            _pmem.memoryBarrier();
            _pmem.cacheLineFlush(tail, tail + kFrameHeaderSize);
            _pmem.memoryBarrier();
            _pmem.persistBarrier();
        }

        // Free any nodes past the commit point (they hold only
        // uncommitted frames) and cut the chain there.
        NvOffset extra = dev.readU64(_tailNode);
        if (extra != kNullNvOffset) {
            std::vector<NvOffset> tail_nodes;
            NvOffset n = extra;
            while (n != kNullNvOffset &&
                   _heap.blockStateAt(n) == BlockState::InUse) {
                tail_nodes.push_back(n);
                n = dev.readU64(n);
            }
            for (auto it = tail_nodes.rbegin(); it != tail_nodes.rend();
                 ++it) {
                NVWAL_RETURN_IF_ERROR(_heap.nvFree(*it));
            }
            persistU64(_tailNode, kNullNvOffset);
        }
        // The walk counted every node it visited, including the
        // freed tail nodes and any dangling reference it cut off.
        // Recount from the (now truncated) chain so framesPerNode()
        // and the leak invariant see the live node set.
        _nodesSinceCheckpoint = nodeCount();
    } else {
        // No committed transaction: drop the whole chain.
        std::vector<NvOffset> all_nodes;
        NvOffset n = dev.readU64(firstNodeFieldOff());
        while (n != kNullNvOffset &&
               _heap.blockStateAt(n) == BlockState::InUse) {
            all_nodes.push_back(n);
            n = dev.readU64(n);
        }
        for (auto it = all_nodes.rbegin(); it != all_nodes.rend(); ++it)
            NVWAL_RETURN_IF_ERROR(_heap.nvFree(*it));
        persistU64(firstNodeFieldOff(), kNullNvOffset);
        _linkFieldOff = firstNodeFieldOff();
        _nodesSinceCheckpoint = 0;
    }

    _hardenedSeq = _commitSeq;
    *db_size_pages = _dbSizePages;
    _recoverHist.record(_pmem.clock().now() - recover_begin);
    return Status::ok();
}

std::uint64_t
NvwalLog::nodeCount() const
{
    std::uint64_t count = 0;
    NvOffset node = _pmem.device().readU64(firstNodeFieldOff());
    while (node != kNullNvOffset) {
        ++count;
        node = _pmem.device().readU64(node);
    }
    return count;
}

double
NvwalLog::framesPerNode() const
{
    if (_nodesSinceCheckpoint == 0)
        return 0.0;
    return static_cast<double>(_framesSinceCheckpoint) /
           static_cast<double>(_nodesSinceCheckpoint);
}

std::uint64_t
NvwalLog::reachableNvramBlocks() const
{
    if (_headerOff == kNullNvOffset)
        return 0;
    std::uint64_t blocks = _heap.extentBlocksAt(_headerOff);
    NvOffset node = _pmem.device().readU64(firstNodeFieldOff());
    while (node != kNullNvOffset) {
        blocks += _heap.extentBlocksAt(node);
        node = _pmem.device().readU64(node);
    }
    return blocks;
}

} // namespace nvwal
