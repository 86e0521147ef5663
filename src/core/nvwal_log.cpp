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
    _headFrames = _headPageWrites = _headNodes = 0;
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
NvwalLog::publishCommitted(std::vector<FrameRef>::iterator begin,
                           std::vector<FrameRef>::iterator end)
{
    const CommitSeq seq = ++_commitSeq;
    for (auto it = begin; it != end; ++it) {
        it->seq = seq;
        indexFrame(*it);
    }
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
    std::uint8_t header[kHeaderBytes];
    std::memset(header, 0, sizeof(header));
    storeU64(header, kMagic);
    storeU32(header + 8, _pageSize);
    storeU32(header + 12, _reservedBytes);
    storeU64(header + 16, 0);                 // checkpoint id
    storeU64(header + 24, kNullNvOffset);     // first node
    storeU64(header + 32, kNullNvOffset);     // segment node
    storeU64(header + 40, 0);                 // segment epoch
    storeU64(header + 48, kNullNvOffset);     // retired-prefix head
    _pmem.memcpyToNvram(_headerOff, ConstByteSpan(header, sizeof(header)));
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(_headerOff, _headerOff + sizeof(header));
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    _checkpointId = _frameEpoch = _segmentEpoch = 0;
    _segmentNode = kNullNvOffset;
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
    _segmentNode = dev.readU64(segmentNodeFieldOff());
    _segmentEpoch = dev.readU64(segmentEpochFieldOff());
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
    if (_switchPending) {
        // The round's switch: record the new segment before linking
        // it. Its epoch is one no frame has carried, so a stale frame
        // in a reused block never validates in it; a record whose
        // node never got linked is cleared by recovery.
        _segmentEpoch = std::max(_segmentEpoch, _checkpointId) + 1;
        persistU64(segmentEpochFieldOff(), _segmentEpoch);
        persistU64(segmentNodeFieldOff(), node);
    }
    persistU64(_linkFieldOff, node);

    NVWAL_RETURN_IF_ERROR(_heap.nvSetUsedFlag(node));

    if (_switchPending) {
        _switchPending = false;
        _segmentNode = node;
        _frameEpoch = _segmentEpoch;
        _chain = CumulativeChecksum(_chainSeed);
        _headFrames = _framesSinceCheckpoint;
        _headPageWrites = _pageWritesSinceCheckpoint;
        _headNodes = _nodesSinceCheckpoint;
        _stats.add(stats::kWalSegmentSwitches);
    }
    _tailNode = node;
    _tailUsed = kNodeHeaderSize;
    _tailCapacity = capacity;
    _linkFieldOff = node;  // next node links at this node's next field
    _nodesSinceCheckpoint++;
    return Status::ok();
}

Status
NvwalLog::freeNodes(NvOffset node, NvOffset stop, std::uint64_t *freed)
{
    const NvramDevice &dev = _pmem.device();
    std::vector<NvOffset> &nodes = _chainScratch;
    nodes.clear();
    while (node != kNullNvOffset && node != stop &&
           _heap.blockStateAt(node) == BlockState::InUse) {
        nodes.push_back(node);
        node = dev.readU64(node);
    }
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it)
        NVWAL_RETURN_IF_ERROR(_heap.nvFree(*it));
    if (freed != nullptr)
        *freed = nodes.size();
    return Status::ok();
}

Status
NvwalLog::freeChain(NvOffset link_field)
{
    NVWAL_RETURN_IF_ERROR(
        freeNodes(_pmem.device().readU64(link_field), kNullNvOffset));
    persistU64(link_field, kNullNvOffset);
    return Status::ok();
}

Status
NvwalLog::finishRetirement(NvOffset head)
{
    // The header points at the segment node, the prefix goes tail
    // first, and the head takes the segment's epoch before the
    // segment record and then the retired-prefix record are cleared.
    // Once the segment record is cleared the rest is done already.
    const NvramDevice &dev = _pmem.device();
    std::uint64_t freed = 0;
    if (_segmentNode != kNullNvOffset) {
        if (dev.readU64(firstNodeFieldOff()) != _segmentNode)
            persistU64(firstNodeFieldOff(), _segmentNode);
        NVWAL_RETURN_IF_ERROR(freeNodes(head, _segmentNode, &freed));
        if (dev.readU64(checkpointIdFieldOff()) != _segmentEpoch)
            persistU64(checkpointIdFieldOff(), _segmentEpoch);
        persistU64(segmentNodeFieldOff(), kNullNvOffset);
        _checkpointId = _segmentEpoch;
        _segmentNode = kNullNvOffset;
    }
    persistU64(retireHeadFieldOff(), kNullNvOffset);
    _stats.add(stats::kWalRetiredPrefixNodes, freed);
    return Status::ok();
}

Status
NvwalLog::retirePrefix()
{
    // The record first: from here on recovery finishes the retirement
    // (the round's fsync already made the prefix redundant).
    const NvOffset head = _pmem.device().readU64(firstNodeFieldOff());
    persistU64(retireHeadFieldOff(), head);
    NVWAL_RETURN_IF_ERROR(finishRetirement(head));
    _framesSinceCheckpoint -= _headFrames;
    _pageWritesSinceCheckpoint -= _headPageWrites;
    _nodesSinceCheckpoint -= _headNodes;
    _headFrames = _headPageWrites = _headNodes = 0;
    return Status::ok();
}

Status
NvwalLog::placeFrame(PageNo page_no, std::uint16_t page_offset,
                     ConstByteSpan payload, NvOffset *frame_off)
{
    NVWAL_ASSERT(!payload.empty() && payload.size() <= _pageSize);
    const std::uint32_t total =
        kFrameHeaderSize + static_cast<std::uint32_t>(payload.size());
    if (needsNode(total)) {
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
    storeU64(header + 16, _frameEpoch);
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
    if (!needsNode(bytes))
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
    std::vector<PendingFrame> &pending = _pendingFrames;
    pending.clear();
    std::uint32_t total = 0;
    for (const FrameWrite &fw : frames) {
        NVWAL_ASSERT(fw.page.size() == _pageSize);
        std::vector<ByteRange> &ranges = _rangeScratch;
        ranges.clear();
        if (_config.diffLogging) {
            NVWAL_ASSERT(fw.ranges != nullptr,
                         "diff logging needs dirty ranges");
            if (_config.diffGranularity == DiffGranularity::MultiRange)
                ranges = fw.ranges->ranges();
            else
                ranges.push_back(fw.ranges->bounding());
            // Adaptive logging granularity (DESIGN.md §14): when the
            // bytes this page would log exceed kAdaptiveFullFramePct
            // percent of the page -- judged by the pager's observed
            // dirty-ratio EWMA when provided, else by this commit
            // alone -- ship ONE full-page frame instead. Same wire format
            // (pageOffset 0, size == page size), but the frame
            // supersedes the page's replay chain: it becomes the
            // full_frame_shortcut anchor every later read starts at.
            bool adaptive_full = false;
            const bool already_full =
                ranges.size() == 1 && ranges[0].lo == 0 &&
                ranges[0].size() == _pageSize;
            if (!already_full) {
                std::uint64_t log_bytes = 0;
                for (const ByteRange &r : ranges)
                    log_bytes += r.size();
                if (log_bytes > 0) {
                    const std::uint64_t pct =
                        fw.observedDirtyPct != 0
                            ? fw.observedDirtyPct
                            : 100 * log_bytes / _pageSize;
                    if (pct > kAdaptiveFullFramePct) {
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
            static_cast<std::uint16_t>(pf.payload.size()), 0,
            _chain.value()});
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

void
NvwalLog::syncRefs(const std::vector<FrameRef> &refs)
{
    if (_config.syncMode != SyncMode::Lazy)
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
    std::vector<std::pair<NvOffset, NvOffset>> &runs = _runScratch;
    runs.clear();
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
    const std::uint64_t flushed_lines = persistRuns(runs);
    _stats.add(stats::kWalFlushRangesCoalesced, inputs - runs.size());
    _stats.add(stats::kPmemFlushLinesDeduped,
               naive_lines - flushed_lines);
    _unhardenedRuns.clear();
    _hardenedSeq = _commitSeq;
}

std::uint64_t
NvwalLog::persistRuns(std::vector<std::pair<NvOffset, NvOffset>> &runs)
{
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

    const std::uint64_t line = _pmem.cost().cacheLineSize;
    std::uint64_t flushed_lines = 0;
    _pmem.memoryBarrier();
    for (const auto &run : runs) {
        flushed_lines += (run.second - run.first) / line;
        _pmem.cacheLineFlush(run.first, run.second);
    }
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    return flushed_lines;
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
    persistRuns(_unhardenedRuns);
    _unhardenedRuns.clear();
    _hardenedSeq = _commitSeq;
    _stats.add(stats::kWalHardenBatches);
    _stats.tracer().complete("wal.harden", "wal", begin);
    return Status::ok();
}

Status
NvwalLog::logGroupFrames(const std::vector<TxnFrames> &txns)
{
    _refs.clear();
    _txnEnd.clear();
    for (const TxnFrames &txn : txns) {
        NVWAL_RETURN_IF_ERROR(logTxnFrames(txn.frames, &_refs));
        _txnEnd.push_back(_refs.size());
    }
    return Status::ok();
}

Status
NvwalLog::writeFrameGroupAsync(const std::vector<TxnFrames> &txns)
{
    // Checksum commit (paper §3.2 / Figure 4(d)) stretched into a
    // durability epoch: append every transaction's frames and set a
    // commit mark per transaction, with no flush or barrier at all.
    // The cumulative checksum chain is what recovery later uses to
    // decide how much of this survived; harden() retires the epoch
    // with one coalesced barrier pair.
    std::vector<FrameRef> &refs = _refs;
    const SimTime log_begin = _pmem.clock().now();
    NVWAL_RETURN_IF_ERROR(logGroupFrames(txns));
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
        const std::size_t end = _txnEnd[t];
        if (end == begin)
            continue;  // a transaction that dirtied nothing
        _pmem.storeU64(refs[end - 1].off + 8,
                       commitWord(refs[end - 1].chain, txns[t].dbSizePages));
        publishCommitted(refs.begin() + begin, refs.begin() + end);
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
    _pmem.storeU64(last.off + 8, commitWord(last.chain, db_size_pages));
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
    // Phase 1 -- log every transaction's frames back to back, each
    // transaction marshalled contiguously. Eager mode still
    // synchronizes per frame; Lazy defers to one barrier pair
    // covering the whole group.
    std::vector<FrameRef> &refs = _refs;
    const SimTime log_begin = _pmem.clock().now();
    NVWAL_RETURN_IF_ERROR(logGroupFrames(txns));
    if (refs.empty()) {
        // Even an all-empty group carries the final database size
        // (same stale-size hazard as an empty single commit).
        if (!txns.empty())
            _dbSizePages = txns.back().dbSizePages;
        return Status::ok();
    }

    syncRefs(refs);
    _stats.tracer().complete("wal.log_write", "wal", log_begin,
                             "frames", refs.size());
    _logWriteHist.record(_pmem.clock().now() - log_begin);

    // An eager-mode commit mark promises everything below it is
    // durable; unhardened async frames chained earlier would break
    // that promise if torn. (Lazy merged them in syncRefs above;
    // ChecksumAsync promises nothing, so it defers as designed.)
    if (_config.syncMode == SyncMode::Eager && !_unhardenedRuns.empty())
        NVWAL_RETURN_IF_ERROR(harden());
    // ChecksumAsync flushes no frame at commit (Figure 4(d)); its
    // ranges wait with the async ones, so the next harden -- a
    // checkpoint runs one before writing back -- makes them durable
    // before any page they hold reaches the .db file.
    if (_config.syncMode == SyncMode::ChecksumAsync)
        for (const FrameRef &ref : refs)
            deferSyncRef(ref);

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
        const std::size_t end = _txnEnd[t];
        if (end == begin)
            continue;  // a transaction that dirtied nothing
        publishCommitted(refs.begin() + begin, refs.begin() + end);
        begin = end;
    }
    // Counted over the whole group, the unit recovery sees: a page
    // that ends one transaction and starts the next is one write.
    noteCommitted(refs.begin(), refs.end());
    _dbSizePages = txns.back().dbSizePages;
    return Status::ok();
}

void
NvwalLog::indexFrame(const FrameRef &ref)
{
    const std::uint64_t nodes_before = _indexPool.liveCount();
    PageEntry &entry = entryFor(ref.pageNo);
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
    if (_indexPool.liveCount() != nodes_before)
        publishIndexGauge();
}

NvwalLog::PageEntry &
NvwalLog::entryFor(PageNo page_no)
{
    if (page_no >= _pageIndex.size())
        _pageIndex.resize(static_cast<std::size_t>(page_no) + 1);
    PageEntry &entry = _pageIndex[page_no];
    if (!entry.listed) {
        entry.listed = true;
        entry.frames.bindPool(&_indexPool);
        _listedPages.push_back(page_no);
    }
    return entry;
}

void
NvwalLog::resetPageIndex()
{
    // Truncation drops every frame at once, so no tree is walked: each
    // listed entry forgets its nodes and the pool takes them all back.
    for (const PageNo page_no : _listedPages) {
        PageEntry &entry = _pageIndex[page_no];
        entry.frames.forget();
        entry.baseSeq = 0;
        entry.listed = false;
    }
    _listedPages.clear();
    _indexPool.releaseAll();
    _indexedFrames = 0;
    publishIndexGauge();
}

void
NvwalLog::unlistEmptyPages()
{
    std::size_t kept = 0;
    for (const PageNo page_no : _listedPages) {
        PageEntry &entry = _pageIndex[page_no];
        if (entry.frames.empty()) {
            entry.frames.clear();
            entry.baseSeq = 0;
            entry.listed = false;
        } else {
            _listedPages[kept++] = page_no;
        }
    }
    _listedPages.resize(kept);
    publishIndexGauge();
}

void
NvwalLog::endRound()
{
    _ckptRoundActive = false;
    _switchPending = false;
    _ckptQueue.clear();
    _ckptQueuePos = 0;
}

void
NvwalLog::publishIndexGauge()
{
    _stats.setGauge(stats::kWalFrameIndexNodes, _indexPool.liveCount());
}

Status
NvwalLog::materializePage(PageNo page_no, ByteSpan out, CommitSeq horizon,
                          CommitSeq *effective_out)
{
    const PageEntry *found = findEntry(page_no);
    if (found == nullptr)
        return Status::notFound("page not in WAL index");
    NVWAL_ASSERT(out.size() == _pageSize);
    const PageEntry &entry = *found;

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
    // A full round is timed from this call, as one sample. A round
    // that earlier steps opened is folded into it: the fresh round's
    // set holds the pages those steps have not written yet and the
    // pages committed since, so one fsync and truncation cover both.
    _ckptBeginNs = _pmem.clock().now();
    endRound();
    bool done = false;
    while (!done) {
        NVWAL_RETURN_IF_ERROR(writeBack(~static_cast<std::uint32_t>(0),
                                        WriteBackMode::Blocking, &done));
    }
    recordCheckpointRound();
    return Status::ok();
}

Status
NvwalLog::checkpointStep(std::uint32_t max_pages, bool *done)
{
    TraceSpan span(_stats.tracer(), "wal.checkpoint_step", "wal");
    NVWAL_RETURN_IF_ERROR(writeBack(max_pages, WriteBackMode::Step, done));
    if (*done)
        recordCheckpointRound();
    return Status::ok();
}

Status
NvwalLog::checkpointPaced(bool *done)
{
    TraceSpan span(_stats.tracer(), "wal.checkpoint", "wal");
    constexpr std::uint32_t kAll = ~static_cast<std::uint32_t>(0);
    // The opener queues the round's whole set on the device; the
    // closer, run once the device has drained, writes whatever a
    // manual step left, fsyncs and retires.
    NVWAL_RETURN_IF_ERROR(writeBack(
        kAll, _ckptRoundActive ? WriteBackMode::Step : WriteBackMode::Queue,
        done));
    if (*done)
        recordCheckpointRound();
    return Status::ok();
}

void
NvwalLog::recordCheckpointRound()
{
    _checkpointHist.record(_pmem.clock().now() - *_ckptBeginNs);
    _ckptBeginNs.reset();
}

Status
NvwalLog::writeBackPage(PageNo page_no, CommitSeq target, bool *wrote)
{
    *wrote = false;
    PageEntry &entry = _pageIndex[page_no];
    CommitSeq effective = entry.frames.newestSeq();
    ConstByteSpan image;
    if (effective != 0 && effective <= target && _committedPageSource)
        image = _committedPageSource(page_no, target);
    if (!image.empty()) {
        _stats.add(stats::kWalCkptPagesFromPager);
    } else {
        const ByteSpan out(_ckptPage.data(), _pageSize);
        image = out;
        const Status read = materializePage(page_no, out, target, &effective);
        if (read.isNotFound()) {
            // The page was born after the clamped horizon; it stays
            // in the log and a later round (once the pin releases)
            // writes it back.
            return Status::ok();
        }
        NVWAL_RETURN_IF_ERROR(read);
    }
    if (effective == entry.baseSeq) {
        // Everything visible at the target is already in the base
        // image (the page's new commits sit past the clamped
        // horizon); nothing to write.
        return Status::ok();
    }
    NVWAL_RETURN_IF_ERROR(_dbFile.writePage(page_no, image));
    _stats.add(stats::kWalCkptPagesWritten);
    if (_ckptLastWritten != kNoPage && page_no > _ckptLastWritten)
        _stats.add(stats::kWalCkptSequentialWrites);
    _ckptLastWritten = page_no;
    // Reclaim the page's written-back frames from the volatile index
    // (the NVRAM bytes stay until truncation): the base image now
    // contains every effect at or below `effective`, and every pinned
    // horizon is >= target >= effective, so no reader can need them.
    // This is what bounds index memory for fully-checkpointed pages
    // between truncations.
    entry.baseSeq = effective;
    const std::uint64_t nodes_before = _indexPool.liveCount();
    _indexedFrames -= entry.frames.pruneThrough(effective);
    if (_indexPool.liveCount() != nodes_before)
        publishIndexGauge();
    *wrote = true;
    return Status::ok();
}

void
NvwalLog::openRound()
{
    // Freeze the round: the pages the log holds now, in ascending
    // page order so the block device sees one sequential sweep
    // (Fig. 8), and the horizon they are written at -- the newest
    // commit, clamped so the base image a pinned reader falls back
    // to never gets ahead of its horizon. Pins taken later sit at or
    // above the round's horizon.
    _ckptQueue.clear();
    _ckptQueuePos = 0;
    for (const PageNo page_no : _listedPages)
        if (!_pageIndex[page_no].frames.empty())
            _ckptQueue.push_back(page_no);
    std::sort(_ckptQueue.begin(), _ckptQueue.end());
    _roundSeq = _commitSeq;
    _roundTarget = std::min(oldestPin(), _commitSeq);
    _ckptLastWritten = kNoPage;
    _ckptRoundActive = true;
    // The switch: commits from here on start a new segment, so the
    // round can retire the old one without catching up with them. A
    // log that already has a second segment (a pin kept it) keeps
    // appending to it.
    _switchPending = _segmentNode == kNullNvOffset;
}

Status
NvwalLog::writeBack(std::uint32_t max_pages, WriteBackMode mode, bool *done)
{
    *done = false;
    const bool wait = mode == WriteBackMode::Blocking;
    if (!_ckptBeginNs)
        _ckptBeginNs = _pmem.clock().now();
    // Write-back must never outrun the durable log: if the .db base
    // advanced past frames that could still tear, a post-crash
    // recovery would mix a newer base with an older log prefix.
    // Harden pending async ranges before touching the file.
    if (!_unhardenedRuns.empty())
        NVWAL_RETURN_IF_ERROR(harden());
    if (!_ckptRoundActive) {
        // Trivially done only when the chain itself is empty: a log
        // can hold zero indexed frames yet still own nodes that a
        // full round must free.
        if (_indexedFrames == 0 && _nodesSinceCheckpoint == 0) {
            *done = true;
            return Status::ok();
        }
        openRound();
    }

    // Reconstruct up to max_pages pages into the .db file's page
    // cache and start their write-out every kWriteOutBatch pages
    // (section 4.3: replaying this after a crash is idempotent
    // because the log is only truncated after the fsync). A page
    // whose newest retained frame is visible at the target is asked
    // of the committed-page source first (the database's page cache,
    // DESIGN.md §16): its image then needs no base read and no
    // replay. Otherwise the page is replayed at the target into a
    // scratch page.
    if (_ckptPage.size() != _pageSize)
        _ckptPage.assign(_pageSize, 0);
    std::uint32_t written = 0;
    while (written < max_pages && _ckptQueuePos < _ckptQueue.size()) {
        const PageNo page_no = _ckptQueue[_ckptQueuePos++];
        bool wrote = false;
        NVWAL_RETURN_IF_ERROR(writeBackPage(page_no, _roundTarget, &wrote));
        if (!wrote)
            continue;
        ++written;
        if (written % kWriteOutBatch == 0) {
            // Bounded batches keep the file system's page cache at
            // one chunk. A blocking round waits for each batch, so
            // its copies and programs stay serial, as in one fsync.
            NVWAL_RETURN_IF_ERROR(_dbFile.startWriteOut());
            if (wait)
                _dbFile.waitWriteOut();
        }
    }
    if (_ckptQueuePos < _ckptQueue.size() || mode == WriteBackMode::Queue) {
        // More steps required: start the write-out of what this step
        // wrote, so the device programs it while commits go on.
        // Intermediate write-backs are safe because replaying the
        // (still intact) log is idempotent.
        NVWAL_RETURN_IF_ERROR(_dbFile.startWriteOut());
        if (wait)
            _dbFile.waitWriteOut();
        return Status::ok();
    }
    NVWAL_RETURN_IF_ERROR(closeRound());
    *done = true;
    return Status::ok();
}

Status
NvwalLog::closeRound()
{
    NVWAL_RETURN_IF_ERROR(_dbFile.sync());
    const bool appended = _commitSeq != _roundSeq;
    endRound();
    if (_roundTarget < _roundSeq) {
        // A pinned snapshot sat below the round's horizon, so frames
        // past the target must survive; the round ends with the base
        // file advanced to the target but the log retained. A later
        // round truncates once the pin releases.
        _stats.add(stats::kCheckpointsPinBlocked);
        return Status::ok();
    }
    _retiredSeq = _roundSeq;
    _stats.add(stats::kCheckpoints);
    if (appended) {
        // Commits since the open sit in the second segment; the head
        // segment holds nothing the .db file now lacks.
        NVWAL_RETURN_IF_ERROR(retirePrefix());
        unlistEmptyPages();
        return Status::ok();
    }
    // Nothing was appended since the open: truncate the whole log.
    // Open a new checkpoint epoch *before* truncating: every logged
    // frame carries the epoch id, so bumping it atomically
    // invalidates the whole log. Without this, a crash midway
    // through freeing the nodes (tail first, section 4.3) would
    // leave a valid *prefix* of frames, and replaying old diffs on
    // top of the already-checkpointed pages would revert the
    // transactions whose frames were freed. The new epoch also
    // passes any a second segment's frames carried.
    _checkpointId = std::max(_checkpointId, _frameEpoch) + 1;
    _frameEpoch = _checkpointId;
    persistU64(checkpointIdFieldOff(), _checkpointId);

    // Truncate the NVRAM log: free nodes from the end of the list to
    // the beginning (section 4.3), then clear the head pointer.
    NVWAL_RETURN_IF_ERROR(freeChain(firstNodeFieldOff()));
    if (_segmentNode != kNullNvOffset) {
        _segmentNode = kNullNvOffset;
        persistU64(segmentNodeFieldOff(), kNullNvOffset);
    }

    // Every page's frames are gone and the .db file holds its newest
    // image, so the whole volatile index goes with them.
    resetPageIndex();
    resetSinceCheckpoint();
    _tailNode = kNullNvOffset;
    _tailUsed = 0;
    _tailCapacity = 0;
    _linkFieldOff = firstNodeFieldOff();
    return Status::ok();
}

Status
NvwalLog::recover(std::uint32_t *db_size_pages)
{
    TraceSpan span(_stats.tracer(), "wal.recover", "wal");
    const SimTime recover_begin = _pmem.clock().now();
    *db_size_pages = 0;
    resetPageIndex();
    endRound();
    _ckptBeginNs.reset();
    resetSinceCheckpoint();
    _retiredSeq = 0;
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

    // A segment retirement the crash interrupted: its round had
    // fsynced, so finish it (DESIGN.md §8.4).
    const NvOffset retire_head = dev.readU64(retireHeadFieldOff());
    if (retire_head != kNullNvOffset)
        NVWAL_RETURN_IF_ERROR(finishRetirement(retire_head));
    // A segment record is live only while its epoch is ahead of the
    // head's: a whole-log truncation raises the head past it before
    // it frees the nodes.
    if (_segmentEpoch <= _checkpointId)
        _segmentNode = kNullNvOffset;
    bool segment_live = false;

    // Walk the node chain, validating the frame checksum chain.
    // Frames after the last valid commit mark belong to a unit that
    // never became durable and are discarded; the tail restores at
    // that mark.
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
    bool mark_in_segment = false;
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
    std::uint64_t epoch = _checkpointId;
    while (node != kNullNvOffset) {
        if (node == _segmentNode && _heap.blockStateAt(node) ==
                                        BlockState::InUse) {
            // The second segment: a fresh epoch and a chain restarted
            // at the seed. What the head segment committed is what a
            // retirement would subtract.
            segment_live = true;
            epoch = _segmentEpoch;
            chain = CumulativeChecksum(_chainSeed);
            discard_prev_chain = _chainSeed;
            _headFrames = committed.size();
            _headPageWrites = page_writes;
            _headNodes = _nodesSinceCheckpoint;
        }
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
                ckpt_id != epoch) {
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
            pending.push_back(FrameRef{frame_off, page_no, page_off,
                                       size, 0, stored_chain});
            if (isCommitMark(commit_word, stored_chain)) {
                // Every frame up to this mark committed together; a
                // group commit recovers as one sequence, which is
                // exactly its atomicity unit.
                const CommitSeq seq = ++_commitSeq;
                for (FrameRef &ref : pending)
                    ref.seq = seq;
                page_writes +=
                    countPageWrites(pending.begin(), pending.end());
                committed.insert(committed.end(), pending.begin(),
                                 pending.end());
                pending.clear();
                any_mark = true;
                mark_in_segment = segment_live;
                last_mark.node = node;
                last_mark.used = pos;
                last_mark.capacity = capacity;
                last_mark.chain = chain;
                last_mark.dbSize = static_cast<std::uint32_t>(commit_word);
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
        if (dev.readU64(_tailNode) != kNullNvOffset)
            NVWAL_RETURN_IF_ERROR(freeChain(_tailNode));
        // The walk counted every node it visited, including the
        // freed tail nodes and any dangling reference it cut off.
        // Recount from the (now truncated) chain so framesPerNode()
        // and the leak invariant see the live node set.
        _nodesSinceCheckpoint = nodeCount();
    } else {
        // No committed transaction: drop the whole chain.
        NVWAL_RETURN_IF_ERROR(freeChain(firstNodeFieldOff()));
        _linkFieldOff = firstNodeFieldOff();
        _nodesSinceCheckpoint = 0;
    }
    if (!mark_in_segment) {
        // No commit survived in the second segment (or it was never
        // linked): its nodes are gone with the uncommitted tail, so
        // drop the record. Its epoch stays the high-water mark, so
        // the next segment's frames never match a stale one's.
        _headFrames = _headPageWrites = _headNodes = 0;
        if (dev.readU64(segmentNodeFieldOff()) != kNullNvOffset)
            persistU64(segmentNodeFieldOff(), kNullNvOffset);
        _segmentNode = kNullNvOffset;
    }
    _frameEpoch =
        _segmentNode != kNullNvOffset ? _segmentEpoch : _checkpointId;

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
