#include "nv_heap.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

namespace
{

// Superblock field offsets.
constexpr NvOffset kMagicOff = 0;
constexpr NvOffset kBlockSizeOff = 8;
constexpr NvOffset kNumBlocksOff = 16;
constexpr NvOffset kDescOffOff = 24;
constexpr NvOffset kNsOffOff = 32;
constexpr NvOffset kDataOffOff = 40;

} // namespace

NvHeap::NvHeap(Pmem &pmem, MetricsRegistry &stats)
    : _pmem(pmem), _stats(stats),
      _allocHist(stats.histogram(stats::kHistHeapAllocNs))
{}

void
NvHeap::chargeCall()
{
    // Kernel crossing + failure-safe bookkeeping inside the manager.
    // The metadata flush traffic is charged on top through the Pmem
    // primitives in the individual operations.
    _stats.add(stats::kHeapCalls);
    _stats.add(stats::kTimeHeapNs, _pmem.cost().heapCallNs);
    _pmem.clock().advance(_pmem.cost().heapCallNs);
}

Status
NvHeap::format(std::uint32_t block_size)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    if (block_size == 0 || (block_size & (block_size - 1)) != 0)
        return Status::invalidArgument("block size must be a power of two");

    NvramDevice &dev = _pmem.device();
    const std::size_t dev_size = dev.size();
    if (dev_size < 64 * 1024)
        return Status::invalidArgument("device too small for a heap");

    // Geometry: superblock, descriptor table, namespace table, data.
    const NvOffset desc_off = kSuperblockSize;
    // Upper bound on block count ignoring metadata, then shrink.
    std::uint64_t blocks = dev_size / block_size;
    NvOffset ns_off = 0;
    NvOffset data_off = 0;
    while (blocks > 0) {
        ns_off = alignUp(desc_off + blocks, 64);
        data_off = alignUp(ns_off + kNamespaceSlots * kNamespaceSlotSize,
                           block_size);
        if (data_off + blocks * block_size <= dev_size)
            break;
        --blocks;
    }
    if (blocks == 0)
        return Status::invalidArgument("device too small for a heap");

    _blockSize = block_size;
    _numBlocks = static_cast<std::uint32_t>(blocks);
    _descOff = desc_off;
    _nsOff = ns_off;
    _dataOff = data_off;
    _nextFreeHint = 0;

    // Zero descriptor + namespace tables, then publish the
    // superblock; ordering matters so a torn format is detectable
    // (the magic is written and persisted last).
    const ByteBuffer zeros(_numBlocks, 0);
    _pmem.memcpyToNvram(_descOff, ConstByteSpan(zeros.data(), zeros.size()));
    const ByteBuffer ns_zeros(kNamespaceSlots * kNamespaceSlotSize, 0);
    _pmem.memcpyToNvram(_nsOff,
                        ConstByteSpan(ns_zeros.data(), ns_zeros.size()));

    std::uint8_t super[48];
    std::memset(super, 0, sizeof(super));
    storeU64(super + kBlockSizeOff, _blockSize);
    storeU64(super + kNumBlocksOff, _numBlocks);
    storeU64(super + kDescOffOff, _descOff);
    storeU64(super + kNsOffOff, _nsOff);
    storeU64(super + kDataOffOff, _dataOff);
    _pmem.memcpyToNvram(0, ConstByteSpan(super, sizeof(super)));

    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(0, _nsOff + ns_zeros.size());
    _pmem.memoryBarrier();
    _pmem.persistBarrier();

    _pmem.storeU64(kMagicOff, kMagic);
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(kMagicOff, kMagicOff + 8);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();

    _attached = true;
    return Status::ok();
}

Status
NvHeap::attach()
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NvramDevice &dev = _pmem.device();
    if (dev.size() < kSuperblockSize)
        return Status::corruption("device smaller than a superblock");
    if (dev.readU64(kMagicOff) != kMagic)
        return Status::corruption("heap magic mismatch");

    _blockSize = static_cast<std::uint32_t>(dev.readU64(kBlockSizeOff));
    _numBlocks = static_cast<std::uint32_t>(dev.readU64(kNumBlocksOff));
    _descOff = dev.readU64(kDescOffOff);
    _nsOff = dev.readU64(kNsOffOff);
    _dataOff = dev.readU64(kDataOffOff);

    if (_blockSize == 0 || (_blockSize & (_blockSize - 1)) != 0 ||
        _numBlocks == 0 ||
        _dataOff + static_cast<NvOffset>(_numBlocks) * _blockSize >
            dev.size()) {
        return Status::corruption("heap superblock geometry invalid");
    }
    _nextFreeHint = 0;
    _attached = true;
    return Status::ok();
}

Status
NvHeap::recover(std::uint64_t *reclaimed)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    if (!_attached)
        NVWAL_RETURN_IF_ERROR(attach());

    std::uint64_t count = 0;
    std::uint32_t idx = 0;
    while (idx < _numBlocks) {
        const std::uint8_t d = descByte(idx);
        const auto state = static_cast<BlockState>(d & kStateMask);
        const bool head = (d & kHeadBit) != 0;

        // Orphaned continuation: a non-free block that is not a head
        // and does not continue a live extent (can only appear if a
        // crash hit the middle of an allocation's metadata update).
        const bool orphan_continuation =
            state != BlockState::Free && !head &&
            (idx == 0 ||
             (descByte(idx - 1) & kStateMask) ==
                 static_cast<std::uint8_t>(BlockState::Free));

        if ((head && state == BlockState::Pending) || orphan_continuation) {
            // Reclaim the whole extent starting here.
            std::uint32_t extent = 1;
            while (idx + extent < _numBlocks) {
                const std::uint8_t n = descByte(idx + extent);
                if ((n & kStateMask) ==
                        static_cast<std::uint8_t>(BlockState::Free) ||
                    (n & kHeadBit) != 0) {
                    break;
                }
                ++extent;
            }
            for (std::uint32_t i = 0; i < extent; ++i)
                writeDescByte(idx + i, 0);
            persistDescRange(idx, extent);
            count += extent;
            idx += extent;
        } else {
            ++idx;
        }
    }
    if (reclaimed != nullptr)
        *reclaimed = count;
    return Status::ok();
}

std::uint32_t
NvHeap::blockIndexOf(NvOffset off) const
{
    NVWAL_ASSERT(off >= _dataOff && (off - _dataOff) % _blockSize == 0,
                 "offset %llu is not a block data offset",
                 static_cast<unsigned long long>(off));
    const std::uint64_t idx = (off - _dataOff) / _blockSize;
    NVWAL_ASSERT(idx < _numBlocks, "block index out of range");
    return static_cast<std::uint32_t>(idx);
}

NvOffset
NvHeap::blockDataOffset(std::uint32_t idx) const
{
    return _dataOff + static_cast<NvOffset>(idx) * _blockSize;
}

std::uint8_t
NvHeap::descByte(std::uint32_t idx) const
{
    std::uint8_t b;
    _pmem.device().read(_descOff + idx, ByteSpan(&b, 1));
    return b;
}

void
NvHeap::writeDescByte(std::uint32_t idx, std::uint8_t value)
{
    // Through Pmem, not the raw device: hardware persistency models
    // (section 4.4) must see this store, since the explicit flush in
    // persistDescRange() compiles away under them.
    _pmem.memcpyToNvram(_descOff + idx, ConstByteSpan(&value, 1));
}

void
NvHeap::persistDescRange(std::uint32_t first_idx, std::uint32_t count)
{
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(_descOff + first_idx,
                         _descOff + first_idx + count);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
}

Status
NvHeap::allocate(std::size_t bytes, BlockState state, NvOffset *out)
{
    NVWAL_ASSERT(_attached, "heap not attached");
    if (bytes == 0)
        return Status::invalidArgument("zero-byte allocation");
    const std::uint32_t want = static_cast<std::uint32_t>(
        (bytes + _blockSize - 1) / _blockSize);

    // First-fit scan from the hint, wrapping once.
    std::uint32_t run = 0;
    std::uint32_t run_start = 0;
    bool found = false;
    for (std::uint32_t probe = 0; probe < 2 * _numBlocks; ++probe) {
        const std::uint32_t idx =
            (_nextFreeHint + probe) % _numBlocks;
        if (idx == 0 && run > 0 && probe > 0) {
            // Extents must be physically contiguous; reset at wrap.
            run = 0;
        }
        if ((descByte(idx) & kStateMask) ==
            static_cast<std::uint8_t>(BlockState::Free)) {
            if (run == 0)
                run_start = idx;
            if (++run == want) {
                found = true;
                break;
            }
        } else {
            run = 0;
        }
    }
    if (!found)
        return Status::noSpace("NVRAM heap exhausted");

    // Crash-safe ordering: publish continuation bytes first, persist,
    // then the head byte, persist. A crash in between leaves
    // head-less continuations that recover() reclaims.
    const std::uint8_t state_bits = static_cast<std::uint8_t>(state);
    if (want > 1) {
        for (std::uint32_t i = 1; i < want; ++i)
            writeDescByte(run_start + i, state_bits);
        persistDescRange(run_start + 1, want - 1);
    }
    writeDescByte(run_start, state_bits | kHeadBit);
    persistDescRange(run_start, 1);

    _nextFreeHint = (run_start + want) % _numBlocks;
    _stats.add(stats::kHeapBlocksAllocated, want);
    *out = blockDataOffset(run_start);
    return Status::ok();
}

Status
NvHeap::nvMalloc(std::size_t bytes, NvOffset *out)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    TraceSpan span(_stats.tracer(), "heap.nvmalloc", "heap", "bytes",
                   bytes);
    const SimTime begin = _pmem.clock().now();
    chargeCall();
    Status s = allocate(bytes, BlockState::InUse, out);
    _allocHist.record(_pmem.clock().now() - begin);
    return s;
}

Status
NvHeap::nvPreMalloc(std::size_t bytes, NvOffset *out)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    TraceSpan span(_stats.tracer(), "heap.nvpremalloc", "heap", "bytes",
                   bytes);
    const SimTime begin = _pmem.clock().now();
    chargeCall();
    Status s = allocate(bytes, BlockState::Pending, out);
    _allocHist.record(_pmem.clock().now() - begin);
    return s;
}

Status
NvHeap::nvSetUsedFlag(NvOffset off)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    TraceSpan span(_stats.tracer(), "heap.set_used_flag", "heap");
    chargeCall();
    const std::uint32_t idx = blockIndexOf(off);
    const std::uint8_t d = descByte(idx);
    if ((d & kHeadBit) == 0)
        return Status::invalidArgument("not an allocation head");
    if ((d & kStateMask) != static_cast<std::uint8_t>(BlockState::Pending))
        return Status::invalidArgument("block is not pending");

    const std::uint32_t extent = extentBlocksAt(off);
    for (std::uint32_t i = 1; i < extent; ++i) {
        writeDescByte(idx + i,
                      static_cast<std::uint8_t>(BlockState::InUse));
    }
    writeDescByte(idx,
                  static_cast<std::uint8_t>(BlockState::InUse) | kHeadBit);
    persistDescRange(idx, extent);
    return Status::ok();
}

Status
NvHeap::nvFree(NvOffset off)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    TraceSpan span(_stats.tracer(), "heap.nvfree", "heap");
    return freeExtents(std::span<const NvOffset>(&off, 1));
}

void
NvHeap::persistDescRuns(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &runs)
{
    const std::uint32_t line = _pmem.cost().cacheLineSize;
    _pmem.memoryBarrier();
    std::size_t i = 0;
    while (i < runs.size()) {
        const std::uint32_t first = runs[i].first;
        std::uint32_t end = runs[i].second;
        // A gap under a line costs less to flush than another call.
        while (++i < runs.size() && runs[i].first < end + line)
            end = std::max(end, runs[i].second);
        _pmem.cacheLineFlush(_descOff + first, _descOff + end);
    }
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
}

Status
NvHeap::nvFreeBatch(const std::vector<NvOffset> &heads)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    if (heads.empty())
        return Status::ok();
    TraceSpan span(_stats.tracer(), "heap.nvfree_batch", "heap", "extents",
                   heads.size());
    return freeExtents(heads);
}

Status
NvHeap::freeExtents(std::span<const NvOffset> heads)
{
    chargeCall();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &extents =
        _batchExtents;
    extents.clear();
    for (const NvOffset off : heads) {
        const std::uint32_t idx = blockIndexOf(off);
        const std::uint8_t d = descByte(idx);
        if ((d & kHeadBit) == 0 ||
            (d & kStateMask) == static_cast<std::uint8_t>(BlockState::Free)) {
            return Status::invalidArgument("not a live allocation head");
        }
        extents.emplace_back(idx, extentBlocksAt(off));
    }
    std::sort(extents.begin(), extents.end());

    // Every head first, so a crash mid-free leaves head-less
    // continuations (reclaimed by recover()) rather than a live
    // extent with freed continuations...
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &runs = _batchRuns;
    runs.clear();
    for (const auto &[idx, blocks] : extents) {
        writeDescByte(idx, 0);
        runs.emplace_back(idx, idx + 1);
    }
    persistDescRuns(runs);
    // ... then the continuations of every multi-block extent.
    runs.clear();
    for (const auto &[idx, blocks] : extents) {
        for (std::uint32_t i = 1; i < blocks; ++i)
            writeDescByte(idx + i, 0);
        if (blocks > 1)
            runs.emplace_back(idx + 1, idx + blocks);
    }
    if (!runs.empty())
        persistDescRuns(runs);
    _nextFreeHint = std::min(_nextFreeHint, extents.front().first);
    _stats.add(stats::kHeapExtentsFreed, extents.size());
    return Status::ok();
}

std::uint64_t
NvHeap::countBlocks(BlockState state) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < _numBlocks; ++i) {
        if ((descByte(i) & kStateMask) == static_cast<std::uint8_t>(state))
            ++n;
    }
    return n;
}

BlockState
NvHeap::blockStateAt(NvOffset off) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    const std::uint32_t idx = blockIndexOf(off);
    return static_cast<BlockState>(descByte(idx) & kStateMask);
}

std::uint32_t
NvHeap::extentBlocksAt(NvOffset off) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    const std::uint32_t idx = blockIndexOf(off);
    NVWAL_ASSERT((descByte(idx) & kHeadBit) != 0,
                 "extent query on non-head block");
    std::uint32_t extent = 1;
    while (idx + extent < _numBlocks) {
        const std::uint8_t d = descByte(idx + extent);
        if ((d & kStateMask) ==
                static_cast<std::uint8_t>(BlockState::Free) ||
            (d & kHeadBit) != 0) {
            break;
        }
        ++extent;
    }
    return extent;
}

Status
NvHeap::findNamespaceSlot(std::string_view name, std::uint32_t *slot_out,
                          bool *exists_out) const
{
    if (name.empty() || name.size() >= kNamespaceNameLen)
        return Status::invalidArgument("namespace name length");

    std::uint32_t free_slot = kNamespaceSlots;
    for (std::uint32_t slot = 0; slot < kNamespaceSlots; ++slot) {
        std::uint8_t entry[kNamespaceSlotSize];
        _pmem.device().read(_nsOff + slot * kNamespaceSlotSize,
                            ByteSpan(entry, sizeof(entry)));
        if (entry[0] == 0) {
            if (free_slot == kNamespaceSlots)
                free_slot = slot;
            continue;
        }
        const std::size_t len =
            strnlen(reinterpret_cast<const char *>(entry),
                    kNamespaceNameLen);
        if (len == name.size() &&
            std::memcmp(entry, name.data(), len) == 0) {
            *slot_out = slot;
            *exists_out = true;
            return Status::ok();
        }
    }
    if (free_slot == kNamespaceSlots)
        return Status::noSpace("namespace table full");
    *slot_out = free_slot;
    *exists_out = false;
    return Status::ok();
}

Status
NvHeap::setRoot(std::string_view name, NvOffset off)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(_attached, "heap not attached");
    if (off == 0)
        return Status::invalidArgument("root offset 0 is reserved");
    chargeCall();
    std::uint32_t slot;
    bool exists;
    NVWAL_RETURN_IF_ERROR(findNamespaceSlot(name, &slot, &exists));

    const NvOffset entry_off = _nsOff + slot * kNamespaceSlotSize;
    if (!exists) {
        // Fresh slot: publish the root offset *before* the name. The
        // slot only becomes visible once the name's first byte lands
        // (findNamespaceSlot treats entry[0] == 0 as free), so a
        // crash between the two barriers leaves an unbound slot
        // instead of a bound name whose root still reads 0 -- a state
        // that used to make the next recovery read offset 0 (the heap
        // superblock) as application data and fail with corruption.
        _pmem.storeU64(entry_off + kNamespaceNameLen, off);
        _pmem.memoryBarrier();
        _pmem.cacheLineFlush(entry_off + kNamespaceNameLen,
                             entry_off + kNamespaceSlotSize);
        _pmem.memoryBarrier();
        _pmem.persistBarrier();

        std::uint8_t name_buf[kNamespaceNameLen];
        std::memset(name_buf, 0, sizeof(name_buf));
        std::memcpy(name_buf, name.data(), name.size());
        _pmem.memcpyToNvram(entry_off,
                            ConstByteSpan(name_buf, sizeof(name_buf)));
        _pmem.memoryBarrier();
        _pmem.cacheLineFlush(entry_off, entry_off + kNamespaceNameLen);
        _pmem.memoryBarrier();
        _pmem.persistBarrier();
        return Status::ok();
    }
    // Existing slot: the root offset is a single 8-byte atomic store.
    _pmem.storeU64(entry_off + kNamespaceNameLen, off);
    _pmem.memoryBarrier();
    _pmem.cacheLineFlush(entry_off + kNamespaceNameLen,
                         entry_off + kNamespaceSlotSize);
    _pmem.memoryBarrier();
    _pmem.persistBarrier();
    return Status::ok();
}

Status
NvHeap::getRoot(std::string_view name, NvOffset *out) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    NVWAL_ASSERT(_attached, "heap not attached");
    std::uint32_t slot;
    bool exists;
    NVWAL_RETURN_IF_ERROR(findNamespaceSlot(name, &slot, &exists));
    if (!exists)
        return Status::notFound("namespace not bound");
    std::uint8_t buf[8];
    _pmem.device().read(
        _nsOff + slot * kNamespaceSlotSize + kNamespaceNameLen,
        ByteSpan(buf, 8));
    *out = loadU64(buf);
    // Offset 0 is the heap superblock and can never be a legal root:
    // a zero here means the slot's name landed but its root did not
    // (an adversarial crash can persist the two 8-byte units of the
    // slot independently even with the offset published first).
    // Report the binding as absent so the caller re-initializes.
    if (*out == 0)
        return Status::notFound("namespace root unset");
    return Status::ok();
}

} // namespace nvwal
