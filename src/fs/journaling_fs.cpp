#include "journaling_fs.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

JournalingFs::JournalingFs(BlockDevice &device, SimClock &clock,
                           const CostModel &cost, MetricsRegistry &stats,
                           std::uint64_t journal_blocks)
    : _device(device), _clock(clock), _cost(cost), _stats(stats),
      _journalBlocks(journal_blocks), _nextDataBlock(journal_blocks)
{
    NVWAL_ASSERT(journal_blocks < device.numBlocks(),
                 "journal larger than device");
}

IoTag
JournalingFs::tagForFile(const std::string &name)
{
    auto ends_with = [&](const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with("-wal") || ends_with(".wal"))
        return IoTag::WalFile;
    if (ends_with(".db"))
        return IoTag::DbFile;
    return IoTag::Other;
}

JournalingFs::Inode *
JournalingFs::find(const std::string &name)
{
    auto it = _files.find(name);
    return it == _files.end() ? nullptr : &it->second;
}

const JournalingFs::Inode *
JournalingFs::find(const std::string &name) const
{
    auto it = _files.find(name);
    return it == _files.end() ? nullptr : &it->second;
}

Status
JournalingFs::create(const std::string &name)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    if (find(name) != nullptr)
        return Status::invalidArgument("file exists: " + name);
    _files[name] = Inode{};
    _files[name].metaDirty = true;
    return Status::ok();
}

bool
JournalingFs::exists(const std::string &name) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    return find(name) != nullptr;
}

std::uint64_t
JournalingFs::fileSize(const std::string &name) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    const Inode *inode = find(name);
    return inode == nullptr ? 0 : inode->size;
}

std::uint64_t
JournalingFs::allocatedSize(const std::string &name) const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    const Inode *inode = find(name);
    return inode == nullptr
               ? 0
               : inode->blocks.size() *
                     static_cast<std::uint64_t>(_device.blockSize());
}

BlockNo
JournalingFs::allocBlock()
{
    if (!_freeList.empty()) {
        const BlockNo b = _freeList.back();
        _freeList.pop_back();
        return b;
    }
    NVWAL_ASSERT(_nextDataBlock < _device.numBlocks(),
                 "file system full");
    return _nextDataBlock++;
}

Status
JournalingFs::ensureBlocks(Inode &inode, std::uint64_t file_blocks)
{
    while (inode.blocks.size() < file_blocks) {
        inode.blocks.push_back(allocBlock());
        inode.allocDirty = true;
    }
    if (inode.dirtySlot.size() < inode.blocks.size())
        inode.dirtySlot.resize(inode.blocks.size(), kNoSlot);
    return Status::ok();
}

std::uint8_t *
JournalingFs::dirtyBlock(Inode &inode, std::uint64_t blk, Fill fill)
{
    std::uint32_t &entry = inode.dirtySlot[blk];
    if (entry != kNoSlot)
        return slotData(entry - 1);
    std::uint32_t slot;
    if (!_freeSlots.empty()) {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    } else {
        if (_slotsUsed == _slotChunks.size() * kSlotsPerChunk) {
            _slotChunks.push_back(
                std::make_unique_for_overwrite<std::uint8_t[]>(
                    static_cast<std::size_t>(kSlotsPerChunk) *
                    _device.blockSize()));
        }
        slot = _slotsUsed++;
    }
    entry = slot + 1;
    _slotsPeak = std::max(
        _slotsPeak,
        _slotsUsed - static_cast<std::uint32_t>(_freeSlots.size()));
    inode.dirtyBlocks.push_back(blk);
    std::uint8_t *data = slotData(slot);
    if (fill == Fill::Load) {
        _device.readBlock(inode.blocks[blk],
                          ByteSpan(data, _device.blockSize()));
    } else if (fill == Fill::Zero) {
        std::memset(data, 0, _device.blockSize());
    }
    return data;
}

void
JournalingFs::dropDirty(Inode &inode)
{
    for (const std::uint64_t blk : inode.dirtyBlocks) {
        _freeSlots.push_back(inode.dirtySlot[blk] - 1);
        inode.dirtySlot[blk] = kNoSlot;
    }
    inode.dirtyBlocks.clear();
}

void
JournalingFs::freeInodeBlocks(Inode &inode)
{
    dropDirty(inode);
    for (BlockNo b : inode.blocks)
        _freeList.push_back(b);
    for (BlockNo b : inode.pendingFree)
        _freeList.push_back(b);
    inode.blocks.clear();
    inode.pendingFree.clear();
}

void
JournalingFs::resetSlots()
{
    _slotsUsed = 0;
    _freeSlots.clear();
}

void
JournalingFs::trimSlots()
{
    if (_freeSlots.size() != _slotsUsed)
        return;
    const std::size_t keep =
        (_slotsPeak + kSlotsPerChunk - 1) / kSlotsPerChunk;
    if (_slotChunks.size() > keep)
        _slotChunks.resize(keep);
    resetSlots();
    _slotsPeak = 0;
}

Status
JournalingFs::pwrite(const std::string &name, std::uint64_t off,
                     ConstByteSpan data)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    settleSyncs();
    Inode *inode = find(name);
    if (inode == nullptr) {
        NVWAL_RETURN_IF_ERROR(create(name));
        inode = find(name);
    }
    const std::uint32_t bs = _device.blockSize();
    const std::uint64_t end = off + data.size();
    // A write past the end of the file leaves a hole that reads as
    // zeros, never as what a deleted file left on the device.
    if (off > inode->size)
        NVWAL_RETURN_IF_ERROR(zeroGrow(*inode, off));
    NVWAL_RETURN_IF_ERROR(ensureBlocks(*inode, (end + bs - 1) / bs));

    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::uint64_t file_off = off + pos;
        const std::uint64_t blk = file_off / bs;
        const std::uint32_t in_blk =
            static_cast<std::uint32_t>(file_off % bs);
        const std::size_t chunk =
            std::min<std::size_t>(bs - in_blk, data.size() - pos);

        // Read-modify-write of a partially overwritten clean block;
        // one wholly past the end of the file holds no file data, so
        // it starts from zeros.
        const Fill fill = chunk == bs               ? Fill::Undefined
                          : blk * bs >= inode->size ? Fill::Zero
                                                    : Fill::Load;
        std::uint8_t *block = dirtyBlock(*inode, blk, fill);
        std::memcpy(block + in_blk, data.data() + pos, chunk);
        pos += chunk;
    }
    if (end > inode->size) {
        inode->size = end;
        inode->metaDirty = true;
    } else {
        // mtime still changes; EXT4 dirties the inode either way.
        inode->metaDirty = true;
    }
    return Status::ok();
}

Status
JournalingFs::pread(const std::string &name, std::uint64_t off,
                    ByteSpan out)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    if (_readFaultsLeft > 0) {
        _readFaultsLeft--;
        return Status::ioError("injected read fault: " + name);
    }
    const Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    if (off + out.size() > inode->size)
        return Status::invalidArgument("read past end of file");

    const std::uint32_t bs = _device.blockSize();
    std::size_t pos = 0;
    while (pos < out.size()) {
        const std::uint64_t file_off = off + pos;
        const std::uint64_t blk = file_off / bs;
        const std::uint32_t in_blk =
            static_cast<std::uint32_t>(file_off % bs);
        const std::size_t chunk =
            std::min<std::size_t>(bs - in_blk, out.size() - pos);

        const std::uint32_t slot = inode->dirtySlot[blk];
        if (slot != kNoSlot) {
            std::memcpy(out.data() + pos, slotData(slot - 1) + in_blk,
                        chunk);
        } else if (chunk == bs) {
            _device.readBlock(inode->blocks[blk], out.subspan(pos, bs));
        } else {
            _blockScratch.resize(bs);
            _device.readBlock(inode->blocks[blk],
                              ByteSpan(_blockScratch.data(), bs));
            std::memcpy(out.data() + pos, _blockScratch.data() + in_blk,
                        chunk);
        }
        pos += chunk;
    }
    return Status::ok();
}

Status
JournalingFs::fallocate(const std::string &name, std::uint64_t size)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    settleSyncs();
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    const std::uint32_t bs = _device.blockSize();
    return ensureBlocks(*inode, (size + bs - 1) / bs);
}

void
JournalingFs::journalCommit(bool alloc_dirty, bool queued)
{
    // Ordered-mode journal transaction: descriptor, the dirtied
    // metadata blocks, then the commit block. The inode table block
    // is always dirty (size/mtime); allocation additionally dirties
    // the block bitmap and the group descriptor.
    std::uint64_t meta_blocks = 1;  // inode table
    if (alloc_dirty)
        meta_blocks += 2;           // block bitmap + group descriptor

    const std::uint32_t bs = _device.blockSize();
    _zeroBlock.resize(bs, 0);
    const std::uint64_t total = 1 + meta_blocks + 1;  // desc + meta + commit
    for (std::uint64_t i = 0; i < total; ++i) {
        const BlockNo jb = _journalHead % _journalBlocks;
        _journalHead++;
        const ConstByteSpan image(_zeroBlock.data(), bs);
        if (queued)
            _device.queueBlock(jb, image, IoTag::Journal);
        else
            _device.writeBlock(jb, image, IoTag::Journal);
    }
}

void
JournalingFs::settleSyncs()
{
    const SimTime now = _clock.now();
    std::size_t applied = 0;
    for (; applied < _syncs.size() && _syncs[applied].doneNs <= now;
         ++applied) {
        PendingSync &sync = _syncs[applied];
        DurableInode &durable = _durableFiles[sync.name];
        durable.size = sync.size;
        durable.blocks = sync.blocks;
        _freeList.insert(_freeList.end(), sync.freed.begin(),
                         sync.freed.end());
        _stats.add(stats::kFsyncs);
        _stats.add(stats::kFsSyncsApplied);
    }
    _syncs.erase(_syncs.begin(),
                 _syncs.begin() + static_cast<std::ptrdiff_t>(applied));
}

void
JournalingFs::waitSyncLocked(const std::string &name)
{
    settleSyncs();
    for (const PendingSync &sync : _syncs) {
        if (sync.name == name) {
            // Syncs complete in the order they started; once the
            // device drains, every one has.
            _device.drain(stats::kBlockdevFsyncWaitNs);
            settleSyncs();
            return;
        }
    }
}

Status
JournalingFs::fsync(const std::string &name)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);

    // startSync()'s queue, waited for: what a write-out or a sync
    // queued ahead of it completes first, and a sync in flight is
    // applied before this one.
    queueSync(name, *inode);
    _device.drain(stats::kBlockdevFsyncWaitNs);
    settleSyncs();
    _freeList.insert(_freeList.end(), inode->pendingFree.begin(),
                     inode->pendingFree.end());
    inode->pendingFree.clear();
    _stats.add(stats::kFsyncs);

    // Assigned in place, so the durable block list keeps its capacity.
    DurableInode &durable = _durableFiles[name];
    durable.size = inode->size;
    durable.blocks = inode->blocks;
    return Status::ok();
}

std::size_t
JournalingFs::queueDirty(const std::string &name, Inode &inode)
{
    const IoTag tag = tagForFile(name);
    const std::uint32_t bs = _device.blockSize();
    std::sort(inode.dirtyBlocks.begin(), inode.dirtyBlocks.end());
    for (const std::uint64_t blk : inode.dirtyBlocks) {
        _device.queueBlock(
            inode.blocks[blk],
            ConstByteSpan(slotData(inode.dirtySlot[blk] - 1), bs), tag);
    }
    const std::size_t queued = inode.dirtyBlocks.size();
    dropDirty(inode);
    trimSlots();
    return queued;
}

SimTime
JournalingFs::queueSync(const std::string &name, Inode &inode)
{
    // Ordered mode: data first, in ascending file-block order, then
    // the journaled metadata transaction, then the device cache
    // flush barrier.
    queueDirty(name, inode);
    if (inode.metaDirty || inode.allocDirty)
        journalCommit(inode.allocDirty, true);
    inode.metaDirty = false;
    inode.allocDirty = false;
    return _device.queueFlush(_cost.fsyncBaseNs);
}

Status
JournalingFs::startWriteOut(const std::string &name)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    const std::size_t queued = queueDirty(name, *inode);
    if (queued != 0)
        _stats.add(stats::kFsBlocksWrittenOut, queued);
    return Status::ok();
}

Status
JournalingFs::startSync(const std::string &name, SimTime *done_ns)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    settleSyncs();
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    const std::size_t data = inode->dirtyBlocks.size();
    const std::uint64_t journal = _journalHead;

    PendingSync sync;
    sync.name = name;
    sync.size = inode->size;
    sync.blocks = inode->blocks;
    sync.doneNs = queueSync(name, *inode);
    sync.freed.swap(inode->pendingFree);
    _stats.add(stats::kFsBlocksWrittenOut, data + (_journalHead - journal));
    if (done_ns != nullptr)
        *done_ns = sync.doneNs;
    _syncs.push_back(std::move(sync));
    _stats.add(stats::kFsSyncsStarted);
    return Status::ok();
}

Status
JournalingFs::waitSync(const std::string &name, bool *clean)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    const Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    waitSyncLocked(name);
    *clean = inode->dirtyBlocks.empty() && !inode->metaDirty &&
             !inode->allocDirty && inode->pendingFree.empty();
    return Status::ok();
}

Status
JournalingFs::zeroGrow(Inode &inode, std::uint64_t size)
{
    // The new range reads as zeros. Zero it in the page cache from
    // the old end on; that covers bytes an earlier shrink cut off and
    // blocks a fallocate left unwritten.
    const std::uint32_t bs = _device.blockSize();
    const std::uint64_t blocks = (size + bs - 1) / bs;
    NVWAL_RETURN_IF_ERROR(ensureBlocks(inode, blocks));
    for (std::uint64_t blk = inode.size / bs; blk < blocks; ++blk) {
        const std::uint32_t from =
            blk == inode.size / bs
                ? static_cast<std::uint32_t>(inode.size % bs)
                : 0;
        const Fill fill = from != 0 ? Fill::Load : Fill::Undefined;
        std::memset(dirtyBlock(inode, blk, fill) + from, 0, bs - from);
    }
    inode.size = size;
    return Status::ok();
}

Status
JournalingFs::truncate(const std::string &name, std::uint64_t size)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    settleSyncs();
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    const std::uint32_t bs = _device.blockSize();
    const std::uint64_t keep_blocks = (size + bs - 1) / bs;
    if (size > inode->size)
        NVWAL_RETURN_IF_ERROR(zeroGrow(*inode, size));
    // The durable inode still owns the freed blocks until the next
    // fsync journals the truncation; only then may another file get
    // them.
    while (inode->blocks.size() > keep_blocks) {
        inode->pendingFree.push_back(inode->blocks.back());
        inode->blocks.pop_back();
        inode->allocDirty = true;
    }
    std::size_t kept = 0;
    for (const std::uint64_t blk : inode->dirtyBlocks) {
        if (blk < keep_blocks) {
            inode->dirtyBlocks[kept++] = blk;
            continue;
        }
        _freeSlots.push_back(inode->dirtySlot[blk] - 1);
        inode->dirtySlot[blk] = kNoSlot;
    }
    inode->dirtyBlocks.resize(kept);
    if (inode->dirtySlot.size() > inode->blocks.size())
        inode->dirtySlot.resize(inode->blocks.size());
    inode->size = size;
    inode->metaDirty = true;
    return Status::ok();
}

Status
JournalingFs::remove(const std::string &name)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Inode *inode = find(name);
    if (inode == nullptr)
        return Status::notFound("no such file: " + name);
    // The removal journals after the file's sync in flight.
    waitSyncLocked(name);
    freeInodeBlocks(*inode);
    _files.erase(name);
    _durableFiles.erase(name);
    journalCommit(true);
    return Status::ok();
}

Status
JournalingFs::rename(const std::string &from, const std::string &to)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Inode *src = find(from);
    if (src == nullptr)
        return Status::notFound("no such file: " + from);
    if (from == to)
        return Status::ok();
    // The rename journals after the syncs in flight of both names.
    waitSyncLocked(from);
    waitSyncLocked(to);
    Inode *dst = find(to);
    if (dst != nullptr) {
        freeInodeBlocks(*dst);
        _files.erase(to);
    }
    _files[to] = std::move(*find(from));
    _files.erase(from);
    journalCommit(true);

    // The directory update is durable once the journal commits; the
    // file's durable *content* carries over from its last fsync.
    _durableFiles.erase(to);
    auto dit = _durableFiles.find(from);
    if (dit != _durableFiles.end()) {
        _durableFiles[to] = std::move(dit->second);
        _durableFiles.erase(dit);
    }
    return Status::ok();
}

void
JournalingFs::injectReadFaults(std::uint64_t count)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    _readFaultsLeft = count;
}

void
JournalingFs::crash()
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    // A sync whose flush completed by now is durable; the rest never
    // happened, whichever of their blocks the device let land.
    settleSyncs();
    _syncs.clear();
    _files.clear();
    resetSlots();
    // Every data block below the allocator frontier that no durable
    // inode owns is free again: blocks allocated since the last fsync
    // would otherwise leak, and the durable inodes still own what an
    // unjournaled truncate gave up.
    std::vector<bool> owned(_nextDataBlock, false);
    for (const auto &[name, dur] : _durableFiles) {
        Inode inode;
        inode.size = dur.size;
        inode.blocks = dur.blocks;
        inode.dirtySlot.assign(dur.blocks.size(), kNoSlot);
        for (const BlockNo b : dur.blocks)
            owned[b] = true;
        _files[name] = std::move(inode);
    }
    // Descending, so allocBlock() (which pops the back) hands out the
    // lowest free block first.
    _freeList.clear();
    for (BlockNo b = _nextDataBlock; b-- > _journalBlocks;)
        if (!owned[b])
            _freeList.push_back(b);
}

JournalingFs::Snapshot
JournalingFs::snapshot() const
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    Snapshot snap;
    snap.journalHead = _journalHead;
    snap.nextDataBlock = _nextDataBlock;
    snap.freeList = _freeList;
    const std::uint32_t bs = _device.blockSize();
    for (const auto &[name, inode] : _files) {
        Snapshot::File file;
        file.size = inode.size;
        file.blocks = inode.blocks;
        file.pendingFree = inode.pendingFree;
        file.dirtyBlocks = inode.dirtyBlocks;
        for (const std::uint64_t blk : inode.dirtyBlocks) {
            const std::uint8_t *data = slotData(inode.dirtySlot[blk] - 1);
            file.dirtyData.emplace_back(data, data + bs);
        }
        file.metaDirty = inode.metaDirty;
        file.allocDirty = inode.allocDirty;
        snap.files.emplace(name, std::move(file));
    }
    snap.durableFiles = _durableFiles;
    const SimTime now = _clock.now();
    for (const PendingSync &sync : _syncs) {
        PendingSync &saved = snap.syncs.emplace_back(sync);
        saved.doneNs = sync.doneNs > now ? sync.doneNs - now : 0;
    }
    return snap;
}

void
JournalingFs::restore(const Snapshot &snap)
{
    std::lock_guard<std::recursive_mutex> g(_mu);
    _journalHead = snap.journalHead;
    _nextDataBlock = snap.nextDataBlock;
    _freeList = snap.freeList;
    _files.clear();
    resetSlots();
    const std::uint32_t bs = _device.blockSize();
    for (const auto &[name, file] : snap.files) {
        Inode inode;
        inode.size = file.size;
        inode.blocks = file.blocks;
        inode.dirtySlot.assign(file.blocks.size(), kNoSlot);
        inode.pendingFree = file.pendingFree;
        inode.metaDirty = file.metaDirty;
        inode.allocDirty = file.allocDirty;
        for (std::size_t i = 0; i < file.dirtyBlocks.size(); ++i) {
            std::memcpy(dirtyBlock(inode, file.dirtyBlocks[i],
                                   Fill::Undefined),
                        file.dirtyData[i].data(), bs);
        }
        _files.emplace(name, std::move(inode));
    }
    _durableFiles = snap.durableFiles;
    const SimTime now = _clock.now();
    _syncs = snap.syncs;
    for (PendingSync &sync : _syncs)
        sync.doneNs += now;
}

} // namespace nvwal
