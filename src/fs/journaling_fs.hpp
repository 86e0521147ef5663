/**
 * @file
 * A small journaling file system model in the style of EXT4 ordered
 * mode, sufficient to reproduce the I/O behaviour the paper measures
 * for file-based SQLite WAL (sections 1, 5.4, Figure 8):
 *
 *  - data is buffered in a volatile page cache until fsync();
 *  - fsync() writes the file's dirty data blocks, then commits a
 *    journal transaction for the dirty metadata: a descriptor block,
 *    the inode-table block (size/mtime always change), block-bitmap
 *    and group-descriptor blocks when the file grew, and a commit
 *    block. This is the "16 KB + 4 KB of journal traffic per 4 KB
 *    WAL append" pathology of stock SQLite WAL, and the traffic
 *    that log-page pre-allocation (fallocate) reduces by ~40%;
 *  - startWriteOut() queues a file's dirty data blocks on the
 *    device's timeline without waiting (sync_file_range with
 *    SYNC_FILE_RANGE_WRITE); fsync() then waits only for the queued
 *    programs that have not completed;
 *  - crash() drops everything not yet made durable by fsync(). A
 *    written-out block that completed is on media whether or not an
 *    fsync followed; the device settles the ones in flight.
 *
 * Files are flat names; there are no directories. Blocks are
 * allocated from a simple free list. A block a truncate frees stays
 * with its file until the file's next fsync journals the change, so
 * a crash before it can never hand a still-durable block out twice;
 * crash() rebuilds the free list from the durable inodes. The
 * journal occupies a dedicated block range so traces show it as a
 * separate band.
 *
 * The volatile page cache (DESIGN.md §20) is one store of block-sized
 * slots over fixed-size chunks, allocated on demand and reused across
 * fsyncs (an fsync or write-out that leaves the cache empty trims it
 * to the chunks the busiest moment since the last trim needed); each inode maps its
 * dirty file blocks to slots through a flat table, so a steady-state
 * write or fsync never reaches the allocator.
 */

#ifndef NVWAL_FS_JOURNALING_FS_HPP
#define NVWAL_FS_JOURNALING_FS_HPP

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/status.hpp"

namespace nvwal
{

/**
 * EXT4-ordered-mode-like file system over a BlockDevice.
 *
 * Thread-safety: every public method takes an internal recursive
 * mutex; databases sharing one Env write their .db files through
 * one file system. The fs locks before calling down into the
 * BlockDevice, never the reverse.
 */
class JournalingFs
{
  public:
    /**
     * @param journal_blocks Size of the journal region; journal
     *        writes cycle through it (like a real EXT4 journal).
     */
    JournalingFs(BlockDevice &device, SimClock &clock,
                 const CostModel &cost, MetricsRegistry &stats,
                 std::uint64_t journal_blocks = 256);

    /** Create an empty file. Fails if it already exists. */
    Status create(const std::string &name);

    bool exists(const std::string &name) const;

    /** Size in bytes (0 for missing files). */
    std::uint64_t fileSize(const std::string &name) const;

    /** Allocated size in bytes (>= fileSize after fallocate). */
    std::uint64_t allocatedSize(const std::string &name) const;

    /**
     * Write @p data at byte offset @p off, extending the file and
     * allocating blocks as needed. Buffered until fsync().
     */
    Status pwrite(const std::string &name, std::uint64_t off,
                  ConstByteSpan data);

    /** Read @p out.size() bytes at @p off (short reads are errors). */
    Status pread(const std::string &name, std::uint64_t off,
                 ByteSpan out);

    /**
     * Pre-allocate blocks up to @p size bytes without changing the
     * file size (the WALDIO-style optimization of section 5.4).
     */
    Status fallocate(const std::string &name, std::uint64_t size);

    /**
     * Flush data and journal the metadata (ordered mode), after
     * waiting for every block program a write-out queued.
     */
    Status fsync(const std::string &name);

    /**
     * Start write-out of @p name's dirty data blocks: queue them on
     * the device in ascending file-block order and hand their
     * page-cache slots back, without advancing the clock. Size and
     * allocation changes stay dirty until the next fsync().
     */
    Status startWriteOut(const std::string &name);

    /** Whether programs a write-out queued are still in flight. */
    bool writeOutBusy() const { return _device.busy(); }

    /** Wait until every program a write-out queued has completed. */
    void waitWriteOut() { _device.drain(); }

    /** Page-cache chunks held right now; test introspection. */
    std::size_t
    cacheChunks() const
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        return _slotChunks.size();
    }

    /** Shrink or grow the file size (grow leaves a hole of zeros). */
    Status truncate(const std::string &name, std::uint64_t size);

    Status remove(const std::string &name);

    /**
     * Atomically rename @p from to @p to, replacing any existing
     * @p to (POSIX rename semantics). The rename is journaled and
     * durable on return; the file's *data* durability still follows
     * its last fsync.
     */
    Status rename(const std::string &from, const std::string &to);

    /** Drop all volatile state, as if power was lost. */
    void crash();

    /**
     * Fault injection (tests only): fail the next @p count pread()
     * calls with an I/O error before touching the device. Pass 0 to
     * clear a pending injection.
     */
    void injectReadFaults(std::uint64_t count);

    /** Tag used for a file's data writes, derived from its suffix. */
    static IoTag tagForFile(const std::string &name);

    // ---- state snapshot / restore (crash-sweep harness) ------------

    struct Snapshot;

    /** Capture all file-system state, volatile and durable. */
    Snapshot snapshot() const;

    /** Restore a snapshot taken on this file system. */
    void restore(const Snapshot &snap);

  private:
    static constexpr std::uint32_t kNoSlot = 0;

    struct Inode
    {
        std::uint64_t size = 0;
        std::vector<BlockNo> blocks;     //!< one entry per file block
        /**
         * Per file block: its page-cache slot + 1, or kNoSlot when the
         * block is clean. Sized with blocks.
         */
        std::vector<std::uint32_t> dirtySlot;
        /** File blocks that hold a slot, in the order they got one. */
        std::vector<std::uint64_t> dirtyBlocks;
        /** Blocks a truncate freed, returned at the next fsync. */
        std::vector<BlockNo> pendingFree;
        bool metaDirty = false;          //!< size/mtime changed
        bool allocDirty = false;         //!< blocks allocated/freed
    };

    Status ensureBlocks(Inode &inode, std::uint64_t file_blocks);
    BlockNo allocBlock();
    void journalCommit(bool alloc_dirty);
    Inode *find(const std::string &name);
    const Inode *find(const std::string &name) const;

    /** Cached bytes of page-cache slot @p slot (0-based). */
    std::uint8_t *
    slotData(std::uint32_t slot) const
    {
        return _slotChunks[slot / kSlotsPerChunk].get() +
               static_cast<std::size_t>(slot % kSlotsPerChunk) *
                   _device.blockSize();
    }

    /** What a new page-cache slot starts with. */
    enum class Fill
    {
        Undefined,  //!< the caller overwrites the whole block
        Load,       //!< the block's device image (read-modify-write)
        Zero,       //!< zeros: the block holds no file data yet
    };

    /**
     * The cached bytes of @p inode's block @p blk, taking a slot when
     * the block is clean and filling a new slot per @p fill.
     */
    std::uint8_t *dirtyBlock(Inode &inode, std::uint64_t blk, Fill fill);

    /**
     * Grow @p inode to @p size bytes that read as zeros, zeroed in
     * the page cache from the old end on.
     */
    Status zeroGrow(Inode &inode, std::uint64_t size);

    /** Return every slot of @p inode's dirty blocks to the store. */
    void dropDirty(Inode &inode);

    /** Free @p inode's blocks, held ones included (remove/rename). */
    void freeInodeBlocks(Inode &inode);

    /** Hand every slot back at once; no inode may hold one. */
    void resetSlots();

    /**
     * Once no slot is in use: keep only the chunks the busiest moment
     * since the last trim needed, so one outsized write-back (a bulk
     * load's first checkpoint) does not pin its cache for good.
     */
    void trimSlots();

    BlockDevice &_device;
    SimClock &_clock;
    const CostModel &_cost;
    MetricsRegistry &_stats;

    /** Guards all fs state; recursive for nested public calls. */
    mutable std::recursive_mutex _mu;

    std::uint64_t _journalBlocks;
    std::uint64_t _journalHead = 0;  //!< next journal block (cycled)
    BlockNo _nextDataBlock;          //!< bump allocator frontier
    std::vector<BlockNo> _freeList;

    std::uint64_t _readFaultsLeft = 0;  //!< injected pread failures

    /**
     * Slots per page-cache chunk (64 KiB at 4 KiB blocks): small
     * enough that retained chunks follow the need closely.
     */
    static constexpr std::uint32_t kSlotsPerChunk = 16;
    /** Page-cache chunks; never moved, freed only by trimSlots(). */
    std::vector<std::unique_ptr<std::uint8_t[]>> _slotChunks;
    std::uint32_t _slotsUsed = 0;            //!< bump frontier
    std::vector<std::uint32_t> _freeSlots;   //!< released below it
    std::uint32_t _slotsPeak = 0;            //!< most in use since trim
    /** One block of scratch for partial-block reads. */
    ByteBuffer _blockScratch;
    /** One zeroed block, the journal's descriptor/meta/commit image. */
    ByteBuffer _zeroBlock;

    std::map<std::string, Inode> _files;
    /** Durable image, replaced at each fsync; crash() restores it. */
    struct DurableInode
    {
        std::uint64_t size = 0;
        std::vector<BlockNo> blocks;
    };
    std::map<std::string, DurableInode> _durableFiles;
};

/**
 * Complete JournalingFs state: inodes with a copy of their buffered
 * dirty data, the durable inode images, and the allocator frontier.
 * Paired with a BlockDevice snapshot this reproduces the exact
 * on-media + in-cache file-system state of the capture point.
 */
struct JournalingFs::Snapshot
{
    struct File
    {
        std::uint64_t size = 0;
        std::vector<BlockNo> blocks;
        std::vector<BlockNo> pendingFree;
        /** Dirty file blocks in slot order, and their bytes. */
        std::vector<std::uint64_t> dirtyBlocks;
        std::vector<ByteBuffer> dirtyData;
        bool metaDirty = false;
        bool allocDirty = false;
    };

    std::uint64_t journalHead = 0;
    BlockNo nextDataBlock = 0;
    std::vector<BlockNo> freeList;
    std::map<std::string, File> files;
    std::map<std::string, DurableInode> durableFiles;
};

} // namespace nvwal

#endif // NVWAL_FS_JOURNALING_FS_HPP
