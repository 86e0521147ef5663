/**
 * @file
 * Persistent NVRAM heap manager, modelled on Heapo (section 3.3).
 *
 * The heap owns the whole NVRAM device and provides:
 *  - a persistent namespace: name -> root offset, so an application
 *    can find its data again after a reboot;
 *  - block allocation with the tri-state flag protocol the paper
 *    builds NVWAL's user-level heap on: @c free, @c pending
 *    (allocated but not yet linked by the application) and
 *    @c in-use;
 *  - crash recovery that reclaims @c pending blocks, preventing
 *    NVRAM leaks when the system dies between allocation and
 *    linking (section 4.3, failure case 1).
 *
 * Every public call charges the cost model's heap-manager call cost
 * (kernel crossing + failure-safe metadata update), which is exactly
 * the overhead NVWAL's user-level heap amortizes away.
 *
 * On-media layout (all fields little-endian):
 *
 *   [0, 4096)              superblock
 *   [descOff, descOff+N)   1 byte per block: 2 state bits + head bit
 *   [nsOff, nsOff+2048)    64 namespace slots x 32 bytes
 *   [dataOff, ...)         block-aligned data region
 */

#ifndef NVWAL_HEAP_NV_HEAP_HPP
#define NVWAL_HEAP_NV_HEAP_HPP

#include <mutex>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pmem/pmem.hpp"

namespace nvwal
{

/** Allocation state of one heap block. */
enum class BlockState : std::uint8_t
{
    Free = 0,
    Pending = 1,
    InUse = 2,
};

/**
 * Persistent heap manager over an NvramDevice.
 *
 * Thread-safety: logs of databases sharing one Env allocate nodes
 * from one heap concurrently, so every public method takes an
 * internal recursive mutex (recover() nests attach()). The heap
 * calls only downward (Pmem, then the device), never back up,
 * keeping the lock order acyclic.
 */
class NvHeap
{
  public:
    static constexpr std::uint64_t kMagic = 0x314f504145'48564eULL;
    static constexpr std::uint32_t kSuperblockSize = 4096;
    static constexpr std::uint32_t kNamespaceSlots = 64;
    static constexpr std::uint32_t kNamespaceNameLen = 24;
    static constexpr std::uint32_t kNamespaceSlotSize = 32;

    explicit NvHeap(Pmem &pmem, MetricsRegistry &stats);

    /** Initialize a fresh heap with the given block size. */
    Status format(std::uint32_t block_size);

    /** Attach to an existing heap (after simulated reboot). */
    Status attach();

    /**
     * Post-crash recovery: reclaim every block left in @c pending
     * state (and orphaned extent continuations). Returns the number
     * of blocks reclaimed through @p reclaimed if non-null.
     */
    Status recover(std::uint64_t *reclaimed = nullptr);

    // ---- allocation ----------------------------------------------

    /** Allocate and mark @c in-use immediately (classic nvmalloc). */
    Status nvMalloc(std::size_t bytes, NvOffset *out);

    /**
     * Allocate in @c pending state; the caller must link the block
     * into its own persistent structure and then call
     * nvSetUsedFlag() (Algorithm 1 lines 5-13).
     */
    Status nvPreMalloc(std::size_t bytes, NvOffset *out);

    /** Transition a @c pending block to @c in-use. */
    Status nvSetUsedFlag(NvOffset off);

    /** Release an allocation (head offset). */
    Status nvFree(NvOffset off);

    // ---- namespace roots ------------------------------------------

    /**
     * Bind @p name to @p off (creating the slot if needed).
     * @p off must be non-zero: offset 0 is the superblock, and a zero
     * root is the "never bound" sentinel getRoot() reports NotFound
     * for (so a torn slot write heals instead of corrupting).
     */
    Status setRoot(std::string_view name, NvOffset off);

    /** Look up @p name; NotFound if it was never (fully) bound. */
    Status getRoot(std::string_view name, NvOffset *out) const;

    // ---- introspection --------------------------------------------

    std::uint32_t blockSize() const { return _blockSize; }
    std::uint32_t numBlocks() const { return _numBlocks; }

    std::uint64_t countBlocks(BlockState state) const;

    /** State of the block containing data offset @p off. */
    BlockState blockStateAt(NvOffset off) const;

    /** Extent size in blocks for the allocation headed at @p off. */
    std::uint32_t extentBlocksAt(NvOffset off) const;

    /** First data offset (for tests asserting layout stability). */
    NvOffset dataOffset() const { return _dataOff; }

  private:
    static constexpr std::uint8_t kStateMask = 0x3;
    static constexpr std::uint8_t kHeadBit = 0x4;

    std::uint32_t blockIndexOf(NvOffset off) const;
    NvOffset blockDataOffset(std::uint32_t idx) const;
    std::uint8_t descByte(std::uint32_t idx) const;
    void writeDescByte(std::uint32_t idx, std::uint8_t value);
    void persistDescRange(std::uint32_t first_idx, std::uint32_t count);
    Status allocate(std::size_t bytes, BlockState state, NvOffset *out);
    void chargeCall();

    Status findNamespaceSlot(std::string_view name,
                             std::uint32_t *slot_out,
                             bool *exists_out) const;

    Pmem &_pmem;
    MetricsRegistry &_stats;
    /** Heap-manager allocation latency (sim ns); registry-owned. */
    Histogram &_allocHist;

    /** Guards all heap state; recursive so recover() can attach(). */
    mutable std::recursive_mutex _mu;

    // Volatile mirror of superblock geometry (rebuilt by attach()).
    std::uint32_t _blockSize = 0;
    std::uint32_t _numBlocks = 0;
    NvOffset _descOff = 0;
    NvOffset _nsOff = 0;
    NvOffset _dataOff = 0;
    std::uint32_t _nextFreeHint = 0;
    bool _attached = false;
};

} // namespace nvwal

#endif // NVWAL_HEAP_NV_HEAP_HPP
