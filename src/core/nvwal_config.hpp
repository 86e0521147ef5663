/**
 * @file
 * Configuration of the NVWAL scheme variants evaluated in the paper
 * (Figure 7's legend): synchronization mode x differential logging x
 * user-level heap.
 */

#ifndef NVWAL_CORE_NVWAL_CONFIG_HPP
#define NVWAL_CORE_NVWAL_CONFIG_HPP

#include <cstdint>
#include <string>

namespace nvwal
{

/** How log writes are synchronized to NVRAM (section 4). */
enum class SyncMode
{
    /**
     * Eager: cache-line flush + barriers + persist barrier after
     * every WAL frame's memcpy (Figure 4(b), configuration 'E').
     */
    Eager,
    /**
     * Transaction-aware lazy synchronization: one batched
     * flush/fence/persist sequence between the logging phase and the
     * commit-mark phase (Figure 4(c), Algorithm 1 -- the paper's
     * recommended scheme).
     */
    Lazy,
    /**
     * Asynchronous commit: frames are not flushed at all; only the
     * commit mark + cumulative checksum line is flushed and
     * persisted. Probabilistically consistent (Figure 4(d),
     * section 4.2 -- 'CS' in Figure 7).
     */
    ChecksumAsync,
};

/** How a dirty page is turned into differential WAL frames. */
enum class DiffGranularity
{
    /**
     * One frame per page covering the bounding dirty range, i.e.
     * "truncate the preceding and trailing clean regions" -- the
     * paper's formulation (section 3.2). The paper-reproduction
     * setting: the benches that reproduce the paper's frames per
     * 8 KB block, Table 2 and Figure 7 select it explicitly.
     */
    SingleRange,
    /**
     * One frame per disjoint dirty range (the default): a B-tree
     * insert dirties the header/pointer area and the appended cell
     * but not the clean span between them, so multi-range frames log
     * -- and flush -- considerably fewer bytes (DESIGN.md §15).
     */
    MultiRange,
};

/** NVWAL scheme knobs. */
struct NvwalConfig
{
    SyncMode syncMode = SyncMode::Lazy;

    /** Byte-granularity differential logging (section 3.2). */
    bool diffLogging = true;

    /** Frame granularity used when diffLogging is on. */
    DiffGranularity diffGranularity = DiffGranularity::MultiRange;

    /**
     * User-level heap management (section 3.3): pre-allocate
     * nvBlockSize-byte NVRAM blocks with the pending/in-use protocol
     * and bump-allocate frames inside them. When false, every frame
     * allocates its own NVRAM block via nvmalloc() (the 'LS'
     * baseline of Figure 7).
     */
    bool userHeap = true;

    /** User-heap block size (8 KB in the paper's experiments). */
    std::uint32_t nvBlockSize = 8192;

    /**
     * Adaptive logging granularity (DESIGN.md §14), active when
     * diffLogging is on: a page whose logged bytes would exceed this
     * percentage of the page size -- judged by the pager's observed
     * dirty-ratio EWMA (FrameWrite::observedDirtyPct) when provided,
     * else by the commit's own ratio -- ships as ONE full-page frame
     * instead of byte diffs. The frame is format-compatible
     * (pageOffset 0, size == page size) and doubles as a
     * full_frame_shortcut anchor that truncates the page's replay
     * chain. 0 disables the heuristic (always diff).
     */
    std::uint32_t adaptiveFullFrameThresholdPct = 50;

    /**
     * NvHeap namespace the log's header root is published under.
     * Every log sharing one heap needs a distinct name (the sharded
     * engine binds "nvwal-s00", "nvwal-s01", ... -- DESIGN.md §10);
     * the default keeps single-database media layouts unchanged.
     * Must fit NvHeap::kNamespaceNameLen.
     */
    std::string heapNamespace = "nvwal";

    /** Scheme label matching the paper's legend, e.g. "UH+LS+Diff". */
    std::string schemeName() const;
};

} // namespace nvwal

#endif // NVWAL_CORE_NVWAL_CONFIG_HPP
