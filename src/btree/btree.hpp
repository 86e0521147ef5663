/**
 * @file
 * A B+-tree over the pager, keyed by 64-bit rowids with blob values
 * (the shape of a SQLite table keyed by rowid).
 *
 * Properties chosen to match the behaviour the paper measures:
 *  - the root lives at a fixed page number (2) and never moves; a
 *    root split copies the old root into a fresh page;
 *  - inserts append at the downward content frontier of a leaf
 *    (small dirty ranges), deletes compact the content area (large
 *    dirty ranges), updates are remove+insert, mirroring SQLite's
 *    cell management (Table 2's insert/update/delete asymmetry);
 *  - no merge-on-delete rebalancing (SQLite reclaims space through
 *    the freelist/vacuum; for the paper's workloads the difference
 *    is immaterial, and validate() accepts underfull pages).
 */

#ifndef NVWAL_BTREE_BTREE_HPP
#define NVWAL_BTREE_BTREE_HPP

#include <functional>
#include <optional>

#include "btree/page_view.hpp"
#include "pager/page_source.hpp"

namespace nvwal
{

/** Counters maintained by the tree (test/bench introspection). */
struct BTreeCounters
{
    std::uint64_t splits = 0;
    std::uint64_t pagesAllocated = 0;
};

/** Rowid-keyed B+-tree. */
class BTree
{
  public:
    /** Visit callback for scans; return false to stop early. */
    using ScanCallback = std::function<bool(RowId, ConstByteSpan)>;

    /**
     * @param root Root page of this tree; stays fixed for the
     *        tree's lifetime (root splits copy into fresh pages).
     *        Defaults to the source's primary root (page 2).
     *
     * The tree mutates only through the PageSource; handed a
     * read-only source (SnapshotCache) it serves lookups and scans,
     * and a write that needs a page allocated or freed fails with
     * Unsupported.
     */
    explicit BTree(PageSource &pager, PageNo root = kNoPage);

    PageNo rootPage() const { return _root; }

    /** Insert a new record; fails with InvalidArgument on duplicate. */
    Status insert(RowId key, ConstByteSpan value);

    /** Replace an existing record's value; NotFound if absent. */
    Status update(RowId key, ConstByteSpan value);

    /** Delete a record; NotFound if absent. */
    Status remove(RowId key);

    /** Fetch a record's value; NotFound if absent. */
    Status get(RowId key, ByteBuffer *out);

    /** Existence check without copying the value. */
    bool contains(RowId key);

    /** Visit records with lo <= key <= hi in ascending key order. */
    Status scan(RowId lo, RowId hi, const ScanCallback &visit);

    /** Number of records in the tree. */
    Status count(std::uint64_t *out);

    /** Height of the tree (1 = root leaf). */
    Status depth(std::uint32_t *out);

    /**
     * Full structural validation: per-page invariants, uniform leaf
     * depth, key-range containment at every level.
     */
    Status validate();

    /**
     * Release every page of this tree (including the root) back to
     * the pager's free list. The tree must not be used afterwards.
     * Used by Database::dropTable().
     */
    Status destroy();

    const BTreeCounters &counters() const { return _counters; }

    /** Largest value size insert() accepts for this page geometry. */
    std::uint32_t maxValueSize() const;

    /**
     * Bumped on every mutation; open cursors compare it to detect
     * invalidation.
     */
    std::uint64_t modificationCount() const { return _version; }

  private:
    friend class Cursor;

    struct SplitInfo
    {
        RowId sepKey;
        PageNo right;
    };

    PageView viewOf(CachedPage &page);

    /**
     * Encode @p value as a leaf cell, spilling anything beyond the
     * local-payload limit to a freshly allocated overflow chain.
     */
    Status encodeLeafCell(RowId key, ConstByteSpan value, LeafCell *out);

    /** Assemble a cell's full value (local payload + chain). */
    Status readLeafValue(PageView &view, int idx, ByteBuffer *out);

    /** Return a cell's overflow pages to the free list. */
    Status freeOverflowChain(PageNo first);

    Status insertRec(PageNo page_no, RowId key, const LeafCell &cell,
                     std::optional<SplitInfo> *split);
    Status splitLeaf(CachedPage &page, int insert_idx,
                     const LeafCell &cell, SplitInfo *split);
    Status splitInterior(CachedPage &page,
                         std::vector<InteriorCell> cells,
                         PageNo right_child, SplitInfo *split);
    Status removeRec(PageNo page_no, RowId key);
    Status findLeaf(RowId key, CachedPage **leaf, int *idx, bool *found);
    Status scanRec(PageNo page_no, RowId lo, RowId hi,
                   const ScanCallback &visit, bool *keep_going);
    Status countRec(PageNo page_no, std::uint64_t *out);
    Status validateRec(PageNo page_no, bool has_lo, RowId lo,
                       bool has_hi, RowId hi, std::uint32_t depth,
                       std::uint32_t *leaf_depth);
    Status destroyRec(PageNo page_no);

    PageSource &_pager;
    PageNo _root;
    BTreeCounters _counters;
    std::uint64_t _version = 0;
};

} // namespace nvwal

#endif // NVWAL_BTREE_BTREE_HPP
