/**
 * @file
 * PageSource: the page-access surface the B-tree runs on.
 *
 * Two implementations exist:
 *  - Pager: the shared read-write DRAM cache over the database file
 *    and the WAL (the single writer and everything engine-internal
 *    run on it);
 *  - SnapshotCache (src/db/snapshot_cache.hpp): a private
 *    copy-on-read cache that resolves pages as of one pinned commit
 *    horizon (each open read transaction owns one, so concurrent
 *    readers never contend on shared cache state). Its subclass
 *    MwWorkspace, an optimistic write transaction's cache, adds page
 *    allocation.
 *
 * Mutating calls (allocatePage/freePage) default to Unsupported so
 * read-only sources only implement the lookup path; a B-tree given a
 * read-only source can serve get/scan/count/validate, and a write
 * that needs a page allocated or freed surfaces the error as a
 * Status, not a crash (one that fits its leaf changes only the
 * source's private copy).
 */

#ifndef NVWAL_PAGER_PAGE_SOURCE_HPP
#define NVWAL_PAGER_PAGE_SOURCE_HPP

#include "common/status.hpp"
#include "common/types.hpp"
#include "pager/dirty_ranges.hpp"

namespace nvwal
{

/** One page resident in a page cache. */
struct CachedPage
{
    ByteBuffer buf;
    DirtyRanges dirty;
    /**
     * Observed dirty ratio (percent) smoothed across this page's
     * commits; 0 until the first commit. Feeds the WAL's adaptive
     * diff-vs-full-page frame decision via
     * FrameWrite::observedDirtyPct.
     */
    std::uint8_t dirtyPctEwma = 0;

    bool isDirty() const { return !dirty.empty(); }

    /**
     * Fold the current dirty ranges into the EWMA (half old, half
     * current; seeded by the first observation) and return it.
     * Called once per commit while the ranges are still populated.
     */
    std::uint8_t
    noteDirtyRatio()
    {
        if (buf.empty() || dirty.empty())
            return dirtyPctEwma;
        std::uint64_t pct =
            (100 * dirty.totalBytes() + buf.size() - 1) / buf.size();
        if (pct > 100)
            pct = 100;
        dirtyPctEwma = static_cast<std::uint8_t>(
            dirtyPctEwma == 0 ? pct : (dirtyPctEwma + pct + 1) / 2);
        return dirtyPctEwma;
    }

    ByteSpan span() { return ByteSpan(buf.data(), buf.size()); }
    ConstByteSpan cspan() const
    { return ConstByteSpan(buf.data(), buf.size()); }
};

/** Interface the B-tree (and its cursors) reads and writes through. */
class PageSource
{
  public:
    virtual ~PageSource() = default;

    /** Fetch a page into the cache and return the cached entry. */
    virtual Status getPage(PageNo page_no, CachedPage **out) = 0;

    virtual std::uint32_t pageSize() const = 0;

    /** Bytes of a page usable by the B-tree (pageSize - reserved). */
    virtual std::uint32_t usableSize() const = 0;

    /** Root page of the default table's tree. */
    virtual PageNo rootPage() const = 0;

    /**
     * Allocate a zeroed, fully-dirty page. Read-only sources reject
     * with Unsupported.
     */
    virtual Status
    allocatePage(CachedPage **out, PageNo *page_no)
    {
        (void)out;
        (void)page_no;
        return Status::unsupported("read-only page source");
    }

    /** Return @p page_no to the free list. Read-only sources reject. */
    virtual Status
    freePage(PageNo page_no)
    {
        (void)page_no;
        return Status::unsupported("read-only page source");
    }
};

} // namespace nvwal

#endif // NVWAL_PAGER_PAGE_SOURCE_HPP
