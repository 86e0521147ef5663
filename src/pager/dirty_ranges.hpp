/**
 * @file
 * Per-page dirty byte-range tracking for differential logging.
 *
 * The paper's byte-granularity differential logging (section 3.2)
 * "truncates the preceding and trailing clean regions" of a dirty
 * B-tree page and logs only the dirty portions. We track a small set
 * of disjoint [lo, hi) ranges per cached page: B-tree mutations mark
 * the bytes they touch, and at commit each range becomes one NVWAL
 * frame. Nearby ranges are merged (logging a few clean gap bytes is
 * cheaper than another 32-byte frame header), and the range count is
 * capped so tracking stays O(1) per page.
 *
 * A page resident in the Pager is also linked to the pager's dirty
 * set (DESIGN.md §17): the mark that takes it from clean to dirty
 * enters its page number, and clearing the marks removes it, so
 * commit bookkeeping walks the dirty pages rather than the cache.
 * A copy never carries that link: workspace pages, snapshot entries
 * and logged frames copy ranges without ever touching the pager.
 */

#ifndef NVWAL_PAGER_DIRTY_RANGES_HPP
#define NVWAL_PAGER_DIRTY_RANGES_HPP

#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "common/types.hpp"

namespace nvwal
{

/** Sorted, disjoint dirty byte ranges within one page. */
class DirtyRanges
{
  public:
    /** Ascending page numbers of one page cache's dirty pages. */
    using Set = std::set<PageNo>;

    /**
     * @param merge_gap Adjacent ranges closer than this are merged.
     * @param max_ranges Hard cap; the closest pair is merged when a
     *        mark would exceed it.
     */
    explicit DirtyRanges(std::uint32_t merge_gap = 32,
                         std::uint32_t max_ranges = 8)
        : _mergeGap(merge_gap), _maxRanges(max_ranges)
    {}

    /** Copies the ranges and parameters; the copy is unlinked. */
    DirtyRanges(const DirtyRanges &other)
        : _mergeGap(other._mergeGap), _maxRanges(other._maxRanges),
          _ranges(other._ranges)
    {}

    /**
     * Moves the ranges and parameters out of an unlinked @p other
     * (a logged frame's copy), so queued frames move without
     * reallocating.
     */
    DirtyRanges(DirtyRanges &&other) noexcept
        : _mergeGap(other._mergeGap), _maxRanges(other._maxRanges),
          _ranges(std::move(other._ranges))
    {
        NVWAL_ASSERT(other._set == nullptr, "moving linked dirty ranges");
    }

    /**
     * Copies the ranges and parameters but keeps this object's own
     * link, entering or leaving its set to match the new ranges.
     */
    DirtyRanges &operator=(const DirtyRanges &other);

    /** Mark [lo, hi) dirty; a clean linked page enters its set. */
    void mark(std::uint32_t lo, std::uint32_t hi);

    /** True if no byte is dirty. */
    bool empty() const { return _ranges.empty(); }

    /** Sorted disjoint ranges. */
    const std::vector<ByteRange> &ranges() const { return _ranges; }

    /** Sum of range sizes. */
    std::uint32_t totalBytes() const;

    /** Smallest single range covering everything (empty if clean). */
    ByteRange bounding() const;

    /** Drop every range; a linked page leaves its set. */
    void clear();

  private:
    friend class Pager;

    /** Tie these ranges to @p page_no's entry in @p set. */
    void
    link(Set *set, PageNo page_no)
    {
        _set = set;
        _pageNo = page_no;
    }

    void enforceCap();

    std::uint32_t _mergeGap;
    std::uint32_t _maxRanges;
    std::vector<ByteRange> _ranges;
    Set *_set = nullptr;
    PageNo _pageNo = kNoPage;
};

} // namespace nvwal

#endif // NVWAL_PAGER_DIRTY_RANGES_HPP
