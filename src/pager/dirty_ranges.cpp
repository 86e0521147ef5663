#include "dirty_ranges.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nvwal
{

DirtyRanges &
DirtyRanges::operator=(const DirtyRanges &other)
{
    _mergeGap = other._mergeGap;
    _maxRanges = other._maxRanges;
    _ranges = other._ranges;
    if (_set != nullptr) {
        if (_ranges.empty())
            _set->erase(_pageNo);
        else
            _set->insert(_pageNo);
    }
    return *this;
}

void
DirtyRanges::clear()
{
    _ranges.clear();
    if (_set != nullptr)
        _set->erase(_pageNo);
}

void
DirtyRanges::mark(std::uint32_t lo, std::uint32_t hi)
{
    if (lo >= hi)
        return;
    if (_ranges.empty() && _set != nullptr)
        _set->insert(_pageNo);

    // Find the insertion window: every existing range that overlaps
    // or sits within the merge gap of [lo, hi) gets absorbed.
    auto first = _ranges.begin();
    while (first != _ranges.end() &&
           first->hi + _mergeGap < lo) {
        ++first;
    }
    auto last = first;
    while (last != _ranges.end() && last->lo <= hi + _mergeGap) {
        lo = std::min(lo, last->lo);
        hi = std::max(hi, last->hi);
        ++last;
    }
    if (first == last) {
        _ranges.insert(first, ByteRange{lo, hi});
    } else {
        first->lo = lo;
        first->hi = hi;
        _ranges.erase(first + 1, last);
    }
    enforceCap();
}

void
DirtyRanges::enforceCap()
{
    while (_ranges.size() > _maxRanges) {
        // Merge the pair with the smallest gap.
        std::size_t best = 0;
        std::uint32_t best_gap = ~0u;
        for (std::size_t i = 0; i + 1 < _ranges.size(); ++i) {
            const std::uint32_t gap = _ranges[i + 1].lo - _ranges[i].hi;
            if (gap < best_gap) {
                best_gap = gap;
                best = i;
            }
        }
        _ranges[best].hi = _ranges[best + 1].hi;
        _ranges.erase(_ranges.begin() +
                      static_cast<std::ptrdiff_t>(best) + 1);
    }
}

std::uint32_t
DirtyRanges::totalBytes() const
{
    std::uint32_t total = 0;
    for (const ByteRange &r : _ranges)
        total += r.size();
    return total;
}

ByteRange
DirtyRanges::bounding() const
{
    if (_ranges.empty())
        return ByteRange{};
    return ByteRange{_ranges.front().lo, _ranges.back().hi};
}

} // namespace nvwal
