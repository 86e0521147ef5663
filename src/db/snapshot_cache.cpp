#include "snapshot_cache.hpp"

namespace nvwal
{

Status
SnapshotCache::getPage(PageNo page_no, CachedPage **out)
{
    NVWAL_ASSERT(page_no != kNoPage);
    auto it = _cache.find(page_no);
    if (it != _cache.end()) {
        ++_cacheHits;
        *out = it->second.get();
        return Status::ok();
    }
    // Pages a workspace allocated are always cache-resident, so a
    // miss beyond the horizon's size is a reference to another
    // transaction's uncommitted allocation -- a bug, not a race.
    if (page_no > _pageCount)
        return Status::invalidArgument("page beyond snapshot size");
    auto page = std::make_unique<CachedPage>();
    page->buf.resize(_pageSize);
    NVWAL_RETURN_IF_ERROR(_fetch(page_no, page->span()));
    _readSet.push_back(page_no);
    *out = page.get();
    _cache[page_no] = std::move(page);
    return Status::ok();
}

CachedPage *
SnapshotCache::cachePage(PageNo page_no)
{
    std::unique_ptr<CachedPage> &page = _cache[page_no];
    page = std::make_unique<CachedPage>();
    page->buf.resize(_pageSize);
    return page.get();
}

std::vector<PageNo>
SnapshotCache::dirtyPageNos() const
{
    std::vector<PageNo> out;
    for (const auto &[page_no, page] : _cache)
        if (page->isDirty())
            out.push_back(page_no);
    return out;
}

const CachedPage *
SnapshotCache::cached(PageNo page_no) const
{
    auto it = _cache.find(page_no);
    return it == _cache.end() ? nullptr : it->second.get();
}

Status
MwWorkspace::allocatePage(CachedPage **out, PageNo *page_no)
{
    const std::uint32_t no = _pageCursor->fetch_add(1) + 1;
    CachedPage *page = cachePage(no);
    page->dirty.mark(0, pageSize());
    *out = page;
    *page_no = no;
    if (no > _maxAllocated)
        _maxAllocated = no;
    return Status::ok();
}

} // namespace nvwal
