#include "mw_state.hpp"

namespace nvwal
{

Status
MwWorkspace::getPage(PageNo page_no, CachedPage **out)
{
    NVWAL_ASSERT(page_no != kNoPage);
    auto it = _cache.find(page_no);
    if (it != _cache.end()) {
        *out = it->second.get();
        return Status::ok();
    }
    // Pages allocated by this transaction are always cache-resident,
    // so a miss beyond the begin-time size is a reference to another
    // transaction's uncommitted allocation -- a bug, not a race.
    if (page_no > _beginDbSize)
        return Status::invalidArgument("page beyond transaction snapshot");
    auto page = std::make_unique<CachedPage>();
    page->buf.resize(_pageSize);
    NVWAL_RETURN_IF_ERROR(_fetch(page_no, page->span()));
    _readSet.push_back(page_no);
    *out = page.get();
    _cache[page_no] = std::move(page);
    return Status::ok();
}

Status
MwWorkspace::allocatePage(CachedPage **out, PageNo *page_no)
{
    const std::uint32_t no = _pageCursor->fetch_add(1) + 1;
    auto page = std::make_unique<CachedPage>();
    page->buf.assign(_pageSize, 0);
    page->dirty.mark(0, _pageSize);
    *out = page.get();
    *page_no = no;
    _cache[no] = std::move(page);
    if (no > _maxAllocated)
        _maxAllocated = no;
    return Status::ok();
}

std::vector<PageNo>
MwWorkspace::dirtyPageNos() const
{
    std::vector<PageNo> out;
    for (const auto &[page_no, page] : _cache)
        if (page->isDirty())
            out.push_back(page_no);
    return out;
}

const CachedPage *
MwWorkspace::cached(PageNo page_no) const
{
    auto it = _cache.find(page_no);
    return it == _cache.end() ? nullptr : it->second.get();
}

} // namespace nvwal
