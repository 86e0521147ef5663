#include "pager.hpp"

#include <cstring>

namespace nvwal
{

Pager::Pager(DbFile &db_file, std::uint32_t page_size,
             std::uint32_t reserved_bytes, MetricsRegistry *stats)
    : _dbFile(db_file), _pageSize(page_size),
      _reservedBytes(reserved_bytes), _stats(stats)
{
    NVWAL_ASSERT(page_size >= 512 && reserved_bytes < page_size / 2);
}

Status
Pager::open()
{
    NVWAL_RETURN_IF_ERROR(_dbFile.open());
    if (_dbFile.pageCount() == 0) {
        // Fresh database: header page (1) plus an all-zero root page
        // (2); the B-tree treats a zero-typed root as an empty leaf,
        // so no transactional machinery is needed at creation time.
        ByteBuffer page(_pageSize, 0);
        std::memcpy(page.data(), DbHeader::kMagic, DbHeader::kMagicLen);
        storeU32(page.data() + DbHeader::kPageSizeOff, _pageSize);
        storeU32(page.data() + DbHeader::kReservedOff, _reservedBytes);
        storeU32(page.data() + DbHeader::kPageCountOff, 2);
        storeU32(page.data() + DbHeader::kRootPageOff, rootPage());
        NVWAL_RETURN_IF_ERROR(
            _dbFile.writePage(1, ConstByteSpan(page.data(), _pageSize)));
        std::memset(page.data(), 0, _pageSize);
        NVWAL_RETURN_IF_ERROR(
            _dbFile.writePage(2, ConstByteSpan(page.data(), _pageSize)));
        NVWAL_RETURN_IF_ERROR(_dbFile.sync());
        _pageCount = 2;
        return Status::ok();
    }

    // Existing database: validate the header. The header page itself
    // may have a newer committed copy in the WAL, so go through
    // getPage() (caller must have installed the WAL reader first).
    _pageCount = _dbFile.pageCount();
    CachedPage *header;
    NVWAL_RETURN_IF_ERROR(getPage(1, &header));
    if (std::memcmp(header->buf.data(), DbHeader::kMagic,
                    DbHeader::kMagicLen) != 0) {
        return Status::corruption("database header magic mismatch");
    }
    const std::uint32_t file_page_size =
        loadU32(header->buf.data() + DbHeader::kPageSizeOff);
    const std::uint32_t file_reserved =
        loadU32(header->buf.data() + DbHeader::kReservedOff);
    if (file_page_size != _pageSize || file_reserved != _reservedBytes) {
        return Status::invalidArgument(
            "database was created with different page geometry");
    }
    return Status::ok();
}

Status
Pager::getPage(PageNo page_no, CachedPage **out)
{
    NVWAL_ASSERT(page_no != kNoPage);
    auto it = _cache.find(page_no);
    if (it != _cache.end()) {
        if (_stats != nullptr)
            _stats->add(stats::kPagerCacheHits);
        *out = it->second.get();
        return Status::ok();
    }
    if (page_no > _pageCount) {
        return Status::invalidArgument("page beyond end of database");
    }

    auto page = std::make_unique<CachedPage>();
    page->buf.resize(_pageSize);
    bool from_wal = false;
    if (_walReader) {
        const Status wal = _walReader(page_no, page->span());
        if (wal.isOk())
            from_wal = true;
        else if (!wal.isNotFound())
            return wal;
    }
    if (_stats != nullptr) {
        _stats->add(stats::kPagerReads);
        if (from_wal)
            _stats->add(stats::kPagerWalReads);
        _stats->tracer().instant("pager.page_read", "pager", "page",
                                 page_no);
    }
    if (!from_wal) {
        if (page_no <= _dbFile.pageCount()) {
            NVWAL_RETURN_IF_ERROR(_dbFile.readPage(page_no, page->span()));
        } else {
            // Allocated past EOF and committed to the WAL only; the
            // WAL reader must have served it. Reaching here means
            // the log lost frames.
            return Status::corruption("page missing from WAL and file");
        }
    }
    *out = page.get();
    _cache[page_no] = std::move(page);
    return Status::ok();
}

Status
Pager::popFreePage(CachedPage *header, PageNo *page_no, bool *found)
{
    *found = false;
    const PageNo head =
        loadU32(header->buf.data() + DbHeader::kFreelistHeadOff);
    if (head == kNoPage)
        return Status::ok();

    CachedPage *trunk;
    NVWAL_RETURN_IF_ERROR(getPage(head, &trunk));
    const std::uint32_t n = loadU32(trunk->buf.data() + 4);
    if (n > 0) {
        // Pop the last leaf entry of the trunk.
        const std::uint32_t slot = 8 + 4 * (n - 1);
        *page_no = loadU32(trunk->buf.data() + slot);
        storeU32(trunk->buf.data() + slot, 0);
        storeU32(trunk->buf.data() + 4, n - 1);
        trunk->dirty.mark(4, 8);
        trunk->dirty.mark(slot, slot + 4);
    } else {
        // The trunk itself becomes the allocated page.
        *page_no = head;
        const std::uint32_t next = loadU32(trunk->buf.data());
        storeU32(header->buf.data() + DbHeader::kFreelistHeadOff, next);
        header->dirty.mark(DbHeader::kFreelistHeadOff,
                           DbHeader::kFreelistHeadOff + 4);
    }
    const std::uint32_t count =
        loadU32(header->buf.data() + DbHeader::kFreelistCountOff);
    NVWAL_ASSERT(count > 0, "free-list count underflow");
    storeU32(header->buf.data() + DbHeader::kFreelistCountOff, count - 1);
    header->dirty.mark(DbHeader::kFreelistCountOff,
                       DbHeader::kFreelistCountOff + 4);
    *found = true;
    return Status::ok();
}

Status
Pager::allocatePage(CachedPage **out, PageNo *page_no)
{
    // Prefer the persistent free list.
    CachedPage *header;
    NVWAL_RETURN_IF_ERROR(getPage(1, &header));
    bool reused = false;
    PageNo no = kNoPage;
    NVWAL_RETURN_IF_ERROR(popFreePage(header, &no, &reused));
    if (reused) {
        CachedPage *page;
        NVWAL_RETURN_IF_ERROR(getPage(no, &page));
        std::memset(page->buf.data(), 0, page->buf.size());
        page->dirty.mark(0, _pageSize - _reservedBytes);
        *out = page;
        *page_no = no;
        return Status::ok();
    }

    no = ++_pageCount;
    auto page = std::make_unique<CachedPage>();
    page->buf.resize(_pageSize, 0);
    // A fresh page is logically all-dirty: its first WAL frame must
    // carry the full content.
    page->dirty.mark(0, _pageSize - _reservedBytes);
    *out = page.get();
    *page_no = no;
    _cache[no] = std::move(page);
    return Status::ok();
}

Status
Pager::freePage(PageNo page_no)
{
    NVWAL_ASSERT(page_no > 1, "cannot free the header page");
    CachedPage *header;
    NVWAL_RETURN_IF_ERROR(getPage(1, &header));
    const PageNo head =
        loadU32(header->buf.data() + DbHeader::kFreelistHeadOff);

    CachedPage *page;
    NVWAL_RETURN_IF_ERROR(getPage(page_no, &page));

    bool appended = false;
    if (head != kNoPage) {
        CachedPage *trunk;
        NVWAL_RETURN_IF_ERROR(getPage(head, &trunk));
        const std::uint32_t n = loadU32(trunk->buf.data() + 4);
        if (n < trunkCapacity()) {
            const std::uint32_t slot = 8 + 4 * n;
            storeU32(trunk->buf.data() + slot, page_no);
            storeU32(trunk->buf.data() + 4, n + 1);
            trunk->dirty.mark(4, 8);
            trunk->dirty.mark(slot, slot + 4);
            appended = true;
        }
    }
    if (!appended) {
        // The freed page becomes a new trunk heading the list.
        std::memset(page->buf.data(), 0, page->buf.size());
        storeU32(page->buf.data(), head);
        page->dirty.mark(0, _pageSize - _reservedBytes);
        storeU32(header->buf.data() + DbHeader::kFreelistHeadOff,
                 page_no);
        header->dirty.mark(DbHeader::kFreelistHeadOff,
                           DbHeader::kFreelistHeadOff + 4);
    }
    const std::uint32_t count =
        loadU32(header->buf.data() + DbHeader::kFreelistCountOff);
    storeU32(header->buf.data() + DbHeader::kFreelistCountOff, count + 1);
    header->dirty.mark(DbHeader::kFreelistCountOff,
                       DbHeader::kFreelistCountOff + 4);
    return Status::ok();
}

std::uint32_t
Pager::freePageCount()
{
    CachedPage *header;
    NVWAL_CHECK_OK(getPage(1, &header));
    return loadU32(header->buf.data() + DbHeader::kFreelistCountOff);
}

CachedPage *
Pager::cached(PageNo page_no)
{
    auto it = _cache.find(page_no);
    return it == _cache.end() ? nullptr : it->second.get();
}

std::vector<PageNo>
Pager::dirtyPageNos() const
{
    std::vector<PageNo> out;
    for (const auto &[no, page] : _cache) {
        if (page->isDirty())
            out.push_back(no);
    }
    return out;  // std::map iteration is already ascending
}

void
Pager::installPage(PageNo page_no, const CachedPage &page)
{
    NVWAL_ASSERT(page.buf.size() == _pageSize);
    std::unique_ptr<CachedPage> &slot = _cache[page_no];
    if (!slot)
        slot = std::make_unique<CachedPage>();
    NVWAL_ASSERT(!slot->isDirty(), "install over an uncommitted page");
    *slot = page;
}

void
Pager::markAllClean()
{
    for (auto &[no, page] : _cache)
        page->dirty.clear();
}

void
Pager::discardDirty(std::uint32_t restore_page_count)
{
    for (auto it = _cache.begin(); it != _cache.end();) {
        if (it->second->isDirty())
            it = _cache.erase(it);
        else
            ++it;
    }
    _pageCount = restore_page_count;
}

void
Pager::dropCleanPages()
{
    for (auto it = _cache.begin(); it != _cache.end();) {
        if (!it->second->isDirty())
            it = _cache.erase(it);
        else
            ++it;
    }
}

void
Pager::reset()
{
    NVWAL_ASSERT(dirtyPageNos().empty(),
                 "reset with dirty pages would lose data");
    _cache.clear();
}

Status
Pager::flushAllToFile()
{
    for (auto &[no, page] : _cache) {
        if (!page->isDirty())
            continue;
        NVWAL_RETURN_IF_ERROR(_dbFile.writePage(no, page->cspan()));
        if (_stats != nullptr)
            _stats->add(stats::kPagerWrites);
        page->dirty.clear();
    }
    return Status::ok();
}

} // namespace nvwal
