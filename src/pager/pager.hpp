/**
 * @file
 * DRAM page cache over the database file, with dirty byte-range
 * tracking per cached page.
 *
 * The pager is deliberately WAL-agnostic: reads consult an optional
 * WAL reader hook first (the latest committed frame of a page lives
 * in the log until checkpoint), then fall back to the .db file.
 * Transactions mutate cached pages through B-tree code that marks
 * dirty ranges; at commit the database collects the dirty set and
 * hands it to the active WriteAheadLog implementation.
 */

#ifndef NVWAL_PAGER_PAGER_HPP
#define NVWAL_PAGER_PAGER_HPP

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "pager/db_file.hpp"
#include "pager/dirty_ranges.hpp"
#include "pager/page_source.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Database file header geometry (page 1, first 100 bytes). */
struct DbHeader
{
    static constexpr char kMagic[] = "NVWAL-SQLite-repro";
    static constexpr std::uint32_t kMagicLen = 19;  // incl. NUL
    static constexpr std::uint32_t kPageSizeOff = 20;
    static constexpr std::uint32_t kReservedOff = 24;
    static constexpr std::uint32_t kPageCountOff = 28;
    static constexpr std::uint32_t kRootPageOff = 32;
    /** First free-list trunk page (0 = free list empty). */
    static constexpr std::uint32_t kFreelistHeadOff = 36;
    /** Total pages on the free list (trunks + entries). */
    static constexpr std::uint32_t kFreelistCountOff = 40;
    static constexpr std::uint32_t kSize = 100;
};

/** Page cache + allocator for one database. */
class Pager : public PageSource
{
  public:
    /**
     * Reads the latest committed WAL copy of a page. Returns
     * NotFound when the log holds no committed frame for it (the
     * pager then falls back to the .db file); any other error
     * propagates to the getPage() caller.
     */
    using WalReader = std::function<Status(PageNo, ByteSpan)>;

    /**
     * @p stats is optional: when given, the pager counts cache
     * hits/misses and emits page-fetch trace events; a nullptr pager
     * (tests, scratch rebuilds) runs unobserved.
     */
    Pager(DbFile &db_file, std::uint32_t page_size,
          std::uint32_t reserved_bytes, MetricsRegistry *stats = nullptr);

    /**
     * Open the database: create header page (1) and root page (2)
     * directly in the file when it is empty, otherwise validate the
     * header. The WAL reader must be installed (and the WAL
     * recovered) before the first getPage() call on a non-empty
     * database.
     */
    Status open();

    std::uint32_t pageSize() const override { return _pageSize; }
    std::uint32_t reservedBytes() const { return _reservedBytes; }

    /** Bytes of a page usable by the B-tree (pageSize - reserved). */
    std::uint32_t usableSize() const override
    { return _pageSize - _reservedBytes; }

    PageNo rootPage() const override { return 2; }

    /** Logical page count (includes pages not yet checkpointed). */
    std::uint32_t pageCount() const { return _pageCount; }

    /** Reset the logical page count (WAL recovery). */
    void setPageCount(std::uint32_t n) { _pageCount = n; }

    void setWalReader(WalReader reader) { _walReader = std::move(reader); }

    /** Fetch a page, reading through WAL then the .db file. */
    Status getPage(PageNo page_no, CachedPage **out) override;

    /**
     * Allocate a page: reuse one from the persistent free list if
     * available (SQLite-style trunk pages), otherwise grow the
     * database. The returned page is zeroed and fully dirty.
     */
    Status allocatePage(CachedPage **out, PageNo *page_no) override;

    /**
     * Return @p page_no to the free list (it must not be referenced
     * by any tree afterwards). Free-list mutations go through cached
     * pages, so they are transactional like any other page write.
     */
    Status freePage(PageNo page_no) override;

    /** Pages currently on the free list. */
    std::uint32_t freePageCount();

    /** Cached entry or nullptr (no I/O). */
    CachedPage *cached(PageNo page_no);

    /** Page numbers of all dirty cached pages, ascending. */
    std::vector<PageNo> dirtyPageNos() const;

    /**
     * Replace the cached entry of @p page_no with a copy of @p page --
     * image, dirty ranges and dirty-ratio history: how an optimistic
     * multi-writer commit hands its validated workspace pages to the
     * commit pipeline (DESIGN.md §13). The cached page must not be
     * dirty.
     */
    void installPage(PageNo page_no, const CachedPage &page);

    /** Clear dirty marks after a successful commit. */
    void markAllClean();

    /**
     * Roll back: evict dirty pages and restore the page count to
     * @p restore_page_count (its value at transaction start).
     */
    void discardDirty(std::uint32_t restore_page_count);

    /** Evict all clean pages (checkpoint truncation, tests). */
    void dropCleanPages();

    /** Evict everything; only legal with no dirty pages. */
    void reset();

    /**
     * Write every dirty cached page straight to the database file
     * and mark it clean. Bulk-load path for WAL-less construction
     * (vacuum rebuilds); never call on a WAL-backed database.
     */
    Status flushAllToFile();

  private:
    /** Entries a free-list trunk page can hold. */
    std::uint32_t trunkCapacity() const { return (usableSize() - 8) / 4; }

    Status popFreePage(CachedPage *header, PageNo *page_no,
                       bool *found);

    DbFile &_dbFile;
    std::uint32_t _pageSize;
    std::uint32_t _reservedBytes;
    MetricsRegistry *_stats;
    std::uint32_t _pageCount = 0;
    WalReader _walReader;
    std::map<PageNo, std::unique_ptr<CachedPage>> _cache;
};

} // namespace nvwal

#endif // NVWAL_PAGER_PAGER_HPP
