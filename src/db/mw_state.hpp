/**
 * @file
 * The private workspace an optimistic multi-writer transaction runs
 * its B-tree on (DESIGN.md §13).
 *
 * A workspace is opened at a pinned commit horizon of the one NVWAL
 * log. Pages are fetched copy-on-read through a fetcher (the
 * database's committed-page path, which serves the shared pager's
 * image when it provably equals the page at the horizon); every page
 * fetched is recorded in the read set, which commit-time validation
 * checks against the pages published since the workspace began. At
 * commit the dirty pages are installed into the shared pager and go
 * through the single-writer group-commit pipeline.
 *
 * Page allocation bumps a shared atomic cursor, so concurrent
 * transactions never collide on page numbers; freed pages are leaked
 * until a vacuum in single-writer mode reclaims them (grow-only by
 * design).
 */

#ifndef NVWAL_DB_MW_STATE_HPP
#define NVWAL_DB_MW_STATE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pager/page_source.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/**
 * Private PageSource of one optimistic write transaction. Confined to
 * the owning connection's thread; only the fetcher and the shared
 * page cursor touch cross-transaction state.
 */
class MwWorkspace : public PageSource
{
  public:
    /** Materialize a page as of the workspace's pinned horizon. */
    using Fetcher = std::function<Status(PageNo page, ByteSpan out)>;

    /**
     * @p horizon is the pinned commit sequence the workspace reads
     * at; @p begin_publish the newest publish sequence visible at it
     * (commit-time validation compares read pages against it).
     */
    MwWorkspace(std::uint32_t page_size, std::uint32_t reserved_bytes,
                PageNo root_page, CommitSeq horizon,
                std::uint64_t begin_publish, std::uint32_t begin_db_size,
                SimTime begin_ns, std::atomic<std::uint32_t> *page_cursor,
                Fetcher fetch)
        : _pageSize(page_size), _reservedBytes(reserved_bytes),
          _rootPage(root_page), _horizon(horizon),
          _beginPublish(begin_publish), _beginDbSize(begin_db_size),
          _beginNs(begin_ns), _pageCursor(page_cursor),
          _fetch(std::move(fetch))
    {}

    Status getPage(PageNo page_no, CachedPage **out) override;
    Status allocatePage(CachedPage **out, PageNo *page_no) override;

    /**
     * Grow-only: multi-writer page numbers come from a shared atomic
     * cursor, so returning one to a free list would need cross-txn
     * coordination at exactly the point the design removes it. The
     * page is simply leaked until a single-writer vacuum compacts.
     */
    Status freePage(PageNo page_no) override
    {
        (void)page_no;
        return Status::ok();
    }

    std::uint32_t pageSize() const override { return _pageSize; }
    std::uint32_t usableSize() const override
    { return _pageSize - _reservedBytes; }
    PageNo rootPage() const override { return _rootPage; }

    /** Commit sequence the workspace pinned at begin. */
    CommitSeq horizon() const { return _horizon; }

    /** Newest publish sequence visible at the horizon. */
    std::uint64_t beginPublish() const { return _beginPublish; }

    /** Sim time the transaction began (trace span start). */
    SimTime beginNs() const { return _beginNs; }

    /** Database size in pages after this transaction commits. */
    std::uint32_t
    dbSizePages() const
    {
        return _maxAllocated > _beginDbSize ? _maxAllocated : _beginDbSize;
    }

    /** Pages fetched from the committed state (the read set). */
    const std::vector<PageNo> &readSet() const { return _readSet; }

    /** Page numbers of all dirty workspace pages, ascending. */
    std::vector<PageNo> dirtyPageNos() const;

    /** Cached entry or nullptr (no fetch). */
    const CachedPage *cached(PageNo page_no) const;

  private:
    std::uint32_t _pageSize;
    std::uint32_t _reservedBytes;
    PageNo _rootPage;
    CommitSeq _horizon;
    std::uint64_t _beginPublish;
    std::uint32_t _beginDbSize;
    SimTime _beginNs;
    std::uint32_t _maxAllocated = 0;
    std::atomic<std::uint32_t> *_pageCursor;
    Fetcher _fetch;
    std::map<PageNo, std::unique_ptr<CachedPage>> _cache;
    std::vector<PageNo> _readSet;
};

} // namespace nvwal

#endif // NVWAL_DB_MW_STATE_HPP
