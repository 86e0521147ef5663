/**
 * @file
 * SnapshotCache: the private, copy-on-read page cache of one pinned
 * commit horizon, and MwWorkspace, the same cache with what an
 * optimistic write transaction adds to it (DESIGN.md §8.2, §13).
 *
 * Every snapshot a connection reads through owns one: a read
 * transaction (Connection::beginRead), the cached casual snapshot of
 * statements outside one, and the workspace of a multi-writer
 * transaction. Database::snapshotCache() builds all three the same
 * way. Pages are resolved through a fetch callback that materializes
 * the page as of the horizon (Database::fetchCommittedPage); the
 * callback is the only part of a snapshot read that touches shared
 * engine state, so it takes the engine lock while cache hits proceed
 * with no synchronization at all -- that private-cache hit path is
 * what lets aggregate read throughput scale with reader threads.
 *
 * The cache records every page it fetched, in fetch order. A reader
 * counts them; a workspace validates them at commit against the
 * pages published since it began.
 *
 * A cache is thread-confined to the connection that owns it; it
 * tallies its reads/hits locally and the connection folds them into
 * the shared MetricsRegistry (under the engine lock).
 */

#ifndef NVWAL_DB_SNAPSHOT_CACHE_HPP
#define NVWAL_DB_SNAPSHOT_CACHE_HPP

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "pager/page_source.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/**
 * PageSource over one commit horizon. Read-only: allocatePage and
 * freePage keep PageSource's Unsupported.
 */
class SnapshotCache : public PageSource
{
  public:
    /** Materializes a page as of the snapshot's horizon. */
    using Fetcher = std::function<Status(PageNo, ByteSpan)>;

    /**
     * A cache over the @p page_count pages committed at @p horizon;
     * @p fetch materializes a page it does not hold yet.
     */
    SnapshotCache(std::uint32_t page_size, std::uint32_t reserved_bytes,
                  PageNo root_page, CommitSeq horizon,
                  std::uint32_t page_count, Fetcher fetch)
        : _pageSize(page_size), _reservedBytes(reserved_bytes),
          _rootPage(root_page), _horizon(horizon),
          _pageCount(page_count), _fetch(std::move(fetch))
    {
    }

    Status getPage(PageNo page_no, CachedPage **out) override;

    std::uint32_t pageSize() const override { return _pageSize; }
    std::uint32_t usableSize() const override
    { return _pageSize - _reservedBytes; }
    PageNo rootPage() const override { return _rootPage; }

    /** Commit sequence the cache reads at. */
    CommitSeq horizon() const { return _horizon; }

    /** Database size in pages as of the horizon. */
    std::uint32_t pageCount() const { return _pageCount; }

    /** Pages fetched through the fetcher, in fetch order. */
    const std::vector<PageNo> &readSet() const { return _readSet; }

    // Thread-local tallies, folded into the shared registry by the
    // owning connection.
    std::uint64_t cacheHits() const { return _cacheHits; }
    std::uint64_t fetches() const { return _readSet.size(); }

    /** Page numbers of all dirty cached pages, ascending. */
    std::vector<PageNo> dirtyPageNos() const;

    /** Cached entry or nullptr (no fetch). */
    const CachedPage *cached(PageNo page_no) const;

  protected:
    /** Cache a zero-filled page as @p page_no and return it. */
    CachedPage *cachePage(PageNo page_no);

  private:
    std::uint32_t _pageSize;
    std::uint32_t _reservedBytes;
    PageNo _rootPage;
    CommitSeq _horizon;
    std::uint32_t _pageCount;
    Fetcher _fetch;
    std::map<PageNo, std::unique_ptr<CachedPage>> _cache;
    std::vector<PageNo> _readSet;
    std::uint64_t _cacheHits = 0;
};

/**
 * The cache an optimistic multi-writer transaction runs its B-tree
 * on. Its read set is what commit-time validation checks; at commit
 * its dirty pages are installed into the shared pager and go through
 * the single-writer group-commit pipeline.
 *
 * Page allocation bumps a shared atomic cursor, so concurrent
 * transactions never collide on page numbers; freed pages are leaked
 * until a vacuum in single-writer mode reclaims them (grow-only by
 * design).
 */
class MwWorkspace : public SnapshotCache
{
  public:
    /**
     * Extend @p cache for writing. @p begin_publish is the newest
     * publish sequence visible at its horizon (validation compares
     * read pages against it); @p begin_ns the sim time the
     * transaction began.
     */
    MwWorkspace(SnapshotCache cache, std::uint64_t begin_publish,
                SimTime begin_ns, std::atomic<std::uint32_t> *page_cursor)
        : SnapshotCache(std::move(cache)), _beginPublish(begin_publish),
          _beginNs(begin_ns), _pageCursor(page_cursor)
    {}

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

    /** Newest publish sequence visible at the horizon. */
    std::uint64_t beginPublish() const { return _beginPublish; }

    /** Sim time the transaction began (trace span start). */
    SimTime beginNs() const { return _beginNs; }

    /** Database size in pages after this transaction commits. */
    std::uint32_t
    dbSizePages() const
    {
        return _maxAllocated > pageCount() ? _maxAllocated : pageCount();
    }

  private:
    std::uint64_t _beginPublish;
    SimTime _beginNs;
    std::atomic<std::uint32_t> *_pageCursor;
    std::uint32_t _maxAllocated = 0;
};

} // namespace nvwal

#endif // NVWAL_DB_SNAPSHOT_CACHE_HPP
