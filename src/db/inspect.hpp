/**
 * @file
 * Forensic inspection of a database and its NVWAL media -- the
 * sqlite3_analyzer analogue for this engine.
 *
 * The NVWAL media walker is implemented independently of NvwalLog's
 * own recovery code, reading the persistent structures through
 * public NvHeap/NvramDevice interfaces only. That makes it both a
 * debugging tool and a living cross-check of the on-media format:
 * if the two implementations ever disagree about what is on the
 * media, one of them is wrong.
 */

#ifndef NVWAL_DB_INSPECT_HPP
#define NVWAL_DB_INSPECT_HPP

#include <cstdio>
#include <vector>

#include "db/database.hpp"

namespace nvwal
{

/** One WAL frame found on the NVWAL media. */
struct FrameInfo
{
    NvOffset offset;
    PageNo pageNo;
    std::uint16_t pageOffset;
    std::uint16_t size;
    bool committed;
    std::uint32_t dbSizePages;  //!< only meaningful when committed
    bool checksumValid;
};

/** One log node (NVRAM heap allocation) in the chain. */
struct NodeInfo
{
    NvOffset offset = kNullNvOffset;
    std::uint32_t capacity = 0;
    BlockState state = BlockState::Free;
    std::vector<FrameInfo> frames;
};

/** Everything the media walker found. */
struct NvwalMediaReport
{
    bool logPresent = false;
    std::uint64_t checkpointId = 0;
    std::vector<NodeInfo> nodes;
    std::uint64_t committedFrames = 0;
    std::uint64_t uncommittedFrames = 0;
    std::uint64_t tornFrames = 0;  //!< checksum-invalid frames
    std::uint64_t bytesUsed = 0;
    // Heap-level summary.
    std::uint64_t heapBlocksFree = 0;
    std::uint64_t heapBlocksPending = 0;
    std::uint64_t heapBlocksInUse = 0;
};

/** Per-table stats for the database report. */
struct TableInfo
{
    std::string name;
    PageNo root;
    std::uint64_t rows = 0;
    std::uint32_t depth = 0;
};

/** Database-level structural report. */
struct DatabaseReport
{
    std::uint32_t pageSize = 0;
    std::uint32_t reservedBytes = 0;
    std::uint32_t pageCount = 0;
    std::uint32_t freePages = 0;
    std::uint64_t walFramesSinceCheckpoint = 0;
    std::vector<TableInfo> tables;
};

/**
 * Walk the NVWAL persistent structures on @p env's NVRAM, using the
 * same header/frame format as NvwalLog but none of its code.
 * @p page_size must match the database's page size (frame geometry
 * validation needs it). @p heap_namespace selects which log to walk
 * (NvwalConfig::heapNamespace; "nvwal" is the default).
 */
Status collectNvwalMediaReport(Env &env, std::uint32_t page_size,
                               NvwalMediaReport *out,
                               const std::string &heap_namespace = "nvwal");

/** Collect the structural report of an open database. */
Status collectDatabaseReport(Database &db, DatabaseReport *out);

/** Render a media report as a human-readable table. */
void printNvwalMediaReport(const NvwalMediaReport &report,
                           std::FILE *out = stdout);

/** Render a database report as a human-readable table. */
void printDatabaseReport(const DatabaseReport &report,
                         std::FILE *out = stdout);

/** Decode and print one B-tree page (header, cells, freeblocks). */
Status printPage(Pager &pager, PageNo page_no, std::FILE *out = stdout);

/**
 * Print every counter as "name = value" lines in ascending
 * lexicographic key order -- the stable order documented in
 * docs/MODEL.md, shared by nvwal_inspect and nvwal_shell so output
 * is diffable across runs and versions.
 */
void printCounters(const MetricsRegistry &stats, std::FILE *out = stdout);

/**
 * Print each non-empty latency histogram as one summary line
 * (count/mean/p50/p95/p99/max), keys in lexicographic order.
 */
void printHistograms(const MetricsRegistry &stats, std::FILE *out = stdout);

} // namespace nvwal

#endif // NVWAL_DB_INSPECT_HPP
