/**
 * @file
 * SQLite-style file-based write-ahead log on the journaling file
 * system -- the flash baselines of the paper's evaluation.
 *
 * Two flavors (section 5.4):
 *
 *  - *Stock*: each frame is a 24-byte header plus the full page, so
 *    frames are not block-aligned (4120 bytes for 4 KB pages) and a
 *    single-page commit dirties two file blocks; every append grows
 *    the file, so each fsync() journals an EXT4 allocation
 *    transaction (~20 KB) -- the "16 KB I/O per transaction"
 *    pathology of section 1.
 *
 *  - *Optimized*: the paper's two fixes. (1) The B-tree reserves the
 *    last 24 bytes of every page (Pager reservedBytes = 24), so a
 *    frame header plus the page's usable bytes is exactly one file
 *    block. (2) Log pages are pre-allocated with doubling (8 blocks
 *    initially), so most fsyncs only journal the inode update, not
 *    an allocation (the WALDIO-style optimization, Figure 8).
 */

#ifndef NVWAL_WAL_FILE_WAL_HPP
#define NVWAL_WAL_FILE_WAL_HPP

#include <map>
#include <string>

#include "common/checksum.hpp"
#include "pager/db_file.hpp"
#include "sim/stats.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/** Configuration for the file-based WAL. */
struct FileWalConfig
{
    /** Aligned frames + pre-allocation when true. */
    bool optimized = false;
    /** Initial pre-allocation in frames (doubles when exhausted). */
    std::uint32_t preallocFrames = 8;
};

/** SQLite-style WAL file over JournalingFs. */
class FileWal : public WriteAheadLog
{
  public:
    static constexpr std::uint32_t kFileHeaderSize = 32;
    static constexpr std::uint32_t kFrameHeaderSize = 24;
    static constexpr std::uint64_t kMagic = 0x314c41574c4946ULL;

    FileWal(JournalingFs &fs, std::string wal_name, DbFile &db_file,
            std::uint32_t page_size, std::uint32_t reserved_bytes,
            FileWalConfig config, MetricsRegistry &stats);

    Status writeFrameGroup(const std::vector<TxnFrames> &txns) override;
    Status readPage(PageNo page_no, ByteSpan out) override;
    Status readPageAt(PageNo page_no, ByteSpan out,
                      CommitSeq horizon) override;
    CommitSeq commitSeq() const override { return _commitSeq; }
    std::uint32_t committedDbSize() const override { return _dbSizePages; }
    bool supportsSnapshots() const override { return true; }
    Status checkpoint() override;
    Status recover(std::uint32_t *db_size_pages) override;
    std::uint64_t framesSinceCheckpoint() const override
    { return _frameCount; }
    const char *
    name() const override
    {
        return _config.optimized ? "Optimized WAL" : "WAL";
    }

  private:
    /** One committed frame of a page (full content, no diffs). */
    struct Version
    {
        CommitSeq seq;
        std::uint64_t frameIdx;
    };

    /** Read the content of frame @p frame_idx into @p out. */
    Status readFrameContent(std::uint64_t frame_idx, ByteSpan out);
    /** Bytes of page content stored per frame. */
    std::uint32_t contentSize() const;
    /** Total frame size in the file. */
    std::uint32_t frameSize() const
    { return kFrameHeaderSize + contentSize(); }
    /**
     * Bytes reserved for the file header. Optimized mode pads it to
     * a whole block so that aligned frames actually land on block
     * boundaries.
     */
    std::uint64_t headerRegionSize() const
    { return _config.optimized ? _pageSize : kFileHeaderSize; }
    std::uint64_t frameOffset(std::uint64_t frame_idx) const
    { return headerRegionSize() + frame_idx * frameSize(); }
    Status ensureHeader();
    Status ensurePrealloc(std::uint64_t frames_needed);
    std::uint64_t recoveredPreallocFrames() const;

    JournalingFs &_fs;
    std::string _walName;
    DbFile &_dbFile;
    std::uint32_t _pageSize;
    std::uint32_t _reservedBytes;
    FileWalConfig _config;
    MetricsRegistry &_stats;

    bool _headerWritten = false;
    std::uint64_t _frameCount = 0;           //!< frames appended
    std::uint64_t _preallocFrames;
    CumulativeChecksum _checksum;
    std::uint32_t _dbSizePages = 0;          //!< last committed size
    CommitSeq _commitSeq = 0;                //!< newest committed seq
    /**
     * page -> committed frame versions in commit order. The newest
     * (back) serves current reads; earlier entries serve pinned
     * snapshots via readPageAt and are dropped at checkpoint.
     */
    std::map<PageNo, std::vector<Version>> _pageIndex;
};

} // namespace nvwal

#endif // NVWAL_WAL_FILE_WAL_HPP
