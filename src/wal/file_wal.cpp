#include "file_wal.hpp"

#include <algorithm>
#include <cstring>

namespace nvwal
{

FileWal::FileWal(JournalingFs &fs, std::string wal_name, DbFile &db_file,
                 std::uint32_t page_size, std::uint32_t reserved_bytes,
                 FileWalConfig config, MetricsRegistry &stats)
    : _fs(fs), _walName(std::move(wal_name)), _dbFile(db_file),
      _pageSize(page_size), _reservedBytes(reserved_bytes),
      _config(config), _stats(stats),
      _preallocFrames(config.preallocFrames)
{
    if (_config.optimized) {
        NVWAL_ASSERT(_reservedBytes >= kFrameHeaderSize,
                     "optimized WAL needs >= 24 reserved bytes per page");
    }
}

std::uint32_t
FileWal::contentSize() const
{
    // Optimized mode stores only the usable page bytes so that
    // header + content is exactly the page size (block aligned).
    return _config.optimized ? _pageSize - _reservedBytes : _pageSize;
}

Status
FileWal::ensureHeader()
{
    if (_headerWritten)
        return Status::ok();
    std::uint8_t header[kFileHeaderSize];
    std::memset(header, 0, sizeof(header));
    storeU64(header, kMagic);
    storeU32(header + 8, _pageSize);
    storeU32(header + 12, _reservedBytes);
    storeU32(header + 16, _config.optimized ? 1 : 0);
    NVWAL_RETURN_IF_ERROR(
        _fs.pwrite(_walName, 0, ConstByteSpan(header, sizeof(header))));
    _headerWritten = true;
    return Status::ok();
}

Status
FileWal::ensurePrealloc(std::uint64_t frames_needed)
{
    if (!_config.optimized)
        return Status::ok();
    const std::uint64_t bytes_needed = frameOffset(frames_needed);
    std::uint64_t target = _preallocFrames;
    while (frameOffset(target) < bytes_needed)
        target *= 2;  // double each time the pre-allocation fills up
    if (frameOffset(target) > _fs.allocatedSize(_walName)) {
        NVWAL_RETURN_IF_ERROR(_fs.fallocate(_walName, frameOffset(target)));
        _preallocFrames = target;
    }
    return Status::ok();
}

std::uint64_t
FileWal::recoveredPreallocFrames() const
{
    const std::uint64_t allocated = _fs.allocatedSize(_walName);
    if (allocated <= headerRegionSize())
        return _config.preallocFrames;
    return std::max<std::uint64_t>(
        _config.preallocFrames,
        (allocated - headerRegionSize()) / frameSize());
}

Status
FileWal::writeFrameGroup(const std::vector<TxnFrames> &txns)
{
    // The SQLite WAL has no group commit: each transaction ends in
    // its own commit frame and pays its own fsync.
    for (const TxnFrames &txn : txns) {
        const std::vector<FrameWrite> &frames = txn.frames;
        if (frames.empty())
            continue;
        if (!_fs.exists(_walName))
            NVWAL_RETURN_IF_ERROR(_fs.create(_walName));
        NVWAL_RETURN_IF_ERROR(ensureHeader());
        NVWAL_RETURN_IF_ERROR(ensurePrealloc(_frameCount + frames.size()));

        ByteBuffer frame(frameSize());
        const std::uint64_t first_frame = _frameCount;
        for (std::size_t i = 0; i < frames.size(); ++i) {
            const FrameWrite &fw = frames[i];
            NVWAL_ASSERT(fw.page.size() == _pageSize);
            const bool is_commit_frame = i + 1 == frames.size();

            std::memset(frame.data(), 0, kFrameHeaderSize);
            storeU32(frame.data(), fw.pageNo);
            storeU32(frame.data() + 4,
                     is_commit_frame ? txn.dbSizePages : 0);
            std::memcpy(frame.data() + kFrameHeaderSize, fw.page.data(),
                        contentSize());
            _checksum.update(ConstByteSpan(frame.data(), 16));
            _checksum.update(ConstByteSpan(
                frame.data() + kFrameHeaderSize, contentSize()));
            storeU64(frame.data() + 16, _checksum.value());

            NVWAL_RETURN_IF_ERROR(
                _fs.pwrite(_walName, frameOffset(_frameCount),
                           ConstByteSpan(frame.data(), frame.size())));
            _frameCount++;
            _stats.add(stats::kWalFullPageFrames);
        }
        NVWAL_RETURN_IF_ERROR(_fs.fsync(_walName));

        // Publish the transaction in the volatile index under a fresh
        // commit sequence.
        const CommitSeq seq = ++_commitSeq;
        for (std::size_t i = 0; i < frames.size(); ++i)
            _pageIndex[frames[i].pageNo].push_back(
                Version{seq, first_frame + i});
        _dbSizePages = txn.dbSizePages;
    }
    return Status::ok();
}

Status
FileWal::readFrameContent(std::uint64_t frame_idx, ByteSpan out)
{
    NVWAL_ASSERT(out.size() == _pageSize);
    std::memset(out.data(), 0, out.size());
    return _fs.pread(_walName, frameOffset(frame_idx) + kFrameHeaderSize,
                     out.subspan(0, contentSize()));
}

Status
FileWal::readPage(PageNo page_no, ByteSpan out)
{
    auto it = _pageIndex.find(page_no);
    if (it == _pageIndex.end())
        return Status::notFound("page not in WAL index");
    return readFrameContent(it->second.back().frameIdx, out);
}

Status
FileWal::readPageAt(PageNo page_no, ByteSpan out, CommitSeq horizon)
{
    auto it = _pageIndex.find(page_no);
    if (it == _pageIndex.end())
        return Status::notFound("page not in WAL index");
    // Frames are full page images, so the newest version at or below
    // the horizon is the page at the horizon (versions are stored in
    // commit order).
    const std::vector<Version> &versions = it->second;
    const Version *best = nullptr;
    for (const Version &v : versions) {
        if (v.seq > horizon)
            break;
        best = &v;
    }
    if (best == nullptr)
        return Status::notFound("no committed frame at snapshot horizon");
    return readFrameContent(best->frameIdx, out);
}

Status
FileWal::checkpoint()
{
    if (_pageIndex.empty())
        return Status::ok();

    // Write-back horizon: clamp to the oldest pinned snapshot so the
    // .db base image a pinned reader falls back to never gets ahead
    // of its horizon.
    const CommitSeq target = std::min(oldestPin(), _commitSeq);

    ByteBuffer page(_pageSize);
    for (const auto &[page_no, versions] : _pageIndex) {
        const Version *best = nullptr;
        for (const Version &v : versions) {
            if (v.seq > target)
                break;
            best = &v;
        }
        if (best == nullptr)
            continue;  // page born after the clamped horizon
        NVWAL_RETURN_IF_ERROR(readFrameContent(
            best->frameIdx, ByteSpan(page.data(), _pageSize)));
        NVWAL_RETURN_IF_ERROR(_dbFile.writePage(
            page_no, ConstByteSpan(page.data(), _pageSize)));
    }
    NVWAL_RETURN_IF_ERROR(_dbFile.sync());

    if (target < _commitSeq) {
        // A pinned snapshot sits below the newest commit; frames past
        // the target must survive, so the log is retained and a later
        // checkpoint truncates once the pin releases.
        _stats.add(stats::kCheckpointsPinBlocked);
        return Status::ok();
    }

    // All dirty pages are durable in the database file; the log can
    // be truncated. Snapshots still pinned at the newest commit keep
    // reading correctly: readPageAt turns NotFound and the base file
    // holds exactly their horizon's image.
    NVWAL_RETURN_IF_ERROR(_fs.truncate(_walName, 0));
    NVWAL_RETURN_IF_ERROR(_fs.fsync(_walName));
    _headerWritten = false;
    _frameCount = 0;
    _preallocFrames = _config.preallocFrames;
    _checksum.reset();
    _pageIndex.clear();
    _stats.add(stats::kCheckpoints);
    return Status::ok();
}

Status
FileWal::recover(std::uint32_t *db_size_pages)
{
    _headerWritten = false;
    _frameCount = 0;
    _checksum.reset();
    _pageIndex.clear();
    _dbSizePages = 0;
    NVWAL_ASSERT(!hasPins(), "recovery with an open snapshot");
    _commitSeq = 0;
    *db_size_pages = 0;

    if (!_fs.exists(_walName) ||
        _fs.fileSize(_walName) < kFileHeaderSize) {
        return Status::ok();
    }
    std::uint8_t header[kFileHeaderSize];
    NVWAL_RETURN_IF_ERROR(
        _fs.pread(_walName, 0, ByteSpan(header, sizeof(header))));
    if (loadU64(header) != kMagic)
        return Status::corruption("WAL file magic mismatch");
    if (loadU32(header + 8) != _pageSize ||
        loadU32(header + 16) != (_config.optimized ? 1u : 0u)) {
        return Status::corruption("WAL file geometry mismatch");
    }
    _headerWritten = true;

    // Scan frames, verifying the cumulative checksum chain; the log
    // is valid up to the last commit frame whose chain verifies.
    const std::uint64_t file_size = _fs.fileSize(_walName);
    ByteBuffer frame(frameSize());
    CumulativeChecksum chain;
    std::map<PageNo, std::vector<Version>> index;
    std::vector<std::pair<PageNo, std::uint64_t>> pending;
    CommitSeq seq = 0;
    std::uint64_t idx = 0;
    std::uint64_t committed_frames = 0;
    while (frameOffset(idx + 1) <= file_size) {
        NVWAL_RETURN_IF_ERROR(
            _fs.pread(_walName, frameOffset(idx),
                      ByteSpan(frame.data(), frame.size())));
        chain.update(ConstByteSpan(frame.data(), 16));
        chain.update(
            ConstByteSpan(frame.data() + kFrameHeaderSize, contentSize()));
        if (chain.value() != loadU64(frame.data() + 16))
            break;  // torn tail
        pending.emplace_back(loadU32(frame.data()), idx);
        const std::uint32_t db_size = loadU32(frame.data() + 4);
        ++idx;
        if (db_size != 0) {
            // Commit frame: everything up to here is durable.
            ++seq;
            for (const auto &[page_no, frame_idx] : pending)
                index[page_no].push_back(Version{seq, frame_idx});
            pending.clear();
            committed_frames = idx;
            _pageIndex = index;
            _dbSizePages = db_size;
            _checksum = chain;
            _commitSeq = seq;
        }
    }
    _frameCount = committed_frames;
    if (_config.optimized)
        _preallocFrames = recoveredPreallocFrames();
    *db_size_pages = _dbSizePages;
    return Status::ok();
}

} // namespace nvwal
