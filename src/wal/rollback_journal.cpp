#include "rollback_journal.hpp"

#include <cstring>

namespace nvwal
{

RollbackJournal::RollbackJournal(JournalingFs &fs, std::string journal_name,
                                 DbFile &db_file, std::uint32_t page_size,
                                 MetricsRegistry &stats)
    : _fs(fs), _journalName(std::move(journal_name)), _dbFile(db_file),
      _pageSize(page_size), _stats(stats)
{}

std::uint64_t
RollbackJournal::recordOffset(std::uint64_t idx) const
{
    return kHeaderSize + idx * (4 + _pageSize);
}

Status
RollbackJournal::writeFrameGroup(const std::vector<TxnFrames> &txns)
{
    // Each transaction runs the whole protocol with its own fsyncs:
    // the journal has no group commit.
    for (const TxnFrames &txn : txns) {
        const std::vector<FrameWrite> &frames = txn.frames;
        if (frames.empty())
            continue;

        // Phase 1 -- journal the pre-images of every page this
        // transaction will overwrite, plus the old database size,
        // then fsync the journal. Only pages that exist in the file
        // need a pre-image; growth is undone by truncation.
        const std::uint32_t old_pages = _dbFile.pageCount();
        std::uint8_t header[kHeaderSize];
        std::memset(header, 0, sizeof(header));
        storeU64(header, kMagic);
        storeU32(header + 8, old_pages);
        std::uint32_t n_records = 0;
        for (const FrameWrite &fw : frames) {
            if (fw.pageNo <= old_pages)
                ++n_records;
        }
        storeU32(header + 12, n_records);
        NVWAL_RETURN_IF_ERROR(_fs.pwrite(
            _journalName, 0, ConstByteSpan(header, sizeof(header))));

        ByteBuffer record(4 + _pageSize);
        std::uint64_t idx = 0;
        for (const FrameWrite &fw : frames) {
            if (fw.pageNo > old_pages)
                continue;
            storeU32(record.data(), fw.pageNo);
            NVWAL_RETURN_IF_ERROR(_dbFile.readPage(
                fw.pageNo, ByteSpan(record.data() + 4, _pageSize)));
            NVWAL_RETURN_IF_ERROR(
                _fs.pwrite(_journalName, recordOffset(idx),
                           ConstByteSpan(record.data(), record.size())));
            ++idx;
        }
        NVWAL_RETURN_IF_ERROR(_fs.fsync(_journalName));

        // Phase 2 -- write the new page images into the database
        // file and fsync it ("the EXT4 filesystem journals the
        // database journaling operation", section 1: both fsyncs pay
        // EXT4 ordered-journal traffic on top).
        for (const FrameWrite &fw : frames) {
            NVWAL_ASSERT(fw.page.size() == _pageSize);
            NVWAL_RETURN_IF_ERROR(_dbFile.writePage(fw.pageNo, fw.page));
        }
        NVWAL_RETURN_IF_ERROR(_dbFile.sync());

        // Phase 3 -- invalidate the journal (DELETE mode removes it).
        NVWAL_RETURN_IF_ERROR(_fs.remove(_journalName));
    }
    return Status::ok();
}

Status
RollbackJournal::readPage(PageNo, ByteSpan)
{
    // The database file is always current in rollback-journal mode.
    return Status::notFound("rollback journal holds no page images");
}

Status
RollbackJournal::checkpoint()
{
    // Nothing to do: pages are written in place at commit.
    return Status::ok();
}

Status
RollbackJournal::recover(std::uint32_t *db_size_pages)
{
    *db_size_pages = 0;
    if (!_fs.exists(_journalName))
        return Status::ok();

    // A journal file exists: the last transaction did not complete.
    // If the journal is intact, roll the pre-images back; a torn
    // journal (fsync never finished) means the database file was
    // never touched, so it can simply be discarded.
    const std::uint64_t size = _fs.fileSize(_journalName);
    if (size < kHeaderSize)
        return _fs.remove(_journalName);
    std::uint8_t header[kHeaderSize];
    NVWAL_RETURN_IF_ERROR(
        _fs.pread(_journalName, 0, ByteSpan(header, sizeof(header))));
    if (loadU64(header) != kMagic)
        return _fs.remove(_journalName);
    const std::uint32_t old_pages = loadU32(header + 8);
    const std::uint32_t n_records = loadU32(header + 12);
    if (size < recordOffset(n_records))
        return _fs.remove(_journalName);  // torn journal

    ByteBuffer record(4 + _pageSize);
    for (std::uint32_t i = 0; i < n_records; ++i) {
        NVWAL_RETURN_IF_ERROR(
            _fs.pread(_journalName, recordOffset(i),
                      ByteSpan(record.data(), record.size())));
        const PageNo page_no = loadU32(record.data());
        if (page_no == kNoPage || page_no > _dbFile.pageCount())
            return Status::corruption("bad journal record");
        NVWAL_RETURN_IF_ERROR(_dbFile.writePage(
            page_no, ConstByteSpan(record.data() + 4, _pageSize)));
    }
    // Undo any growth the aborted transaction caused.
    NVWAL_RETURN_IF_ERROR(_fs.truncate(
        _dbFile.name(),
        static_cast<std::uint64_t>(old_pages) * _pageSize));
    NVWAL_RETURN_IF_ERROR(_dbFile.sync());
    return _fs.remove(_journalName);
}

} // namespace nvwal
