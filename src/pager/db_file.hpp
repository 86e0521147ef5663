/**
 * @file
 * Page-granular access to the main database file (.db) stored on the
 * journaling file system. Shared by the pager (reads) and the WAL
 * implementations (checkpoint write-back).
 */

#ifndef NVWAL_PAGER_DB_FILE_HPP
#define NVWAL_PAGER_DB_FILE_HPP

#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fs/journaling_fs.hpp"

namespace nvwal
{

/** The .db file as an array of fixed-size pages (1-based numbers). */
class DbFile
{
  public:
    DbFile(JournalingFs &fs, std::string name, std::uint32_t page_size)
        : _fs(fs), _name(std::move(name)), _pageSize(page_size)
    {}

    /** Create the file if missing. */
    Status
    open()
    {
        if (!_fs.exists(_name))
            return _fs.create(_name);
        return Status::ok();
    }

    const std::string &name() const { return _name; }
    std::uint32_t pageSize() const { return _pageSize; }

    /** Number of whole pages currently in the file. */
    std::uint32_t
    pageCount() const
    {
        return static_cast<std::uint32_t>(_fs.fileSize(_name) / _pageSize);
    }

    /** Read page @p page_no into @p out (exactly one page). */
    Status
    readPage(PageNo page_no, ByteSpan out)
    {
        NVWAL_ASSERT(page_no != kNoPage && out.size() == _pageSize);
        return _fs.pread(_name, offsetOf(page_no), out);
    }

    /** Write page @p page_no (buffered until sync()). */
    Status
    writePage(PageNo page_no, ConstByteSpan data)
    {
        NVWAL_ASSERT(page_no != kNoPage && data.size() == _pageSize);
        return _fs.pwrite(_name, offsetOf(page_no), data);
    }

    /** fsync the database file (waits for any write-out first). */
    Status sync() { return _fs.fsync(_name); }

    /** Queue the buffered pages on the device without waiting. */
    Status startWriteOut() { return _fs.startWriteOut(_name); }

    /** Start an fsync on the device's timeline without waiting. */
    Status startSync() { return _fs.startSync(_name); }

    /**
     * Wait for the file's sync in flight, if any, and apply it; sets
     * @p clean when nothing was written since it started.
     */
    Status waitSync(bool *clean) { return _fs.waitSync(_name, clean); }

    /** Whether a write-out is still programming the device. */
    bool writeOutBusy() const { return _fs.writeOutBusy(); }

    /** Wait for every queued page to reach the device. */
    void waitWriteOut() { _fs.waitWriteOut(); }

  private:
    std::uint64_t
    offsetOf(PageNo page_no) const
    {
        return static_cast<std::uint64_t>(page_no - 1) * _pageSize;
    }

    JournalingFs &_fs;
    std::string _name;
    std::uint32_t _pageSize;
};

} // namespace nvwal

#endif // NVWAL_PAGER_DB_FILE_HPP
