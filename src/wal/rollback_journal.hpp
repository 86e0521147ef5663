/**
 * @file
 * SQLite's classic rollback journal (DELETE mode) as a third
 * baseline.
 *
 * The paper motivates write-ahead logging by contrast with the
 * rollback-journal modes (sections 1-2): a journal-mode commit
 * writes *two* files -- pre-images to the journal, then the new
 * pages into the database file -- with an fsync after each, and the
 * EXT4 journal amplifies both ("journaling of journal"). WAL needs
 * one fsync on one file; NVWAL needs none.
 *
 * Commit protocol:
 *  1. write the pre-image of every to-be-modified page (and the old
 *     database size) to the journal file; fsync;
 *  2. write the new pages into the .db file in place; fsync;
 *  3. delete the journal (the commit point).
 *
 * Recovery: a surviving journal marks an incomplete transaction --
 * restore the pre-images and truncate the file back; a torn journal
 * means phase 2 never started and is simply discarded.
 */

#ifndef NVWAL_WAL_ROLLBACK_JOURNAL_HPP
#define NVWAL_WAL_ROLLBACK_JOURNAL_HPP

#include <string>

#include "pager/db_file.hpp"
#include "sim/stats.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/** DELETE-mode rollback journal behind the WriteAheadLog interface. */
class RollbackJournal : public WriteAheadLog
{
  public:
    static constexpr std::uint64_t kMagic = 0x4c414e52554f4a52ULL;
    static constexpr std::uint32_t kHeaderSize = 16;

    RollbackJournal(JournalingFs &fs, std::string journal_name,
                    DbFile &db_file, std::uint32_t page_size,
                    MetricsRegistry &stats);

    Status writeFrameGroup(const std::vector<TxnFrames> &txns) override;
    Status readPage(PageNo page_no, ByteSpan out) override;
    Status checkpoint() override;
    Status recover(std::uint32_t *db_size_pages) override;
    std::uint64_t framesSinceCheckpoint() const override { return 0; }
    const char *name() const override { return "Rollback journal"; }

  private:
    std::uint64_t recordOffset(std::uint64_t idx) const;

    JournalingFs &_fs;
    std::string _journalName;
    DbFile &_dbFile;
    std::uint32_t _pageSize;
    MetricsRegistry &_stats;
};

} // namespace nvwal

#endif // NVWAL_WAL_ROLLBACK_JOURNAL_HPP
