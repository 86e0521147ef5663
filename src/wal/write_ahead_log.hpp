/**
 * @file
 * The write-ahead-log abstraction the database commits through.
 *
 * Implementations:
 *  - FileWal (src/wal): SQLite-style WAL file on the journaling file
 *    system, in stock or optimized (aligned frames + pre-allocation)
 *    flavors -- the paper's baselines.
 *  - RollbackJournal (src/wal): SQLite's DELETE-mode journal.
 *  - NvwalLog (src/core): the paper's NVRAM write-ahead log.
 *
 * Appends: writeFrameGroup() is the one synchronous append. Every
 * call ends in a commit mark covering all it appended, so no log
 * carries uncommitted frames from one call to the next. NvwalLog
 * adds the unflushed writeFrameGroupAsync() + harden() pair.
 *
 * Snapshot reads: every committed transaction is assigned a
 * monotonically increasing CommitSeq. A reader opens a snapshot by
 * pinning the log's current commitSeq() and resolving pages through
 * readPageAt(), which ignores frames committed after that horizon.
 * While any pin at or below a frame's sequence is open the log must
 * neither supersede nor truncate that frame, so checkpointing is
 * bounded by oldestPin().
 */

#ifndef NVWAL_WAL_WRITE_AHEAD_LOG_HPP
#define NVWAL_WAL_WRITE_AHEAD_LOG_HPP

#include <optional>
#include <set>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pager/dirty_ranges.hpp"

namespace nvwal
{

/**
 * Monotonic sequence number assigned to each committed transaction.
 * 0 means "before any commit in this log's lifetime".
 */
using CommitSeq = std::uint64_t;

/** Horizon value meaning "no snapshot is pinned". */
inline constexpr CommitSeq kNoPin = ~static_cast<CommitSeq>(0);

/** One dirty page handed to the log at commit. */
struct FrameWrite
{
    PageNo pageNo;
    ConstByteSpan page;          //!< full page buffer
    const DirtyRanges *ranges;   //!< dirty byte ranges within the page
    /**
     * Observed dirty ratio of the page (percent, EWMA across
     * commits), tracked by the pager/workspace layer; 0 = unknown,
     * in which case the WAL judges by this commit's ranges alone.
     * Drives the adaptive diff-vs-full-page frame decision
     * (NvwalLog::kAdaptiveFullFramePct).
     */
    std::uint8_t observedDirtyPct = 0;
};

/** One transaction's frames inside a group commit. */
struct TxnFrames
{
    std::vector<FrameWrite> frames;
    std::uint32_t dbSizePages = 0;  //!< db size after this transaction
};

/** Interface every WAL implementation provides. */
class WriteAheadLog
{
  public:
    virtual ~WriteAheadLog() = default;

    /**
     * Group commit, the one synchronous append: append every
     * transaction in @p txns, in order, and make the whole batch
     * durable before returning. Each TxnFrames carries the database
     * size in pages after that transaction. NvwalLog covers the batch
     * with one barrier pair and one commit mark (the paper's lazy
     * sync stretched across transactions), so recovery keeps all of
     * it or none; the file-based logs commit each transaction
     * separately.
     */
    virtual Status writeFrameGroup(const std::vector<TxnFrames> &txns) = 0;

    /** Whether writeFrameGroupAsync()/harden() are usable. */
    virtual bool supportsAsyncCommits() const { return false; }

    /**
     * Asynchronous append (paper §3.2 checksum commit): append every
     * transaction in @p txns with its commit mark, but issue NO
     * flushes or persist barriers. The batch becomes visible to
     * readers immediately yet is guaranteed durable only after a
     * later harden(). Implementations track the unflushed ranges so
     * harden() can flush them in one coalesced barrier pair.
     */
    virtual Status
    writeFrameGroupAsync(const std::vector<TxnFrames> &txns)
    {
        (void)txns;
        return Status::unsupported("WAL does not support async commits");
    }

    /**
     * Flush every range appended by writeFrameGroupAsync() since the
     * last harden and issue one persist barrier, after which
     * hardenedSeq() == commitSeq(). No-op when nothing is pending.
     */
    virtual Status harden() { return Status::ok(); }

    /**
     * Newest commit sequence guaranteed durable. Equal to commitSeq()
     * except between an async append and the next harden().
     */
    virtual CommitSeq hardenedSeq() const { return commitSeq(); }

    /**
     * Materialize the latest committed version of @p page_no into
     * @p out (a full page buffer). Returns NotFound when the log
     * holds no committed frame for that page.
     */
    virtual Status readPage(PageNo page_no, ByteSpan out) = 0;

    /**
     * Materialize @p page_no as of snapshot horizon @p horizon,
     * ignoring frames with a later commit sequence. Only meaningful
     * between pinSnapshot(horizon) and the matching unpinSnapshot().
     * Returns NotFound when no committed frame at or below the
     * horizon covers the page, Unsupported when the implementation
     * has no snapshot support (see supportsSnapshots()).
     */
    virtual Status
    readPageAt(PageNo page_no, ByteSpan out, CommitSeq horizon)
    {
        (void)page_no;
        (void)out;
        (void)horizon;
        return Status::unsupported("WAL does not support snapshots");
    }

    /**
     * Commit sequence of the newest committed frame of @p page_no the
     * log still retains (0 when it retains none), or std::nullopt
     * when the implementation cannot tell. A known answer at or below
     * a horizon means the page's newest committed version is also its
     * version at that horizon.
     */
    virtual std::optional<CommitSeq>
    newestFrameSeq(PageNo page_no) const
    {
        (void)page_no;
        return std::nullopt;
    }

    /** Sequence of the newest committed transaction (0 = none yet). */
    virtual CommitSeq commitSeq() const { return 0; }

    /**
     * Database size in pages as of the newest committed transaction
     * (0 when the log holds none; callers fall back to the .db file).
     */
    virtual std::uint32_t committedDbSize() const { return 0; }

    /** Whether readPageAt()/pinSnapshot() are usable. */
    virtual bool supportsSnapshots() const { return false; }

    /** Write committed pages back to the .db file and reset the log. */
    virtual Status checkpoint() = 0;

    /**
     * Incremental checkpoint: write back at most @p max_pages pages
     * and start their write-out, finishing (fsync + log truncation)
     * only when every page of the round's write set has been written.
     * NvwalLog freezes that set when the step opens the round; pages
     * committed later wait for the next round. Sets @p done when the
     * round ended. The default implementation simply runs a full
     * checkpoint.
     *
     * With snapshots pinned the implementation must not advance the
     * .db file past oldestPin() nor truncate frames a pin can still
     * reach; such a round reports done=true with the log retained.
     */
    virtual Status
    checkpointStep(std::uint32_t max_pages, bool *done)
    {
        (void)max_pages;
        *done = true;
        return checkpoint();
    }

    /**
     * One step of the paced auto-checkpoint, run after a commit while
     * the device is idle (DESIGN.md §8.4). With no round open it opens
     * one: the log switches to a new segment, so the round's write set
     * is frozen at the newest commit, and the step queues every page
     * of that set on the device without waiting. With a round open it
     * closes it: the round's one fsync, then the log drops the segment
     * the round wrote back. Sets @p done when the round ended. When to
     * run a step is the caller's decision; under a pin the round
     * clamps like checkpointStep(). The default runs the full blocking
     * round: only a log whose write-back can leave programs in flight
     * paces it.
     */
    virtual Status
    checkpointPaced(bool *done)
    {
        *done = true;
        return checkpoint();
    }

    /**
     * The commit horizon a checkpoint round writes back to: an open
     * round's frozen horizon, else the newest commit. A snapshot
     * pinned below it would clamp the round.
     */
    virtual CommitSeq checkpointHorizon() const { return commitSeq(); }

    /**
     * Rebuild volatile state from the persistent log after a crash
     * or reopen. @p db_size_pages receives the last committed
     * database size (0 when the log holds no committed transaction).
     */
    virtual Status recover(std::uint32_t *db_size_pages) = 0;

    /** Committed frames appended since the last checkpoint. */
    virtual std::uint64_t framesSinceCheckpoint() const = 0;

    /**
     * Committed page writes since the last checkpoint: one per page
     * per committed transaction, however many frames the log split
     * it into -- SQLite's meaning of a WAL "frame", and the unit of
     * DbConfig::checkpointThreshold. Full-page logs write exactly
     * one frame per page write.
     */
    virtual std::uint64_t
    pageWritesSinceCheckpoint() const
    {
        return framesSinceCheckpoint();
    }

    /** Scheme name for reports (e.g. "WAL", "NVWAL UH+LS+Diff"). */
    virtual const char *name() const = 0;

    // ----- snapshot pin bookkeeping (shared by implementations) -----

    /**
     * Register an open snapshot at @p horizon. The caller obtains the
     * horizon from commitSeq() and must balance with unpinSnapshot().
     */
    void pinSnapshot(CommitSeq horizon) { _pins.insert(horizon); }

    /** Release one pin previously taken at @p horizon. */
    void
    unpinSnapshot(CommitSeq horizon)
    {
        auto it = _pins.find(horizon);
        if (it != _pins.end()) {
            _pins.erase(it);
        }
    }

    /** The lowest pinned horizon, or kNoPin when none is open. */
    CommitSeq
    oldestPin() const
    {
        return _pins.empty() ? kNoPin : *_pins.begin();
    }

    /** Whether any snapshot is currently pinned. */
    bool hasPins() const { return !_pins.empty(); }

    /** Number of currently pinned snapshots. */
    std::size_t pinCount() const { return _pins.size(); }

  private:
    std::multiset<CommitSeq> _pins;
};

} // namespace nvwal

#endif // NVWAL_WAL_WRITE_AHEAD_LOG_HPP
