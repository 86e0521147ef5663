/**
 * @file
 * The write-ahead-log abstraction the database commits through.
 *
 * Implementations:
 *  - FileWal (src/wal): SQLite-style WAL file on the journaling file
 *    system, in stock or optimized (aligned frames + pre-allocation)
 *    flavors -- the paper's baselines.
 *  - NvwalLog (src/core): the paper's NVRAM write-ahead log.
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
     * (NvwalConfig::adaptiveFullFrameThresholdPct).
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
     * Append frames for @p frames and, if @p commit, a commit mark
     * carrying @p db_size_pages (the database size in pages after
     * this transaction), then make everything durable.
     */
    virtual Status writeFrames(const std::vector<FrameWrite> &frames,
                               bool commit,
                               std::uint32_t db_size_pages) = 0;

    /**
     * Group commit: append every transaction in @p txns, in order,
     * and make the whole batch durable at once. Implementations that
     * can amortize the persist barriers over the batch (the paper's
     * lazy sync stretched across transactions) override this; the
     * default commits each transaction separately.
     */
    virtual Status
    writeFrameGroup(const std::vector<TxnFrames> &txns)
    {
        for (const TxnFrames &txn : txns) {
            NVWAL_RETURN_IF_ERROR(
                writeFrames(txn.frames, true, txn.dbSizePages));
        }
        return Status::ok();
    }

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
     * Incremental checkpoint: write back at most @p max_pages pages,
     * finishing (fsync + log truncation) only when every dirty page
     * has been written. Sets @p done when the log is truncated.
     * Spreading the write-back over many commits caps the latency
     * spike a full checkpoint causes (the paper amortizes that spike
     * over 1000 transactions; this bounds it instead). The default
     * implementation simply runs a full checkpoint.
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

    // ----- two-phase commit (cross-shard transactions) ---------------
    //
    // A participant shard persists its slice of a cross-shard
    // transaction as a PREPARE record (data frames + a control frame
    // carrying the global transaction id), durable but invisible: the
    // frames are staged, not applied. The coordinator then persists a
    // COMMIT or ABORT DECISION record in every participant, which
    // applies or discards the staged frames. Recovery re-stages any
    // PREPARE whose DECISION did not survive; the shard router
    // resolves those by scanning the other participants' logs
    // (presumed-abort when no decision record exists anywhere).
    // Only NvwalLog implements this; file WALs report Unsupported.

    /** Whether writePrepare()/writeDecision() are usable. */
    virtual bool supportsTwoPhase() const { return false; }

    /**
     * Phase 1: persist @p txn's frames plus a PREPARE record for
     * @p gtid, atomically (all durable or none recoverable). The
     * frames stay invisible to readers until the decision.
     */
    virtual Status
    writePrepare(std::uint64_t gtid, const TxnFrames &txn)
    {
        (void)gtid;
        (void)txn;
        return Status::unsupported("WAL has no two-phase commit");
    }

    /**
     * Phase 2: persist the DECISION record for @p gtid, then apply
     * (@p commit) or discard the staged frames.
     */
    virtual Status
    writeDecision(std::uint64_t gtid, bool commit)
    {
        (void)gtid;
        (void)commit;
        return Status::unsupported("WAL has no two-phase commit");
    }

    /**
     * Resolve a transaction left in doubt by recovery: persist the
     * decision in this log, then apply or discard its staged frames.
     * NotFound when @p gtid is not in doubt here.
     */
    virtual Status
    resolveInDoubt(std::uint64_t gtid, bool commit)
    {
        (void)gtid;
        (void)commit;
        return Status::unsupported("WAL has no two-phase commit");
    }

    /** Gtids of recovered PREPAREs still awaiting a decision. */
    virtual std::vector<std::uint64_t> inDoubtTransactions() const
    { return {}; }

    /**
     * Look up a persisted decision for @p gtid in this log; true
     * (with @p commit set) when one exists.
     */
    virtual bool
    lookupDecision(std::uint64_t gtid, bool *commit) const
    {
        (void)gtid;
        (void)commit;
        return false;
    }

    /** Largest gtid in any surviving PREPARE/DECISION record. */
    virtual std::uint64_t maxSeenGtid() const { return 0; }

    /**
     * Hold/release a truncation guard: while any hold is open the
     * log must not truncate (checkpoint rounds finish write-back but
     * retain the records). The coordinator holds every participant
     * from before the first PREPARE until all DECISIONs are durable,
     * so an in-doubt shard can always find the others' decision
     * records after a crash. Balanced; holds are volatile.
     */
    virtual void acquireTwoPhaseHold() {}
    virtual void releaseTwoPhaseHold() {}

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
