/**
 * @file
 * NVWAL: the NVRAM write-ahead log (the paper's core contribution).
 *
 * Persistent layout, all inside NvHeap allocations:
 *
 *   namespace "nvwal" -> header allocation:
 *     0   magic u64
 *     8   page size u32, reserved bytes u32
 *     16  checkpoint id u64
 *     24  first node offset u64 (kNullNvOffset when the log is empty)
 *
 *   log node (one heap allocation; the user-level heap packs many
 *   frames per node, the LS baseline holds one frame per node):
 *     0   next node offset u64
 *     8   frames, each 8-byte aligned
 *
 *   WAL frame (32-byte header + payload, section 3.2):
 *     0   page number u32
 *     4   in-page offset u16
 *     6   payload size u16
 *     8   commit word u64 -- 0, or kCommitFlag | dbSizePages.
 *         Excluded from the checksum so the commit mark can be set
 *         by a single 8-byte atomic store after the payload is
 *         durable (section 4.1).
 *     16  checkpoint id u64
 *     24  cumulative checksum u64 over [0, 8) + [16, 24) + payload,
 *         chained across all frames since the last checkpoint, so
 *         recovery detects any torn or missing prefix (and gives the
 *         ChecksumAsync variant its probabilistic commit validity,
 *         section 4.2). The chain starts at chainSeed() of the log's
 *         heap namespace, so logs sharing one heap never validate
 *         each other's frames in a reused block.
 *
 * Commit protocol (Algorithm 1): frames are memcpy'd into NVRAM,
 * synchronized per the SyncMode, and only then is the last frame's
 * commit word written, flushed and persisted. Recovery replays
 * frames up to the last frame whose chain verifies and whose commit
 * word is set; everything after is discarded and the heap reclaims
 * pending blocks (section 4.3).
 *
 * Two-phase commit records (DESIGN.md §10): a control frame is an
 * ordinary chained frame whose page number is kControlPage and whose
 * 24-byte payload encodes {magic u32, type u32, gtid u64,
 * dbSizePages u32, pad u32}. A PREPARE unit is the transaction's
 * data frames followed by a PREPARE control frame; the commit word
 * is set on the control frame, making the unit durable, but the
 * data frames are *staged* (not applied) until a COMMIT/ABORT
 * DECISION control frame for the same gtid lands. Recovery
 * re-stages surviving PREPAREs whose decision is missing; the shard
 * router resolves them across participant logs (presumed-abort).
 * Checkpoint truncation is deferred while staged transactions or
 * coordinator holds exist, so decision records stay findable.
 */

#ifndef NVWAL_CORE_NVWAL_LOG_HPP
#define NVWAL_CORE_NVWAL_LOG_HPP

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "core/frame_index.hpp"
#include "core/nvwal_config.hpp"
#include "heap/nv_heap.hpp"
#include "pager/db_file.hpp"
#include "wal/write_ahead_log.hpp"

namespace nvwal
{

/** The NVRAM write-ahead log. */
class NvwalLog : public WriteAheadLog
{
  public:
    static constexpr std::uint64_t kMagic = 0x3230304c4157564eULL;
    static constexpr std::uint32_t kFrameHeaderSize = 32;
    static constexpr std::uint32_t kNodeHeaderSize = 8;
    static constexpr std::uint64_t kCommitFlag = 1ULL << 63;

    /**
     * Frame page number marking a 2PC control frame. Distinct from
     * kNoPage (0), which recovery treats as "no frame here"; real
     * pages are allocated sequentially from 1 and can never reach it.
     */
    static constexpr PageNo kControlPage = ~static_cast<PageNo>(0);
    static constexpr std::uint32_t kControlMagic = 0x43325043; // "C2PC"
    static constexpr std::uint32_t kCtrlPrepare = 1;
    static constexpr std::uint32_t kCtrlCommit = 2;
    static constexpr std::uint32_t kCtrlAbort = 3;
    static constexpr std::uint32_t kControlPayloadSize = 24;

    NvwalLog(NvHeap &heap, Pmem &pmem, DbFile &db_file,
             std::uint32_t page_size, std::uint32_t reserved_bytes,
             NvwalConfig config, MetricsRegistry &stats);

    Status writeFrames(const std::vector<FrameWrite> &frames, bool commit,
                       std::uint32_t db_size_pages) override;
    Status writeFrameGroup(const std::vector<TxnFrames> &txns) override;
    bool supportsAsyncCommits() const override { return true; }
    Status writeFrameGroupAsync(const std::vector<TxnFrames> &txns) override;
    Status harden() override;
    CommitSeq hardenedSeq() const override { return _hardenedSeq; }
    Status readPage(PageNo page_no, ByteSpan out) override;
    Status readPageAt(PageNo page_no, ByteSpan out,
                      CommitSeq horizon) override;
    std::optional<CommitSeq>
    newestFrameSeq(PageNo page_no) const override
    {
        const auto it = _pageIndex.find(page_no);
        return it == _pageIndex.end() ? 0 : it->second.frames.newestSeq();
    }
    CommitSeq commitSeq() const override { return _commitSeq; }
    std::uint32_t committedDbSize() const override { return _dbSizePages; }
    bool supportsSnapshots() const override { return true; }
    Status checkpoint() override;
    Status checkpointStep(std::uint32_t max_pages, bool *done) override;
    Status recover(std::uint32_t *db_size_pages) override;
    std::uint64_t framesSinceCheckpoint() const override
    { return _framesSinceCheckpoint; }
    std::uint64_t pageWritesSinceCheckpoint() const override
    { return _pageWritesSinceCheckpoint; }
    const char *name() const override { return _name.c_str(); }

    /**
     * Where a log's cumulative checksum chain starts after every
     * truncation: FNV-1a 64 of its heap namespace. Logs sharing one
     * heap (shards) all restart their chains
     * after truncations with colliding checkpoint ids; a common seed
     * would let one log validate another's stale frames in a block
     * it reused.
     */
    static std::uint64_t chainSeed(const std::string &heap_namespace);

    // ---- two-phase commit (DESIGN.md §10) --------------------------

    bool supportsTwoPhase() const override { return true; }
    Status writePrepare(std::uint64_t gtid,
                        const TxnFrames &txn) override;
    Status writeDecision(std::uint64_t gtid, bool commit) override;
    Status resolveInDoubt(std::uint64_t gtid, bool commit) override;
    std::vector<std::uint64_t> inDoubtTransactions() const override;
    bool lookupDecision(std::uint64_t gtid, bool *commit) const override;
    std::uint64_t maxSeenGtid() const override { return _maxSeenGtid; }
    void acquireTwoPhaseHold() override { ++_twoPhaseHolds; }
    void
    releaseTwoPhaseHold() override
    {
        NVWAL_ASSERT(_twoPhaseHolds > 0);
        --_twoPhaseHolds;
    }

    const NvwalConfig &config() const { return _config; }

    /**
     * Copies the committed image of a page as of a commit horizon
     * from a cache that already holds it, or returns false (nothing
     * copied) when the cache cannot prove the image current at that
     * horizon.
     */
    using CommittedPageSource =
        std::function<bool(PageNo, CommitSeq, ByteSpan)>;

    /**
     * Install the source checkpoint write-back asks before rebuilding
     * a page from its .db base and logged diffs (DESIGN.md §16).
     */
    void setCommittedPageSource(CommittedPageSource source)
    { _committedPageSource = std::move(source); }

    /**
     * Monotonic checkpoint-round id from the persistent header. Bumped
     * by every truncation, recovered verbatim — the flight recorder
     * stamps durable-claim records with it so forensic cross-checks
     * can tell whether a claimed commit-mark count predates the
     * recovered truncation horizon (DESIGN.md §12).
     */
    std::uint64_t checkpointId() const { return _checkpointId; }

    // ---- introspection for tests and benches ----------------------

    /** Heap allocations (log nodes) currently linked in the chain. */
    std::uint64_t nodeCount() const;

    /**
     * Cached count of live log nodes; must always equal nodeCount().
     * Recovery recounts it after truncating uncommitted tail nodes.
     */
    std::uint64_t nodesSinceCheckpoint() const
    { return _nodesSinceCheckpoint; }

    /** Average frames stored per node since the last checkpoint. */
    double framesPerNode() const;

    /**
     * Heap blocks reachable from the log's persistent structure: the
     * header allocation's extent plus every linked node's extent.
     * After recovery this must equal the heap's total in-use block
     * count -- the sweep harness's NVRAM-leak invariant.
     */
    std::uint64_t reachableNvramBlocks() const;

    /** NVRAM offset where the next frame will be placed (tests). */
    NvOffset
    tailOffset() const
    {
        return _tailNode == kNullNvOffset ? kNullNvOffset
                                          : _tailNode + _tailUsed;
    }

    /** Current cumulative-checksum chain value (tests). */
    std::uint64_t chainValue() const { return _chain.value(); }

    /** Live radix nodes across every per-page frame index. */
    std::uint64_t frameIndexNodes() const { return _frameIndexNodes; }

    /** Committed frames currently held in the volatile index. */
    std::uint64_t indexedFrames() const { return _indexedFrames; }

    /** Committed frames indexed for @p page_no (0 when absent). */
    std::uint64_t
    indexedFrames(PageNo page_no) const
    {
        const auto it = _pageIndex.find(page_no);
        return it == _pageIndex.end() ? 0
                                      : it->second.frames.frameCount();
    }

    /**
     * Newest commit sequence whose effects on @p page_no are
     * contained in the .db base image (checkpoint write-back);
     * frames at or below it have been reclaimed from the index.
     */
    CommitSeq
    pageBaseSeq(PageNo page_no) const
    {
        const auto it = _pageIndex.find(page_no);
        return it == _pageIndex.end() ? 0 : it->second.baseSeq;
    }

  private:
    struct FrameRef
    {
        NvOffset off;           //!< frame header offset
        PageNo pageNo;
        std::uint16_t pageOffset;
        std::uint16_t size;     //!< payload bytes
        CommitSeq seq = 0;      //!< commit sequence (volatile, index-only)
    };

    /**
     * A frame whose placement has been deferred so the transaction's
     * total size is known first; the payload still lives in the
     * caller's page buffer.
     */
    struct PendingFrame
    {
        PageNo pageNo;
        std::uint16_t pageOffset;
        ConstByteSpan payload;
    };

    /**
     * A prepared transaction: durable in the log (its PREPARE unit
     * carries a commit mark) but not applied -- the refs are absent
     * from _pageIndex until a commit decision assigns them a
     * sequence, or an abort decision drops them.
     */
    struct StagedTxn
    {
        std::vector<FrameRef> refs;
        std::uint32_t dbSizePages = 0;
    };

    NvOffset headerFieldOff(std::uint32_t field) const
    { return _headerOff + field; }
    NvOffset firstNodeFieldOff() const { return headerFieldOff(24); }
    NvOffset checkpointIdFieldOff() const { return headerFieldOff(16); }

    Status initHeader();
    Status loadHeader();

    /** Persist a single 8-byte field: store, fence, flush, persist. */
    void persistU64(NvOffset off, std::uint64_t value);

    /** Allocate + link a new log node with >= @p min_payload bytes. */
    Status appendNode(std::uint32_t min_payload);

    /** Place one frame; returns its header offset. */
    Status placeFrame(PageNo page_no, std::uint16_t page_offset,
                      ConstByteSpan payload, NvOffset *frame_off);

    /**
     * Log one transaction's frames: expand every FrameWrite into its
     * dirty ranges, reserve one contiguous tail-node run for the
     * whole transaction (paper §4.2's marshalling), then place the
     * frames back to back. Eager mode still synchronizes per frame.
     * Appends one FrameRef per placed frame to @p refs.
     */
    Status logTxnFrames(const std::vector<FrameWrite> &frames,
                        std::vector<FrameRef> *refs);

    /**
     * Ensure the tail node can hold @p bytes contiguously (user-heap
     * mode only). Falls back to per-frame allocation when the heap
     * cannot produce one extent of that size.
     */
    Status reserveContiguous(std::uint32_t bytes);

    /**
     * Page writes in one commit unit's data frames: every maximal run
     * of consecutive frames of one page is one write. logTxnFrames
     * emits all of a page's ranges back to back, so this is one per
     * page per transaction, whatever the diff format -- and recovery
     * recomputes exactly the same count from the surviving frames.
     */
    static std::uint64_t
    countPageWrites(std::vector<FrameRef>::const_iterator begin,
                    std::vector<FrameRef>::const_iterator end);

    /** Count @p refs as committed frames and page writes. */
    void noteCommitted(std::vector<FrameRef>::const_iterator begin,
                       std::vector<FrameRef>::const_iterator end);

    /**
     * Restart the checksum chain at _chainSeed and zero the
     * since-checkpoint frame, page-write and node counters
     * (truncation and recovery).
     */
    void resetSinceCheckpoint();

    /** Apply one committed frame to the volatile page index. */
    void indexFrame(const FrameRef &ref);

    /** Re-publish the wal.frame_index_nodes gauge after a change. */
    void publishIndexGauge();

    /**
     * Shared page materialization: base .db image plus committed
     * diffs with seq <= @p horizon, in log order. kNoPin reads the
     * newest committed version. @p effective_out (optional) reports
     * the newest commit sequence folded into the image.
     */
    Status materializePage(PageNo page_no, ByteSpan out,
                           CommitSeq horizon,
                           CommitSeq *effective_out = nullptr);

    /**
     * Make @p refs durable when the sync mode is Lazy or @p force is
     * set (2PC records harden eagerly under every mode). Any ranges
     * still pending from earlier async appends are merged into the
     * same coalesced flush batch, so a strict commit chained after
     * unhardened async commits never leaves a torn-prone prefix
     * under its own durable mark.
     */
    void syncRefs(const std::vector<FrameRef> &refs, bool force);

    /** Record @p ref's NVRAM range as appended-but-unflushed. */
    void deferSyncRef(const FrameRef &ref);

    /** Set + persist the commit mark on @p last (Algorithm 1 §4.1). */
    void persistCommitMark(const FrameRef &last,
                           std::uint32_t db_size_pages,
                           std::uint64_t frame_count);

    /** Place one 2PC control frame (chained like any frame). */
    Status placeControlFrame(std::uint32_t type, std::uint64_t gtid,
                             std::uint32_t db_size_pages, FrameRef *out);

    /**
     * Volatile half of a decision: apply (fresh commit sequence,
     * index, size update) or discard the staged refs of @p gtid, and
     * remember the decision for cross-shard lookups. No-op when the
     * gtid is not staged (its prepare was already resolved).
     */
    void applyDecision(std::uint64_t gtid, bool commit);

    /**
     * The commit horizon a checkpoint round may write back to the
     * .db file: the newest commit, clamped so the base image never
     * advances past the oldest pinned snapshot.
     */
    CommitSeq checkpointTarget() const
    { return std::min(oldestPin(), _commitSeq); }

    NvHeap &_heap;
    Pmem &_pmem;
    DbFile &_dbFile;
    std::uint32_t _pageSize;
    std::uint32_t _reservedBytes;
    NvwalConfig _config;
    MetricsRegistry &_stats;
    // Per-phase latency histograms (sim ns); registry-owned, so the
    // references stay valid for the log's lifetime.
    Histogram &_logWriteHist;
    Histogram &_commitMarkHist;
    Histogram &_checkpointHist;
    Histogram &_recoverHist;
    std::string _name;

    // Volatile state, rebuilt by recover().
    NvOffset _headerOff = kNullNvOffset;
    std::uint64_t _checkpointId = 0;
    NvOffset _tailNode = kNullNvOffset;   //!< last node in the chain
    std::uint32_t _tailUsed = 0;          //!< bytes used in tail node
    std::uint32_t _tailCapacity = 0;      //!< tail node total bytes
    /** NVRAM offset of the link field to store the next node into. */
    NvOffset _linkFieldOff = kNullNvOffset;
    /** chainSeed(heapNamespace), where _chain restarts. */
    std::uint64_t _chainSeed;
    CumulativeChecksum _chain;
    /** Committed frames on media since the last truncation. */
    std::uint64_t _framesSinceCheckpoint = 0;
    /**
     * Committed page writes since the last truncation (see
     * countPageWrites); the auto-checkpoint trigger's unit.
     */
    std::uint64_t _pageWritesSinceCheckpoint = 0;
    std::uint64_t _nodesSinceCheckpoint = 0;
    std::uint32_t _dbSizePages = 0;
    /**
     * Sequence of the newest committed transaction. Monotonic across
     * checkpoints (pinned snapshots outlive log truncation); rebuilt
     * by recover(), which runs only while no snapshot is open.
     */
    CommitSeq _commitSeq = 0;
    /**
     * Newest commit sequence known durable. Trails _commitSeq only
     * while async-appended ranges sit in _unhardenedRuns; harden()
     * (or any flush that merges the runs) catches it up.
     */
    CommitSeq _hardenedSeq = 0;
    /**
     * NVRAM [begin, end) ranges appended by writeFrameGroupAsync()
     * and not yet flushed; coalesced in place when they pile up.
     */
    std::vector<std::pair<NvOffset, NvOffset>> _unhardenedRuns;
    /** Frames logged but not yet covered by a commit mark. */
    std::vector<FrameRef> _pendingRefs;
    /**
     * Prepared-but-undecided transactions by gtid. At most one entry
     * in steady state (the coordinator holds this shard's writer
     * lock from prepare to decision); recovery may briefly hold the
     * re-staged in-doubt set until the router resolves it.
     */
    std::map<std::uint64_t, StagedTxn> _staged;
    /** Durable decisions seen (live writes + recovery walk). */
    std::map<std::uint64_t, bool> _decisions;
    /** Largest gtid in any surviving PREPARE/DECISION record. */
    std::uint64_t _maxSeenGtid = 0;
    /** Open coordinator truncation guards (see acquireTwoPhaseHold). */
    std::uint32_t _twoPhaseHolds = 0;
    CommittedPageSource _committedPageSource;
    /**
     * The in-progress incremental checkpoint round. The round drains
     * _ckptQueue front to back -- pages in ascending order, so the
     * block device sees sequential writes (Fig. 8). Pages committed
     * while the round is active land in _ckptPending and are drained
     * by catch-up passes (again ascending) until no re-dirtied page
     * remains; replaying absolute-byte diffs is idempotent, so
     * partial write-backs are always crash-safe.
     */
    bool _ckptRoundActive = false;
    std::vector<PageNo> _ckptQueue;   //!< current pass, ascending
    std::size_t _ckptQueuePos = 0;    //!< next queue index to drain
    std::set<PageNo> _ckptPending;    //!< re-dirtied during the round
    PageNo _ckptLastWritten = kNoPage; //!< previous write-back target
    /**
     * One page's volatile read-path state: the radix frame index
     * over its retained committed frames (DESIGN.md §14), plus
     * baseSeq — the newest commit sequence whose effects the .db
     * base image already contains (advanced by checkpoint
     * write-back, which then reclaims the frames at or below it).
     */
    struct PageEntry
    {
        FrameIndex frames;
        CommitSeq baseSeq = 0;
    };
    /** page -> committed-frame index + checkpointed base horizon. */
    std::map<PageNo, PageEntry> _pageIndex;
    /** Total frames held across every page's index. */
    std::uint64_t _indexedFrames = 0;
    /** Live radix nodes across every page's index (gauge backing). */
    std::uint64_t _frameIndexNodes = 0;
};

} // namespace nvwal

#endif // NVWAL_CORE_NVWAL_LOG_HPP
