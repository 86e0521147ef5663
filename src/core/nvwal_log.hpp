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
 */

#ifndef NVWAL_CORE_NVWAL_LOG_HPP
#define NVWAL_CORE_NVWAL_LOG_HPP

#include <algorithm>
#include <functional>
#include <optional>
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
    static constexpr std::uint64_t kMagic = 0x3330304c4157564eULL;
    static constexpr std::uint32_t kFrameHeaderSize = 32;
    static constexpr std::uint32_t kNodeHeaderSize = 8;
    static constexpr std::uint64_t kCommitFlag = 1ULL << 63;
    /**
     * Adaptive logging granularity (DESIGN.md §14.2), active when
     * diffLogging is on: a page whose logged bytes would exceed this
     * percentage of the page size -- judged by the pager's observed
     * dirty-ratio EWMA (FrameWrite::observedDirtyPct) when provided,
     * else by the commit's own ratio -- ships as ONE full-page frame
     * instead of byte diffs. The frame is format-compatible
     * (pageOffset 0, size == page size) and doubles as a
     * full_frame_shortcut anchor that truncates the page's replay
     * chain.
     */
    static constexpr std::uint32_t kAdaptiveFullFramePct = 50;
    /**
     * Pages a checkpoint writes into the file system before starting
     * their write-out, so the page cache never holds more than one
     * 16-slot chunk of a round.
     */
    static constexpr std::uint32_t kWriteOutBatch = 16;
    /**
     * Paced round (DESIGN.md §8.4): a catch-up slice issues at most
     * this many pages, ~16 us of page copies on the Nexus 5 model,
     * so it moves a ~0.5 ms median commit by at most ~3%.
     */
    static constexpr std::uint32_t kPacedSlicePages = 16;
    /**
     * Paced round: the closer runs once at most this many pages are
     * left. It programs them synchronously (8 x 180 us), then commits
     * the fs journal (3-5 blocks) and flushes (800 us): ~3 ms, so a
     * commit carrying it stays under 5 ms.
     */
    static constexpr std::uint32_t kPacedClosePages = 8;
    /**
     * Paced round: a slice left in flight passes over pages committed
     * within this many commits. They are likely to be dirtied again
     * before the round ends, so writing them now would only be
     * repeated; the tail slice and the closer write them once.
     * Measured on e2ebench (EXPERIMENTS.md): 8 left
     * `multiwriter_hotspot`'s flash bytes 25% over the blocking
     * round's, 48 left them 15% over, and 64 lifted `mobile_oltp`'s
     * median commit 10% by pushing rounds into the hurried tail.
     */
    static constexpr CommitSeq kPacedHotCommits = 48;

    NvwalLog(NvHeap &heap, Pmem &pmem, DbFile &db_file,
             std::uint32_t page_size, std::uint32_t reserved_bytes,
             NvwalConfig config, MetricsRegistry &stats);

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
        const PageEntry *entry = findEntry(page_no);
        return entry == nullptr ? 0 : entry->frames.newestSeq();
    }
    CommitSeq commitSeq() const override { return _commitSeq; }
    std::uint32_t committedDbSize() const override { return _dbSizePages; }
    bool supportsSnapshots() const override { return true; }
    Status checkpoint() override;
    Status checkpointStep(std::uint32_t max_pages, bool *done) override;
    Status checkpointPaced(CheckpointPace pace, bool *done) override;
    Status recover(std::uint32_t *db_size_pages) override;
    std::uint64_t framesSinceCheckpoint() const override
    { return _framesSinceCheckpoint; }
    std::uint64_t pageWritesSinceCheckpoint() const override
    { return _pageWritesSinceCheckpoint; }
    const char *name() const override { return _name.c_str(); }

    /**
     * Where a log's cumulative checksum chain starts after every
     * truncation: FNV-1a 64 of its heap namespace. Logs sharing one
     * heap (distinct NvwalConfig::heapNamespace) all restart their
     * chains after truncations with colliding checkpoint ids; a
     * common seed would let one log validate another's stale frames
     * in a block it reused.
     */
    static std::uint64_t chainSeed(const std::string &heap_namespace);

    const NvwalConfig &config() const { return _config; }

    /**
     * Hands back the committed image of a page as of a commit horizon
     * from a cache that already holds it (charging the simulated DRAM
     * copy the caller is about to make), or an empty span when the
     * cache cannot prove the image current at that horizon. The span
     * stays valid until the caller's next call into the database.
     */
    using CommittedPageSource =
        std::function<ConstByteSpan(PageNo, CommitSeq)>;

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
    std::uint64_t frameIndexNodes() const { return _indexPool.liveCount(); }

    /** Committed frames currently held in the volatile index. */
    std::uint64_t indexedFrames() const { return _indexedFrames; }

    /** Committed frames indexed for @p page_no (0 when absent). */
    std::uint64_t
    indexedFrames(PageNo page_no) const
    {
        const PageEntry *entry = findEntry(page_no);
        return entry == nullptr ? 0 : entry->frames.frameCount();
    }

    /**
     * Newest commit sequence whose effects on @p page_no are
     * contained in the .db base image (checkpoint write-back);
     * frames at or below it have been reclaimed from the index.
     */
    CommitSeq
    pageBaseSeq(PageNo page_no) const
    {
        const PageEntry *entry = findEntry(page_no);
        return entry == nullptr ? 0 : entry->baseSeq;
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

    /**
     * Free the node chain hanging off the link field at @p link_field
     * tail first (section 4.3), then persist a null link there. The
     * walk stops early at a node the heap does not hold in use.
     */
    Status freeChain(NvOffset link_field);

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
     * Log every transaction of a group back to back into _refs, with
     * _txnEnd[t] the end index of transaction t's frames.
     */
    Status logGroupFrames(const std::vector<TxnFrames> &txns);

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
     * Publish one commit unit's frames [@p begin, @p end) under a
     * fresh commit sequence: stamp and index them, and queue their
     * pages for the active incremental checkpoint round.
     */
    void publishCommitted(std::vector<FrameRef>::iterator begin,
                          std::vector<FrameRef>::iterator end);

    /**
     * Restart the checksum chain at _chainSeed and zero the
     * since-checkpoint frame, page-write and node counters
     * (truncation and recovery).
     */
    void resetSinceCheckpoint();

    /** Apply one committed frame to the volatile page index. */
    void indexFrame(const FrameRef &ref);

    struct PageEntry;

    /** @p page_no's index entry, listing it on first use. */
    PageEntry &entryFor(PageNo page_no);

    /** @p page_no's listed index entry, or nullptr. */
    const PageEntry *
    findEntry(PageNo page_no) const
    {
        return page_no < _pageIndex.size() && _pageIndex[page_no].listed
                   ? &_pageIndex[page_no]
                   : nullptr;
    }

    /**
     * Empty the volatile page index (truncation and recovery): reset
     * only the listed entries and hand every radix node back to the
     * pool at once.
     */
    void resetPageIndex();

    /**
     * Drop the round's queue, re-dirtied and passed-over page lists,
     * and their flags.
     */
    void clearCkptWork();

    /** Re-publish the wal.frame_index_nodes gauge after a change. */
    void publishIndexGauge();
    /** Record the finished round's wal.checkpoint_ns sample. */
    void recordCheckpointRound();

    /** How one writeBack() call treats the device and the round's end. */
    enum class WriteBackMode
    {
        /** Wait for each batch; end the round once caught up. */
        Blocking,
        /** Leave the batches in flight; end the round once caught up. */
        Step,
        /** Leave the batches in flight; never end the round. */
        Slice,
        /** Wait for each batch; never end the round. */
        SyncSlice,
    };

    /**
     * The one checkpoint body: open a round if none is active, write
     * back up to @p max_pages pages in kWriteOutBatch-page write-out
     * batches, and -- unless @p mode is Slice -- once the round has
     * caught up with the log, fsync and truncate. Sets @p done when
     * the round ended.
     */
    Status writeBack(std::uint32_t max_pages, WriteBackMode mode,
                     bool *done);

    /**
     * Write @p page_no into the .db file at @p target -- from the
     * committed-page source, else by replay -- and prune the frames
     * that now sit in its base image. Sets @p wrote unless nothing
     * new was visible at the target.
     */
    Status writeBackPage(PageNo page_no, CommitSeq target, bool *wrote);

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
     * Make @p refs durable when the sync mode is Lazy. Any ranges
     * still pending from earlier async appends are merged into the
     * same coalesced flush batch, so a strict commit chained after
     * unhardened async commits never leaves a torn-prone prefix
     * under its own durable mark.
     */
    void syncRefs(const std::vector<FrameRef> &refs);

    /**
     * Sort and merge @p runs in place, then make them durable: one
     * dmb, a flush per merged run, a closing dmb and one persist
     * barrier. Returns the cache lines flushed.
     */
    std::uint64_t
    persistRuns(std::vector<std::pair<NvOffset, NvOffset>> &runs);

    /** Record @p ref's NVRAM range as appended-but-unflushed. */
    void deferSyncRef(const FrameRef &ref);

    /** Set + persist the commit mark on @p last (Algorithm 1 §4.1). */
    void persistCommitMark(const FrameRef &last,
                           std::uint32_t db_size_pages,
                           std::uint64_t frame_count);

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
     * NVRAM [begin, end) ranges appended by writeFrameGroupAsync(),
     * or committed under ChecksumAsync, and not yet flushed;
     * coalesced in place when they pile up.
     */
    std::vector<std::pair<NvOffset, NvOffset>> _unhardenedRuns;
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
    /**
     * Sim time at the start of the step that opened the round being
     * timed. The step that reports done records one wal.checkpoint_ns
     * sample from here, whether the round ran in one checkpoint() or
     * in many bounded steps.
     */
    std::optional<SimTime> _ckptBeginNs;
    std::vector<PageNo> _ckptQueue;   //!< current pass, ascending
    std::size_t _ckptQueuePos = 0;    //!< next queue index to drain
    /** Re-dirtied during the round, unordered (PageEntry::queued). */
    std::vector<PageNo> _ckptPending;
    /** Hot pages an in-flight slice passed over, queued again after it. */
    std::vector<PageNo> _ckptDeferred;
    PageNo _ckptLastWritten = kNoPage; //!< previous write-back target
    /** Scratch page for write-backs that replay the log. */
    ByteBuffer _ckptPage;

    // Commit-path scratch, reused across commits so a steady-state
    // append never reaches the allocator (DESIGN.md §20).
    std::vector<FrameRef> _refs;
    std::vector<std::size_t> _txnEnd;   //!< end index in _refs, per txn
    std::vector<PendingFrame> _pendingFrames;
    std::vector<ByteRange> _rangeScratch;
    std::vector<std::pair<NvOffset, NvOffset>> _runScratch;
    std::vector<NvOffset> _chainScratch;   //!< freeChain's node list

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
        bool listed = false;    //!< in _listedPages
        /** In _ckptPending, or ahead of _ckptQueuePos in _ckptQueue. */
        bool queued = false;
    };
    /**
     * Radix nodes and leaves of every page's index; outlives them.
     * Its live count backs the wal.frame_index_nodes gauge.
     */
    FrameIndex::Pool _indexPool;
    /**
     * Indexed by page number. An entry is "listed" from the first
     * frame indexed for its page until the next truncation; unlisted
     * entries are empty with baseSeq 0. Sized to the largest page
     * number ever indexed; it never shrinks.
     */
    std::vector<PageEntry> _pageIndex;
    /** Listed pages, in first-index order; a round sorts its copy. */
    std::vector<PageNo> _listedPages;
    /** Total frames held across every page's index. */
    std::uint64_t _indexedFrames = 0;
};

} // namespace nvwal

#endif // NVWAL_CORE_NVWAL_LOG_HPP
