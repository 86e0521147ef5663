/**
 * @file
 * NVWAL: the NVRAM write-ahead log (the paper's core contribution).
 *
 * Persistent layout, all inside NvHeap allocations:
 *
 *   namespace "nvwal" -> header allocation:
 *     0   magic u64
 *     8   page size u32, reserved bytes u32
 *     16  checkpoint id u64 -- the epoch of the head segment's frames
 *     24  first node offset u64 (kNullNvOffset when the log is empty)
 *     32  segment node u64: first node of the log's second segment,
 *         the one a checkpoint round switched to (kNullNvOffset when
 *         the log is one segment)
 *     40  segment epoch u64: the epoch of the second segment's frames,
 *         the highest epoch ever given to a segment
 *     48  retired-prefix head u64: first node of a prefix whose
 *         retirement is under way (kNullNvOffset when none)
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
 *     8   commit word u64 -- 0, or kCommitFlag | the low 31 bits of
 *         the frame's cumulative checksum << 32 | dbSizePages.
 *         Excluded from the checksum so the commit mark can be set
 *         by a single 8-byte atomic store after the payload is
 *         durable (section 4.1); the checksum bits stop a stale word
 *         left in a reused block from reading as a mark.
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
    /** "NVWAL004", little-endian. */
    static constexpr std::uint64_t kMagic = 0x3430304c4157564eULL;
    static constexpr std::uint32_t kFrameHeaderSize = 32;
    static constexpr std::uint32_t kNodeHeaderSize = 8;
    static constexpr std::uint64_t kCommitFlag = 1ULL << 63;

    /** The commit word that marks a frame whose checksum is @p chain. */
    static std::uint64_t
    commitWord(std::uint64_t chain, std::uint32_t db_size_pages)
    {
        return kCommitFlag | (chain & 0x7fffffffULL) << 32 | db_size_pages;
    }

    /**
     * Whether @p word, read from a frame whose stored checksum is
     * @p chain, is its commit mark. An adversarial crash can drop the
     * 8-byte store that zeroed the word of a frame placed over a
     * reused block; what it leaves there is not a mark.
     */
    static bool
    isCommitMark(std::uint64_t word, std::uint64_t chain)
    {
        return word >> 32 == (commitWord(chain, 0) >> 32);
    }
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
    Status checkpointPaced(bool *done) override;
    CommitSeq checkpointHorizon() const override
    { return _ckptRoundActive ? _roundSeq : _commitSeq; }
    bool roundSyncStarted() const override { return _roundSyncStarted; }
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
     * Monotonic checkpoint-round id from the persistent header: the
     * epoch of the log's head segment. Raised by every truncation and
     * every segment retirement, recovered verbatim — the flight recorder
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

    /**
     * Commit sequence the last truncation or segment retirement wrote
     * back through: every frame the log still holds is newer.
     */
    CommitSeq retiredSeq() const { return _retiredSeq; }

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
        std::uint64_t chain = 0; //!< cumulative checksum stored in it
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
    NvOffset segmentNodeFieldOff() const { return headerFieldOff(32); }
    NvOffset segmentEpochFieldOff() const { return headerFieldOff(40); }
    NvOffset retireHeadFieldOff() const { return headerFieldOff(48); }
    static constexpr std::uint32_t kHeaderBytes = 56;

    Status initHeader();
    Status loadHeader();

    /** Persist a single 8-byte field: store, fence, flush, persist. */
    void persistU64(NvOffset off, std::uint64_t value);

    /**
     * Allocate + link a new log node with >= @p min_payload bytes.
     * After a round's switch the node starts the second segment: its
     * frames take a fresh epoch and restart the checksum chain.
     */
    Status appendNode(std::uint32_t min_payload);

    /** Whether the next frame needs a new node. */
    bool
    needsNode(std::uint32_t bytes) const
    {
        return _tailNode == kNullNvOffset || _switchPending ||
               _tailUsed + bytes > _tailCapacity;
    }

    /**
     * Free the node chain hanging off the link field at @p link_field
     * tail first (section 4.3), then persist a null link there. The
     * walk stops early at a node the heap does not hold in use.
     */
    Status freeChain(NvOffset link_field);

    /**
     * Free a retired prefix, the nodes from @p head up to @p stop
     * (exclusive), in one batched heap call. The walk follows links
     * through nodes already freed and frees only those in use.
     * Counts the nodes freed in @p freed.
     */
    Status freePrefix(NvOffset head, NvOffset stop, std::uint64_t *freed);

    /**
     * Retire the head segment once the round that switched to the
     * second one has fsynced: the header then points at the segment
     * node and the prefix before it is freed. The retired-prefix
     * record makes it crash-atomic.
     */
    Status retirePrefix();

    /**
     * The steps of a retirement after its record names the prefix
     * head @p head; each is idempotent, so recovery rolls an
     * interrupted retirement forward with it.
     */
    Status finishRetirement(NvOffset head);

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
     * fresh commit sequence: stamp and index them.
     */
    void publishCommitted(std::vector<FrameRef>::iterator begin,
                          std::vector<FrameRef>::iterator end);

    /**
     * Restart the checksum chain at _chainSeed and zero the
     * since-checkpoint frame, page-write and node counters, and the
     * head segment's (truncation and recovery).
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
     * Unlist the entries whose frames a segment retirement left
     * empty; the others keep their frames and baseSeq.
     */
    void unlistEmptyPages();

    /** End the round: drop its queue and any switch not yet made. */
    void endRound();

    /** Re-publish the wal.frame_index_nodes gauge after a change. */
    void publishIndexGauge();
    /** Record the finished round's wal.checkpoint_ns sample. */
    void recordCheckpointRound();

    /** How one writeBack() call treats the device and the round's end. */
    enum class WriteBackMode
    {
        /** Wait for each batch; end the round once its set is written. */
        Blocking,
        /** Leave the batches in flight; end the round likewise. */
        Step,
        /**
         * Write the whole set and leave it in flight with the round's
         * fsync (JournalingFs::startSync) behind it; never end the
         * round.
         */
        Queue,
    };

    /**
     * The one checkpoint body: open a round if none is active, write
     * back up to @p max_pages pages of its frozen set in
     * kWriteOutBatch-page write-out batches, and -- unless @p mode is
     * Queue, which only starts the fsync -- once the set is written,
     * fsync and retire what the round covered. Sets @p done when the
     * round ended; the caller records the round's sample.
     */
    Status writeBack(std::uint32_t max_pages, WriteBackMode mode,
                     bool *done);

    /**
     * Open a round at the newest commit: freeze its page set and
     * target, and switch the log to a new segment if it has only one.
     */
    void openRound();

    /**
     * End a round whose set is written: apply the opener's sync when
     * it covers the round, else fsync; then truncate the log, retire
     * its head segment, or -- clamped by a pin -- keep it.
     */
    Status closeRound();

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
    /** The epoch new frames carry: the second segment's, if any. */
    std::uint64_t _frameEpoch = 0;
    /** First node of the second segment, or kNullNvOffset. */
    NvOffset _segmentNode = kNullNvOffset;
    /** Highest epoch given to a segment (header field 40). */
    std::uint64_t _segmentEpoch = 0;
    /** A round opened on a one-segment log: the next node switches. */
    bool _switchPending = false;
    /** The round's opener started the .db file's sync. */
    bool _roundSyncStarted = false;
    /** Since-checkpoint counters of the head segment alone. */
    std::uint64_t _headFrames = 0;
    std::uint64_t _headPageWrites = 0;
    std::uint64_t _headNodes = 0;
    /** See retiredSeq(). */
    CommitSeq _retiredSeq = 0;
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
     * The in-progress checkpoint round. It drains _ckptQueue, the
     * pages the log held when it opened, front to back -- ascending,
     * so the block device sees sequential writes (Fig. 8) -- at the
     * target frozen then. Pages committed later land in the second
     * segment and wait for the next round; replaying absolute-byte
     * diffs is idempotent, so partial write-backs are crash-safe.
     */
    bool _ckptRoundActive = false;
    /**
     * Sim time at the start of the step that opened the round being
     * timed. The step that reports done records one wal.checkpoint_ns
     * sample from here, whether the round ran in one checkpoint() or
     * in many bounded steps.
     */
    std::optional<SimTime> _ckptBeginNs;
    std::vector<PageNo> _ckptQueue;   //!< the round's page set, ascending
    std::size_t _ckptQueuePos = 0;    //!< next queue index to drain
    CommitSeq _roundSeq = 0;          //!< newest commit at the round's open
    /** _roundSeq clamped to the oldest pin at the open. */
    CommitSeq _roundTarget = 0;
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
