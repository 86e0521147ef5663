/**
 * @file
 * Canonical metric names: the one list the platform model records
 * under.
 *
 * Components increment counters (cache lines flushed, NVRAM bytes
 * logged, journal blocks written, heap-manager calls, ...), set
 * gauges and record histograms in the obs::MetricsRegistry, and the
 * benchmark harness snapshots/deltas them to regenerate the paper's
 * tables. Every name below is documented in docs/MODEL.md or
 * docs/OBSERVABILITY.md (tools/lint_counter_names.py checks both
 * directions).
 *
 * Each row of NVWAL_STATS_METRICS mints one stats::kX constant, a
 * MetricName whose registry slot is the row's position in the list:
 * no slot is numbered by hand, so adding a metric is adding a row
 * (DESIGN.md §19). A MetricName converts to `const char *`, so the
 * constants still read as plain C strings wherever one is expected.
 */

#ifndef NVWAL_SIM_STATS_HPP
#define NVWAL_SIM_STATS_HPP

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace nvwal
{

namespace stats
{

/**
 * X(identifier, "dotted.name") for every canonical metric; a row's
 * position is its registry slot. Expand with a two-argument macro.
 */
#define NVWAL_STATS_METRICS(X)                                                \
    X(kNvramBytesLogged, "nvram.bytes_logged")                                \
    X(kNvramBytesRead, "nvram.bytes_read")                                    \
    X(kNvramLinesFlushed, "nvram.lines_flushed")                              \
    X(kNvramFramesWritten, "nvram.frames_written")                            \
    X(kMemoryBarriers, "pmem.memory_barriers")                                \
    X(kPersistBarriers, "pmem.persist_barriers")                              \
    X(kFlushSyscalls, "pmem.flush_syscalls")                                  \
    X(kHeapCalls, "heap.manager_calls")                                       \
    X(kHeapBlocksAllocated, "heap.blocks_allocated")                          \
    /* Allocations released, one per nvFree() and one per extent of         \
     * an nvFreeBatch(). */                                                   \
    X(kHeapExtentsFreed, "heap.extents_freed")                                \
    X(kBlocksWritten, "blockdev.blocks_written")                              \
    X(kBlocksRead, "blockdev.blocks_read")                                    \
    X(kJournalBlocksWritten, "fs.journal_blocks")                             \
    X(kFsyncs, "fs.fsyncs")                                                   \
    /* Device timeline (docs/MODEL.md §3): blocks a write-out or a            \
     * sync queued without waiting; the sim ns a read or a synchronous        \
     * write waited for queued programs to complete; and the sim ns           \
     * an fsync waited for them, apart, so a wait on the commit path          \
     * shows in the first. */                                                 \
    X(kFsBlocksWrittenOut, "fs.blocks_written_out")                           \
    X(kBlockdevWaitNs, "blockdev.wait_ns")                                    \
    X(kBlockdevFsyncWaitNs, "blockdev.fsync_wait_ns")                         \
    /* Asynchronous fsyncs (JournalingFs::startSync) issued, and the          \
     * ones whose cache flush completed and whose inode was applied;          \
     * each applied one also counts in fs.fsyncs. */                          \
    X(kFsSyncsStarted, "fs.syncs_started")                                    \
    X(kFsSyncsApplied, "fs.syncs_applied")                                    \
    X(kCheckpoints, "db.checkpoints")                                         \
    /* Checkpoint rounds that switched the NVRAM log to a new segment,        \
     * and the head-segment nodes their retirements freed (DESIGN.md          \
     * §8.4). */                                                              \
    X(kWalSegmentSwitches, "wal.segment_switches")                            \
    X(kWalRetiredPrefixNodes, "wal.retired_prefix_nodes")                     \
    /* Auto-checkpoint rounds that failed after their commit was              \
     * durable; the commit still returns OK and the next commit               \
     * retries the round. */                                                  \
    X(kAutoCheckpointFailures, "db.auto_checkpoint_failures")                 \
    /* Commits past the threshold whose auto-checkpoint step waited           \
     * for a snapshot pinned below the newest commit. */                      \
    X(kAutoCheckpointPinWaits, "db.auto_checkpoint_pin_waits")                \
    X(kTxnsCommitted, "db.txns_committed")                                    \
    X(kWalFullPageFrames, "wal.full_page_frames")                             \
                                                                              \
    /* Concurrency layer: snapshot readers, group commit, pinned              \
     * checkpoints (docs/OBSERVABILITY.md §concurrency). */                   \
    X(kSnapshotsOpened, "db.snapshots_opened")                                \
    X(kSnapshotReads, "db.snapshot_reads")                                    \
    X(kSnapshotCacheHits, "db.snapshot_cache_hits")                           \
    /* Snapshot-cache misses served by copying the shared pager's             \
     * clean image instead of rebuilding the page (DESIGN.md §16). */         \
    X(kSnapshotPagerFetches, "db.snapshot_pager_fetches")                     \
    X(kGroupCommits, "db.group_commits")                                      \
    X(kGroupCommitTxns, "db.group_commit_txns")                               \
    X(kCheckpointsPinBlocked, "wal.checkpoints_pin_blocked")                  \
                                                                              \
    /* Asynchronous durability pipeline (DESIGN.md §11). Epoch                \
     * batching of persist barriers plus recovery-side checksum-              \
     * commit classification: torn frames are units whose content             \
     * failed the chain verification, discarded frames are intact             \
     * units beyond the recoverable prefix, and lost marks meter the          \
     * loss window in commit events. */                                       \
    X(kDbAsyncCommits, "db.async_commits")                                    \
    X(kWalEpochsHardened, "wal.epochs_hardened")                              \
    X(kWalHardenBatches, "wal.harden_batches")                                \
    X(kWalTornFramesDetected, "wal.torn_frames_detected")                     \
    X(kWalRecoveryFramesDiscarded, "wal.recovery_frames_discarded")           \
    X(kWalRecoveryLostMarks, "wal.recovery_lost_marks")                       \
                                                                              \
    /* Optimistic multi-writer transactions (DESIGN.md §13): commit-          \
     * time validation failures and transact() retries after a                \
     * conflict. */                                                           \
    X(kWalLogConflicts, "wal.log_conflicts")                                  \
    X(kDbTxnConflictRetries, "db.txn_conflict_retries")                       \
    /* Counters of the retired per-connection-log engine: its                 \
     * recovery-time epoch merge and its group hardens. Multi-writer          \
     * commits now go through the one group-commit pipeline, so these         \
     * always read 0; the names survive because the e2ebench driver           \
     * (frozen with the benchmark) still reads them. */                       \
    X(kWalEpochMergeTxns, "wal.epoch_merge_txns")                             \
    X(kWalEpochMergeGapDiscarded, "wal.epoch_merge_gap_discarded")            \
    X(kWalMwHardens, "wal.mw_hardens")                                        \
                                                                              \
    /* NVRAM flight recorder (DESIGN.md §12, docs/OBSERVABILITY.md            \
     * §7). Records appended to the persistent telemetry ring, slots          \
     * whose checksum failed at the recovery-time parse (torn plain-          \
     * store tails, discarded like §3.2 commit marks), and full laps          \
     * of the ring. */                                                        \
    X(kFrRecordsWritten, "fr.records_written")                                \
    X(kFrRecordsTornDiscarded, "fr.records_torn_discarded")                   \
    X(kFrRingWraps, "fr.ring_wraps")                                          \
                                                                              \
    /* Trace events overwritten because the Tracer ring wrapped.              \
     * Never added to: snapshot() fills it in from Tracer::dropped()          \
     * while the ring has wrapped (docs/OBSERVABILITY.md §2). */              \
    X(kTraceEventsDropped, "trace.events_dropped")                            \
                                                                              \
    /* Gauges (sampled values, not monotonic). */                             \
    X(kGaugeOpenConnections, "db.open_connections")                           \
    X(kGaugeAsyncAcksPending, "db.async_acks_pending")                        \
    X(kGaugeOpenSnapshots, "db.open_snapshots")                               \
    X(kGaugeCommitQueueDepth, "db.commit_queue_depth")                        \
                                                                              \
    /* WAL allocation-path split: frames placed by the user-level             \
     * bump allocator in the tail node vs. frames that forced a heap-         \
     * manager node allocation (the Heapo syscall path, Paper §3.3). */       \
    X(kWalBumpAllocs, "wal.bump_allocs")                                      \
    X(kWalNodeAllocs, "wal.node_allocs")                                      \
                                                                              \
    /* Hot-path pass (DESIGN.md §9). Coalesced lazy sync: flush               \
     * ranges merged away per batch (one cacheLineFlush call per              \
     * contiguous run instead of one per frame) and cache lines the           \
     * merge stopped from being flushed twice. */                             \
    X(kWalFlushRangesCoalesced, "wal.flush_ranges_coalesced")                 \
    X(kPmemFlushLinesDeduped, "pmem.flush_lines_deduped")                     \
    /* Materialized-page read path. A "miss" is one page replay from          \
     * the frame index; "hits" stays 0. Both names outlive the image          \
     * cache they once counted because the e2ebench driver reads              \
     * them. Full-frame shortcuts are replays that started from a             \
     * logged full-page frame instead of the .db base image. */               \
    X(kWalMaterializeCacheHits, "wal.materialize_cache_hits")                 \
    X(kWalMaterializeCacheMisses, "wal.materialize_cache_misses")             \
    X(kWalFullFrameShortcuts, "wal.full_frame_shortcuts")                     \
    /* Radix frame index + adaptive granularity (DESIGN.md §14): live         \
     * radix nodes across every per-page frame index (gauge), frames          \
     * shipped as one full page vs. as byte-diffs by the adaptive             \
     * dirty-ratio decision, and the total index work (descent nodes          \
     * + leaves visited + frames applied) the read path paid                  \
     * materializing pages -- the deterministic observable behind the         \
     * long-log flatness gate. */                                             \
    X(kWalFrameIndexNodes, "wal.frame_index_nodes")                           \
    X(kWalFullFramesAdaptive, "wal.full_frames_adaptive")                     \
    X(kWalDiffFrames, "wal.diff_frames")                                      \
    X(kWalFrameScanSteps, "wal.frame_scan_steps")                             \
    /* Ordered checkpoint write-back: pages written per round and             \
     * pairs of consecutive writes whose page numbers ascended                \
     * (sequentiality for the Fig. 8 block-trace story). */                   \
    X(kWalCkptPagesWritten, "wal.ckpt_pages_written")                         \
    X(kWalCkptSequentialWrites, "wal.ckpt_sequential_writes")                 \
    /* Write-backs copied from the database's page cache, skipping            \
     * the .db base read and the diff replay (DESIGN.md §16). */              \
    X(kWalCkptPagesFromPager, "wal.ckpt_pages_from_pager")                    \
                                                                              \
    /* Pager traffic (page-cache effectiveness behind each scheme). */        \
    X(kPagerCacheHits, "pager.cache_hits")                                    \
    X(kPagerReads, "pager.page_reads")                                        \
    X(kPagerWalReads, "pager.wal_reads")                                      \
    X(kPagerWrites, "pager.page_writes")                                      \
                                                                              \
    /* Simulated-time accumulators (nanoseconds), updated by the pmem         \
     * layer to break a transaction's ordering-constraint cost into           \
     * the paper's Figure 5 categories. */                                    \
    X(kTimeMemcpyNs, "time.memcpy_ns")                                        \
    X(kTimeFlushNs, "time.cacheline_flush_ns")                                \
    X(kTimeBarrierNs, "time.memory_barrier_ns")                               \
    X(kTimePersistNs, "time.persist_barrier_ns")                              \
    X(kTimeSyscallNs, "time.syscall_ns")                                      \
    X(kTimeHeapNs, "time.heap_manager_ns")                                    \
                                                                              \
    /* Latency histogram names (sim-time nanoseconds per operation). */       \
    X(kHistCommitNs, "db.commit_ns")                                          \
    /* Transactions per group-commit batch (a size, not a latency). */        \
    X(kHistGroupCommitSize, "db.group_commit_size")                           \
    X(kHistLogWriteNs, "wal.log_write_ns")                                    \
    X(kHistCommitMarkNs, "wal.commit_mark_ns")                                \
    X(kHistCheckpointNs, "wal.checkpoint_ns")                                 \
    X(kHistRecoverNs, "wal.recover_ns")                                       \
    X(kHistHeapAllocNs, "heap.alloc_ns")                                      \
    X(kHistPersistBarrierNs, "pmem.persist_barrier_ns")

namespace detail
{

/** Slot numbers, generated from the list's row order. */
enum class MetricSlot : std::uint32_t
{
#define NVWAL_STATS_SLOT(id, name) id,
    NVWAL_STATS_METRICS(NVWAL_STATS_SLOT)
#undef NVWAL_STATS_SLOT
    Count
};

} // namespace detail

#define NVWAL_STATS_NAME(id, name)                                            \
    inline constexpr MetricName id{                                           \
        name, static_cast<std::uint32_t>(detail::MetricSlot::id)};
NVWAL_STATS_METRICS(NVWAL_STATS_NAME)
#undef NVWAL_STATS_NAME

/** Number of canonical names (and of registry slots). */
inline constexpr std::uint32_t kMetricCount =
    static_cast<std::uint32_t>(detail::MetricSlot::Count);

/** Every canonical name, indexed by its slot. */
inline constexpr MetricName kAllMetrics[] = {
#define NVWAL_STATS_ENTRY(id, name) id,
    NVWAL_STATS_METRICS(NVWAL_STATS_ENTRY)
#undef NVWAL_STATS_ENTRY
};

namespace detail
{

/**
 * True iff slot i holds the i-th row and no two rows share a dotted
 * name: every name has exactly one slot and no slot has two names.
 */
constexpr bool
slotsWellFormed()
{
    for (std::uint32_t i = 0; i < kMetricCount; ++i) {
        if (kAllMetrics[i].slot() != i)
            return false;
        for (std::uint32_t j = i + 1; j < kMetricCount; ++j)
            if (std::string_view(kAllMetrics[i].c_str()) ==
                std::string_view(kAllMetrics[j].c_str()))
                return false;
    }
    return true;
}

} // namespace detail

static_assert(detail::slotsWellFormed(),
              "NVWAL_STATS_METRICS must give each name exactly one slot");

} // namespace stats

} // namespace nvwal

#endif // NVWAL_SIM_STATS_HPP
