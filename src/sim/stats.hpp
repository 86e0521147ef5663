/**
 * @file
 * Named counter registry shared by the platform model.
 *
 * Components increment counters (cache lines flushed, NVRAM bytes
 * logged, journal blocks written, heap-manager calls, ...) and the
 * benchmark harness snapshots/deltas them to regenerate the paper's
 * tables.
 *
 * Since the observability subsystem landed, the registry is the
 * richer obs::MetricsRegistry (counters + latency histograms +
 * gauges + the per-transaction event tracer). The canonical
 * counter/histogram names below are documented in docs/MODEL.md and
 * docs/OBSERVABILITY.md.
 */

#ifndef NVWAL_SIM_STATS_HPP
#define NVWAL_SIM_STATS_HPP

#include <cstdio>
#include <string>

#include "obs/metrics.hpp"

namespace nvwal
{

namespace stats
{

// Canonical counter names, so producers and consumers agree.
inline constexpr const char *kNvramBytesLogged = "nvram.bytes_logged";
inline constexpr const char *kNvramBytesRead = "nvram.bytes_read";
inline constexpr const char *kNvramLinesFlushed = "nvram.lines_flushed";
inline constexpr const char *kNvramFramesWritten = "nvram.frames_written";
inline constexpr const char *kMemoryBarriers = "pmem.memory_barriers";
inline constexpr const char *kPersistBarriers = "pmem.persist_barriers";
inline constexpr const char *kFlushSyscalls = "pmem.flush_syscalls";
inline constexpr const char *kHeapCalls = "heap.manager_calls";
inline constexpr const char *kHeapBlocksAllocated = "heap.blocks_allocated";
inline constexpr const char *kBlocksWritten = "blockdev.blocks_written";
inline constexpr const char *kBlocksRead = "blockdev.blocks_read";
inline constexpr const char *kJournalBlocksWritten = "fs.journal_blocks";
inline constexpr const char *kFsyncs = "fs.fsyncs";
inline constexpr const char *kCheckpoints = "db.checkpoints";
// Auto-checkpoint rounds that failed after their commit was durable;
// the commit still returns OK and the next commit retries the round.
inline constexpr const char *kAutoCheckpointFailures =
    "db.auto_checkpoint_failures";
inline constexpr const char *kTxnsCommitted = "db.txns_committed";
inline constexpr const char *kWalFullPageFrames = "wal.full_page_frames";

// Concurrency layer: snapshot readers, group commit, the background
// checkpointer (docs/OBSERVABILITY.md §concurrency).
inline constexpr const char *kSnapshotsOpened = "db.snapshots_opened";
inline constexpr const char *kSnapshotReads = "db.snapshot_reads";
inline constexpr const char *kSnapshotCacheHits = "db.snapshot_cache_hits";
// Snapshot-cache misses served by copying the shared pager's clean
// image instead of rebuilding the page (DESIGN.md §16).
inline constexpr const char *kSnapshotPagerFetches =
    "db.snapshot_pager_fetches";
inline constexpr const char *kGroupCommits = "db.group_commits";
inline constexpr const char *kGroupCommitTxns = "db.group_commit_txns";
inline constexpr const char *kCheckpointerSteps = "db.checkpointer_steps";
inline constexpr const char *kCheckpointsPinBlocked =
    "wal.checkpoints_pin_blocked";

// Sharded engine and cross-shard two-phase commit (DESIGN.md §10,
// docs/OBSERVABILITY.md §shard).
inline constexpr const char *kShardTxnsSingle = "shard.txns_single";
inline constexpr const char *kShardTxnsCross = "shard.txns_cross";
inline constexpr const char *kShardCrossAborts = "shard.cross_aborts";
inline constexpr const char *kShardIndoubtCommitted =
    "shard.indoubt_committed";
inline constexpr const char *kShardIndoubtAborted =
    "shard.indoubt_aborted";
/** PREPARE / DECISION control records persisted by the NVRAM log. */
inline constexpr const char *kWalPrepareRecords = "wal.prepare_records";
inline constexpr const char *kWalDecisionRecords = "wal.decision_records";
/** Checkpoint rounds whose truncation a staged 2PC txn deferred. */
inline constexpr const char *kWalCkptTwoPhaseBlocked =
    "wal.checkpoints_2pc_blocked";

// Asynchronous durability pipeline (DESIGN.md §11). Epoch batching of
// persist barriers plus recovery-side checksum-commit classification:
// torn frames are units whose content failed the chain verification,
// discarded frames are intact units beyond the recoverable prefix, and
// lost marks meter the loss window in commit events.
inline constexpr const char *kDbAsyncCommits = "db.async_commits";
inline constexpr const char *kWalEpochsHardened = "wal.epochs_hardened";
inline constexpr const char *kWalHardenBatches = "wal.harden_batches";
inline constexpr const char *kWalTornFramesDetected =
    "wal.torn_frames_detected";
inline constexpr const char *kWalRecoveryFramesDiscarded =
    "wal.recovery_frames_discarded";
inline constexpr const char *kWalRecoveryLostMarks =
    "wal.recovery_lost_marks";

// Optimistic multi-writer transactions (DESIGN.md §13): commit-time
// validation failures and transact() retries after a conflict.
inline constexpr const char *kWalLogConflicts = "wal.log_conflicts";
inline constexpr const char *kDbTxnConflictRetries =
    "db.txn_conflict_retries";
// Counters of the retired per-connection-log engine: its recovery-time
// epoch merge and its group hardens. Multi-writer commits now go
// through the one group-commit pipeline, so these always read 0; the
// names survive because the e2ebench driver (frozen with the
// benchmark) still reads them.
inline constexpr const char *kWalEpochMergeTxns = "wal.epoch_merge_txns";
inline constexpr const char *kWalEpochMergeGapDiscarded =
    "wal.epoch_merge_gap_discarded";
inline constexpr const char *kWalMwHardens = "wal.mw_hardens";

// NVRAM flight recorder (DESIGN.md §12, docs/OBSERVABILITY.md §7).
// Records appended to the persistent telemetry ring, slots whose
// checksum failed at the recovery-time parse (torn plain-store tails,
// discarded like §3.2 commit marks), and full laps of the ring.
inline constexpr const char *kFrRecordsWritten = "fr.records_written";
inline constexpr const char *kFrRecordsTornDiscarded =
    "fr.records_torn_discarded";
inline constexpr const char *kFrRingWraps = "fr.ring_wraps";

// Trace events overwritten because the Tracer ring wrapped. The name
// literal is owned by obs/metrics.hpp (the registry merges the value
// into snapshot() and cannot include this header); keep both in sync.
inline constexpr const char *kTraceEventsDropped = "trace.events_dropped";

// Gauges (sampled values, not monotonic).
inline constexpr const char *kGaugeOpenConnections = "db.open_connections";
inline constexpr const char *kGaugeAsyncAcksPending =
    "db.async_acks_pending";
inline constexpr const char *kGaugeOpenSnapshots = "db.open_snapshots";
inline constexpr const char *kGaugeCommitQueueDepth =
    "db.commit_queue_depth";
inline constexpr const char *kGaugeShardCount = "shard.count";

// WAL allocation-path split: frames placed by the user-level bump
// allocator in the tail node vs. frames that forced a heap-manager
// node allocation (the Heapo syscall path, Paper §3.3).
inline constexpr const char *kWalBumpAllocs = "wal.bump_allocs";
inline constexpr const char *kWalNodeAllocs = "wal.node_allocs";

// Hot-path pass (DESIGN.md §9). Coalesced lazy sync: flush ranges
// merged away per batch (one cacheLineFlush call per contiguous run
// instead of one per frame) and cache lines the merge stopped from
// being flushed twice.
inline constexpr const char *kWalFlushRangesCoalesced =
    "wal.flush_ranges_coalesced";
inline constexpr const char *kPmemFlushLinesDeduped =
    "pmem.flush_lines_deduped";
// Materialized-page read path. A "miss" is one page replay from the
// frame index; "hits" stays 0. Both names outlive the image cache
// they once counted because the e2ebench driver reads them. Full-frame
// shortcuts are replays that started from a logged full-page frame
// instead of the .db base image.
inline constexpr const char *kWalMaterializeCacheHits =
    "wal.materialize_cache_hits";
inline constexpr const char *kWalMaterializeCacheMisses =
    "wal.materialize_cache_misses";
inline constexpr const char *kWalFullFrameShortcuts =
    "wal.full_frame_shortcuts";
// Radix frame index + adaptive granularity (DESIGN.md §14): live
// radix nodes across every per-page frame index (gauge), frames
// shipped as one full page vs. as byte-diffs by the adaptive
// dirty-ratio decision, and the total index work (descent nodes +
// leaves visited + frames applied) the read path paid materializing
// pages -- the deterministic observable behind the long-log
// flatness gate.
inline constexpr const char *kWalFrameIndexNodes =
    "wal.frame_index_nodes";
inline constexpr const char *kWalFullFramesAdaptive =
    "wal.full_frames_adaptive";
inline constexpr const char *kWalDiffFrames = "wal.diff_frames";
inline constexpr const char *kWalFrameScanSteps =
    "wal.frame_scan_steps";
// Ordered checkpoint write-back: pages written per round and pairs of
// consecutive writes whose page numbers ascended (sequentiality for
// the Fig. 8 block-trace story).
inline constexpr const char *kWalCkptPagesWritten =
    "wal.ckpt_pages_written";
inline constexpr const char *kWalCkptSequentialWrites =
    "wal.ckpt_sequential_writes";
// Write-backs copied from the database's page cache, skipping the
// .db base read and the diff replay (DESIGN.md §16).
inline constexpr const char *kWalCkptPagesFromPager =
    "wal.ckpt_pages_from_pager";

// Pager traffic (page-cache effectiveness behind each scheme).
inline constexpr const char *kPagerCacheHits = "pager.cache_hits";
inline constexpr const char *kPagerReads = "pager.page_reads";
inline constexpr const char *kPagerWalReads = "pager.wal_reads";
inline constexpr const char *kPagerWrites = "pager.page_writes";

// Simulated-time accumulators (nanoseconds), updated by the pmem
// layer to break a transaction's ordering-constraint cost into the
// paper's Figure 5 categories.
inline constexpr const char *kTimeMemcpyNs = "time.memcpy_ns";
inline constexpr const char *kTimeFlushNs = "time.cacheline_flush_ns";
inline constexpr const char *kTimeBarrierNs = "time.memory_barrier_ns";
inline constexpr const char *kTimePersistNs = "time.persist_barrier_ns";
inline constexpr const char *kTimeSyscallNs = "time.syscall_ns";
inline constexpr const char *kTimeHeapNs = "time.heap_manager_ns";

// Latency histogram names (sim-time nanoseconds per operation).
inline constexpr const char *kHistCommitNs = "db.commit_ns";
/** Transactions per group-commit batch (a size, not a latency). */
inline constexpr const char *kHistGroupCommitSize =
    "db.group_commit_size";
inline constexpr const char *kHistLogWriteNs = "wal.log_write_ns";
inline constexpr const char *kHistCommitMarkNs = "wal.commit_mark_ns";
inline constexpr const char *kHistCheckpointNs = "wal.checkpoint_ns";
inline constexpr const char *kHistRecoverNs = "wal.recover_ns";
inline constexpr const char *kHistHeapAllocNs = "heap.alloc_ns";
inline constexpr const char *kHistPersistBarrierNs = "pmem.persist_barrier_ns";
/** Sim ns from first PREPARE submit to last DECISION durable. */
inline constexpr const char *kHistShardCrossCommitNs =
    "shard.cross_commit_ns";

/**
 * Per-shard commit-latency histogram label, e.g. "shard.commit_ns.s03".
 * Zero-padded so the registry's lexicographic print order equals
 * shard order in every aggregated stats/metrics dump.
 */
inline std::string
shardCommitHistName(std::uint32_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard.commit_ns.s%02u", shard);
    return std::string(buf);
}

} // namespace stats

} // namespace nvwal

#endif // NVWAL_SIM_STATS_HPP
