/**
 * @file
 * Block-device (eMMC flash) model with latency accounting and an
 * I/O trace recorder.
 *
 * The trace — (simulated time, block address, tag) per write — is
 * what regenerates the paper's Figure 8 block trace of SQLite WAL
 * vs. optimized WAL. Tags identify the traffic stream (.db file,
 * .db-wal file, EXT4 journal) the same way the figure's legend does.
 *
 * The device has one busy-until timeline (docs/MODEL.md §3), the way
 * Pmem drains NVRAM lines behind its last flush completion. A queued
 * program (write-out) starts when the device frees up and completes
 * blockProgramNs later, without advancing the clock; a synchronous
 * write or a read first waits for every queued program, so a read
 * miss issued during write-out pays for the programs ahead of it. A
 * cache flush queues on the same timeline as an interval with no
 * program (an asynchronous fsync's barrier). A program is on media
 * once it completes; a power failure settles the ones still in flight
 * under the NVRAM device's FailurePolicy.
 */

#ifndef NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP
#define NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP

#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Traffic stream labels for the I/O trace (Figure 8 legend). */
enum class IoTag
{
    DbFile,    //!< .db main database file
    WalFile,   //!< .db-wal write-ahead log file
    Journal,   //!< EXT4 journal
    Meta,      //!< file-system metadata in place (rare)
    Other,
};

const char *ioTagName(IoTag tag);

/** One recorded block write. */
struct TraceEntry
{
    SimTime timeNs;
    BlockNo block;
    IoTag tag;
};

/**
 * Flash block device with per-block program/read latencies.
 *
 * Thread-safety: databases sharing one Env checkpoint through one
 * device under independent engine locks, so the media, trace, and
 * per-tag byte counters are mutex-guarded. trace() hands out a
 * reference and requires a quiescent device (report paths only).
 */
class BlockDevice
{
  public:
    BlockDevice(std::uint64_t num_blocks, std::uint32_t block_size,
                SimClock &clock, const CostModel &cost,
                MetricsRegistry &stats);

    std::uint32_t blockSize() const { return _blockSize; }
    std::uint64_t numBlocks() const { return _numBlocks; }

    /**
     * Program one block, after every queued program has completed.
     * @p data must be exactly blockSize bytes.
     */
    void writeBlock(BlockNo block, ConstByteSpan data, IoTag tag);

    /**
     * Queue one block program behind the device's in-flight work and
     * return without advancing the clock (write-out). It completes at
     * max(now, busyUntil) + blockProgramNs.
     */
    void queueBlock(BlockNo block, ConstByteSpan data, IoTag tag);

    /**
     * Queue a cache flush of @p ns behind the device's in-flight work,
     * without advancing the clock; returns when it completes, the
     * device's new busy-until time.
     */
    SimTime queueFlush(SimTime ns);

    /** Read one block, after every queued program has completed. */
    void readBlock(BlockNo block, ByteSpan out);

    /** Whether queued programs are still in flight at the current time. */
    bool
    busy() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _busyUntil > _clock.now();
    }

    /**
     * Wait (advance the clock) until every queued program completed,
     * counting the wait in @p wait_counter: blockdev.wait_ns, or
     * blockdev.fsync_wait_ns for an fsync's wait.
     */
    void
    drain(MetricName wait_counter = stats::kBlockdevWaitNs)
    {
        std::lock_guard<std::mutex> g(_mu);
        waitLocked(wait_counter);
    }

    /**
     * Power failure at the current instant: programs that completed
     * are on media; each one still in flight lands whole under
     * AllSurvive, never under Pessimistic, and with probability
     * @p survive_prob under Adversarial, drawn from @p rng in queue
     * order. The queue is empty afterwards.
     */
    void powerFail(FailurePolicy policy, double survive_prob, Rng &rng);

    /** Enable/disable trace recording (off by default). */
    void
    setTracing(bool enabled)
    {
        std::lock_guard<std::mutex> g(_mu);
        _tracing = enabled;
    }

    /** Recorded trace; the device must be quiescent while read. */
    const std::vector<TraceEntry> &trace() const { return _trace; }

    void
    clearTrace()
    {
        std::lock_guard<std::mutex> g(_mu);
        _trace.clear();
    }

    /** Total bytes written per tag since construction. */
    std::uint64_t
    bytesWritten(IoTag tag) const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _bytesPerTag[static_cast<std::size_t>(tag)];
    }

    // ---- image snapshot / restore (crash-sweep harness) ------------

    /**
     * Raw media image plus the programs still in flight, each as its
     * block, its pre-image and the device time left until it
     * completes, and the time left until the device is idle (past the
     * last program when a flush is queued behind it), so a restore
     * replays the queue relative to the clock of the restoring run.
     * Traces and byte counters are not captured.
     */
    struct Snapshot
    {
        ByteBuffer data;
        std::vector<BlockNo> inFlight;
        std::vector<SimTime> remainingNs;
        ByteBuffer preImages;   //!< blockSize bytes per inFlight entry
        SimTime busyNs = 0;     //!< device time left until idle
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    /** A queued program: its block and completion time. */
    struct InFlight
    {
        BlockNo block;
        SimTime doneNs;
    };

    /** Forget the programs that completed by now. */
    void retireLocked();
    /** Advance the clock past every queued program, counted in @p counter. */
    void waitLocked(MetricName counter = stats::kBlockdevWaitNs);
    /** Copy @p data over @p block and count the program. */
    void programLocked(BlockNo block, ConstByteSpan data, IoTag tag,
                       SimTime done_ns);

    std::uint64_t _numBlocks;
    std::uint32_t _blockSize;
    SimClock &_clock;
    const CostModel &_cost;
    MetricsRegistry &_stats;

    mutable std::mutex _mu;
    ByteBuffer _data;
    bool _tracing = false;
    std::vector<TraceEntry> _trace;
    std::uint64_t _bytesPerTag[5] = {0, 0, 0, 0, 0};
    /** When the last queued program completes (<= now when idle). */
    SimTime _busyUntil = 0;
    /**
     * Queued programs in issue order, so completion times ascend;
     * entries before _inFlightHead have completed. The media already
     * holds each program's data; _preImages keeps what it replaced,
     * one block per entry, for a power failure to put back.
     */
    std::vector<InFlight> _inFlight;
    std::size_t _inFlightHead = 0;
    ByteBuffer _preImages;
};

} // namespace nvwal

#endif // NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP
