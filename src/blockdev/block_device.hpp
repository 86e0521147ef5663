/**
 * @file
 * Block-device (eMMC flash) model with latency accounting and an
 * I/O trace recorder.
 *
 * The trace — (simulated time, block address, tag) per write — is
 * what regenerates the paper's Figure 8 block trace of SQLite WAL
 * vs. optimized WAL. Tags identify the traffic stream (.db file,
 * .db-wal file, EXT4 journal) the same way the figure's legend does.
 */

#ifndef NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP
#define NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP

#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "common/logging.hpp"
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

    /** Program one block. @p data must be exactly blockSize bytes. */
    void writeBlock(BlockNo block, ConstByteSpan data, IoTag tag);

    /** Read one block. */
    void readBlock(BlockNo block, ByteSpan out);

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

    /** Raw media image. Traces and byte counters are not captured. */
    struct Snapshot
    {
        ByteBuffer data;
    };

    Snapshot
    snapshot() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return Snapshot{_data};
    }

    void
    restore(const Snapshot &snap)
    {
        std::lock_guard<std::mutex> g(_mu);
        NVWAL_ASSERT(snap.data.size() == _data.size(),
                     "snapshot is for a different device size");
        _data = snap.data;
    }

  private:
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
};

} // namespace nvwal

#endif // NVWAL_BLOCKDEV_BLOCK_DEVICE_HPP
