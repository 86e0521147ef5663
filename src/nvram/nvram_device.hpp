/**
 * @file
 * Byte-addressable NVRAM device model with an explicit CPU-cache
 * persistence boundary.
 *
 * The model separates three storage states, mirroring the hardware
 * the paper targets (section 4):
 *
 *  1. *cached*  -- CPU stores land in a simulated write-back cache
 *     (volatile). This is where memcpy() puts WAL frames.
 *  2. *queued*  -- a cache-line flush (dccmvac/clflush) snapshots the
 *     line into the memory-controller write queue. Still volatile
 *     without hardware support.
 *  3. *durable* -- a persist barrier (pcommit-like) drains the queue
 *     into the NVRAM media. Only this state survives power failure
 *     under the pessimistic policy.
 *
 * Power-failure injection: a crash point can be scheduled at the
 * N-th persistence-relevant operation; when reached, the device
 * throws PowerFailure after applying the configured survival policy.
 * Crash-recovery tests sweep N across a transaction to exercise
 * every intermediate state (section 4.3 failure cases).
 */

#ifndef NVWAL_NVRAM_NVRAM_DEVICE_HPP
#define NVWAL_NVRAM_NVRAM_DEVICE_HPP

#include <cstdint>
#include <exception>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Thrown when a scheduled power failure fires. */
class PowerFailure : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "simulated power failure";
    }
};

/** What survives an injected power failure. */
enum class FailurePolicy
{
    /** Only persist-barrier-drained data survives. */
    Pessimistic,
    /**
     * Arbitrary cache eviction: each dirty cached line independently
     * survives with the configured probability, and queued lines may
     * tear at 8-byte granularity. Models the worst case the paper's
     * recovery protocol must tolerate.
     */
    Adversarial,
    /** Everything survives (DRAM-like; for differential testing). */
    AllSurvive,
};

/**
 * Byte-addressable NVRAM with simulated cache-line persistence.
 *
 * Thread-safety: one device backs every database sharing an Env (a
 * single global op counter is what lets the crash sweep inject a
 * power failure at one instant), so all public methods take an
 * internal recursive mutex. The lock order is strictly
 * top-down — heap/pmem/fs lock before calling into the device, and
 * the device never calls back up — so no inversion is possible.
 */
class NvramDevice
{
  public:
    /**
     * @param size Device capacity in bytes. Need not be a multiple of
     *        the cache line size; the last line is partial and all
     *        persistence paths clamp to it.
     * @param cache_line_size Cache line size in bytes (power of two).
     * @param stats Counter registry (may outlive traffic queries).
     * @param seed RNG seed for the adversarial failure policy.
     */
    NvramDevice(std::size_t size, std::uint32_t cache_line_size,
                MetricsRegistry &stats, std::uint64_t seed = 0x7a51);

    std::size_t size() const { return _durable.size(); }
    std::uint32_t cacheLineSize() const { return _lineSize; }

    // ---- CPU-visible data path -----------------------------------

    /** Store @p data at @p off. Lands in the simulated cache. */
    void write(NvOffset off, ConstByteSpan data);

    /** Coherent read (sees cached data over durable data). */
    void read(NvOffset off, ByteSpan out) const;

    /** Convenience single-value accessors for metadata code. */
    std::uint64_t readU64(NvOffset off) const;
    void writeU64(NvOffset off, std::uint64_t value);

    // ---- persistence path ------------------------------------------

    /**
     * Flush the cache line containing @p addr into the persist
     * queue (snapshot semantics: later stores to the line are not
     * covered). Clean lines are flushed as a no-op. Mirrors the
     * non-invalidating ARM dccmvac used by the paper (Algorithm 2).
     */
    void flushLine(NvOffset addr);

    /** Drain the persist queue into the durable media. */
    void drainPersistQueue();

    /**
     * Flush every dirty cached line into the persist queue and
     * return how many lines were flushed. Models a hardware epoch
     * barrier (PersistencyModel::EpochHW), where the memory system
     * tracks the write-set itself.
     */
    std::size_t flushAllDirtyLines();

    // ---- failure injection -----------------------------------------

    /**
     * Schedule a power failure at the @p op_count-th subsequent
     * persistence-relevant operation (write / flush / drain). Pass 0
     * to cancel.
     */
    void scheduleCrashAtOp(std::uint64_t op_count);

    /** Operations counted so far toward crash scheduling. */
    std::uint64_t
    opCount() const
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        return _opCount;
    }

    /**
     * Apply @p policy and drop all volatile state, as if power was
     * lost this instant. Unlike the scheduled variant this does not
     * throw; tests call it directly at a chosen point.
     */
    void powerFail(FailurePolicy policy, double survive_prob = 0.5);

    /** Number of dirty (unflushed) cached lines; test introspection. */
    std::size_t
    dirtyLineCount() const
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        return _cache.size();
    }

    /** Number of flushed-but-undrained lines; test introspection. */
    std::size_t
    queuedLineCount() const
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        return _queue.size();
    }

    /** Direct durable-media peek, bypassing the cache (tests). */
    void readDurable(NvOffset off, ByteSpan out) const;

    // ---- image snapshot / restore ----------------------------------

    /** One simulated cache line (full _lineSize bytes, tail padded). */
    struct Line
    {
        ByteBuffer data;
    };

    /**
     * Complete device state: durable media plus the volatile cache
     * and persist-queue contents, the op counter and the adversarial
     * RNG. Capturing volatile state lets a crash-sweep harness
     * restore mid-workload images without replaying the warm-up.
     */
    struct Snapshot
    {
        ByteBuffer durable;
        std::unordered_map<std::uint64_t, Line> cache;
        std::unordered_map<std::uint64_t, Line> queue;
        std::uint64_t opCount = 0;
        Rng rng{0};
    };

    Snapshot snapshot() const;

    /** Restore a snapshot; cancels any scheduled crash. */
    void restore(const Snapshot &snap);

    /** Reset the adversarial-draw RNG (per-sweep-point seeds). */
    void
    reseed(std::uint64_t seed)
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        _rng = Rng(seed);
    }

  private:
    std::uint64_t lineIndex(NvOffset addr) const { return addr / _lineSize; }

    /** Bytes of line @p line_idx that exist on the media (the last
     *  line of a non-line-multiple device is partial). */
    std::size_t lineSpanBytes(std::uint64_t line_idx) const;

    void countOp();
    void applyLineToDurable(std::uint64_t line_idx, const ByteBuffer &data);

    /** Recursive: write() nests under writeU64(), powerFail() under
     *  countOp(). Guards every member below. */
    mutable std::recursive_mutex _mu;
    ByteBuffer _durable;
    std::uint32_t _lineSize;
    MetricsRegistry &_stats;
    Rng _rng;

    /** Dirty lines not yet flushed (volatile). */
    std::unordered_map<std::uint64_t, Line> _cache;
    /** Flushed line snapshots awaiting a persist barrier. */
    std::unordered_map<std::uint64_t, Line> _queue;

    std::uint64_t _opCount = 0;
    std::uint64_t _crashAtOp = 0;
    FailurePolicy _pendingPolicy = FailurePolicy::Pessimistic;
    double _pendingSurviveProb = 0.5;

  public:
    /** Configure the policy used when a *scheduled* crash fires. */
    void
    setScheduledCrashPolicy(FailurePolicy policy, double survive_prob = 0.5)
    {
        std::lock_guard<std::recursive_mutex> g(_mu);
        _pendingPolicy = policy;
        _pendingSurviveProb = survive_prob;
    }
};

} // namespace nvwal

#endif // NVWAL_NVRAM_NVRAM_DEVICE_HPP
