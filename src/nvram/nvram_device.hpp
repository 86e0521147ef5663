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
 * power failure at one instant), so all public methods take one
 * internal plain mutex. It is the bottom leaf of the lock order
 * (DESIGN.md §8.1): heap and pmem lock before calling into the
 * device, the device never calls back up, and no public method
 * re-enters another, so no inversion or self-deadlock is possible.
 *
 * Storage: a volatile line image lives in one slab slot. A 4-byte
 * per-line index names the line's newest image, the one a read sees.
 * The index covers lines up to the highest one ever stored to, so
 * its footprint follows the span in use, not the device size. The
 * dirty and queued slots are kept in two lists with O(1) removal. A
 * line can be dirty and queued at once (stored to again after its
 * flush): its dirty slot then links the queued one, and flushing it
 * replaces the queued image. Walks that draw from the adversarial
 * RNG visit lines in ascending order, so a seed alone fixes the
 * outcome.
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
        std::lock_guard<std::mutex> g(_mu);
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
        std::lock_guard<std::mutex> g(_mu);
        return _dirtyList.size();
    }

    /** Number of flushed-but-undrained lines; test introspection. */
    std::size_t
    queuedLineCount() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _queuedList.size();
    }

    /** Direct durable-media peek, bypassing the cache (tests). */
    void readDurable(NvOffset off, ByteSpan out) const;

    // ---- image snapshot / restore ----------------------------------

    /**
     * Volatile line images in ascending line order: @p images holds
     * _lineSize bytes (tail padded) per entry of @p lines.
     */
    struct LineImages
    {
        std::vector<std::uint64_t> lines;
        ByteBuffer images;
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
        LineImages dirty;
        LineImages queued;
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
        std::lock_guard<std::mutex> g(_mu);
        _rng = Rng(seed);
    }

  private:
    /** Index of a line image in _slab. */
    using Slot = std::uint32_t;

    /** Which line a slot holds and where it sits in its list. */
    struct SlotInfo
    {
        std::uint64_t line;
        std::uint32_t pos;
        /** Dirty slot only: its line's queued slot + 1 (0 = none). */
        Slot older;
        bool queued;
    };

    std::uint64_t lineIndex(NvOffset addr) const { return addr / _lineSize; }

    /** Bytes of line @p line_idx that exist on the media (the last
     *  line of a non-line-multiple device is partial). */
    std::size_t lineSpanBytes(std::uint64_t line_idx) const;

    std::uint8_t *
    image(Slot s)
    {
        return _slab.data() + static_cast<std::size_t>(s) * _lineSize;
    }

    const std::uint8_t *
    image(Slot s) const
    {
        return _slab.data() + static_cast<std::size_t>(s) * _lineSize;
    }

    /** @p line_idx's entry in _newest, growing the index to reach it. */
    Slot &newestSlot(std::uint64_t line_idx);

    // The *Locked helpers expect _mu held; public methods lock once
    // and call only these.
    void countOpLocked();
    void writeLocked(NvOffset off, ConstByteSpan data);
    void readLocked(NvOffset off, ByteSpan out) const;
    void powerFailLocked(FailurePolicy policy, double survive_prob);

    Slot allocSlot(std::uint64_t line_idx);
    void listPush(std::vector<Slot> &list, Slot s);
    void listRemove(std::vector<Slot> &list, Slot s);
    /** Move dirty slot @p s into the persist queue, replacing (and
     *  freeing) its line's older queued image. */
    void queueDirtySlot(Slot s);
    /** @p list's slots ordered by ascending line. */
    std::vector<Slot> byLine(const std::vector<Slot> &list) const;
    void applyLineToDurable(std::uint64_t line_idx, const std::uint8_t *data);
    LineImages collect(const std::vector<Slot> &list) const;
    /** Load @p from into @p list as each line's newest image. */
    void restoreImages(const LineImages &from, std::vector<Slot> &list,
                       bool queued);
    /** Drop every dirty and queued line (the media is untouched). */
    void clearVolatile();

    /** Plain, never re-entered. Guards every member below. */
    mutable std::mutex _mu;
    ByteBuffer _durable;
    std::uint32_t _lineSize;
    MetricsRegistry &_stats;
    Rng _rng;

    /** Per line, its newest image's slot + 1 (0 = clean); lines past
     *  the end are clean. */
    std::vector<Slot> _newest;
    /** Line images, _lineSize bytes per slot; never shrinks. */
    ByteBuffer _slab;
    std::vector<SlotInfo> _slotInfo;
    std::vector<Slot> _freeSlots;
    /** Slots of dirty (unflushed, volatile) lines. */
    std::vector<Slot> _dirtyList;
    /** Slots of flushed line snapshots awaiting a persist barrier. */
    std::vector<Slot> _queuedList;

    std::uint64_t _opCount = 0;
    std::uint64_t _crashAtOp = 0;
    FailurePolicy _pendingPolicy = FailurePolicy::Pessimistic;
    double _pendingSurviveProb = 0.5;

  public:
    /** Configure the policy used when a *scheduled* crash fires. */
    void
    setScheduledCrashPolicy(FailurePolicy policy, double survive_prob = 0.5)
    {
        std::lock_guard<std::mutex> g(_mu);
        _pendingPolicy = policy;
        _pendingSurviveProb = survive_prob;
    }
};

} // namespace nvwal

#endif // NVWAL_NVRAM_NVRAM_DEVICE_HPP
