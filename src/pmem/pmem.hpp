/**
 * @file
 * Persistence primitives over the NVRAM device model, with cost
 * accounting (section 4 of the paper).
 *
 * The primitives mirror the paper's ARM implementation:
 *  - memcpyToNvram()  -- plain stores into NVRAM-mapped memory.
 *  - cacheLineFlush() -- the cache_line_flush() *system call* of
 *    Algorithm 2: one kernel-mode switch per call, then a loop of
 *    non-blocking dccmvac instructions over [start, end).
 *  - memoryBarrier()  -- dmb; completes only when all previously
 *    issued flushes have drained.
 *  - persistBarrier() -- pcommit-like; makes queued lines durable
 *    (emulated as a 1 us delay in the paper, section 5.3).
 *
 * Timing model for flush drains: each dccmvac completes at
 *   max(issue_time + latency, previous_completion + latency / banks)
 * so a *batch* of flushes (lazy synchronization) pipelines across
 * NVRAM banks, while flush-then-fence sequences (eager
 * synchronization) pay the full media latency serially. This is the
 * mechanism behind Figure 5's lazy-vs-eager gap.
 */

#ifndef NVWAL_PMEM_PMEM_HPP
#define NVWAL_PMEM_PMEM_HPP

#include <mutex>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "nvram/nvram_device.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Cost-accounted persistence primitives bound to one NVRAM device. */
class Pmem
{
  public:
    Pmem(NvramDevice &device, SimClock &clock, const CostModel &cost,
         MetricsRegistry &stats)
        : _device(device), _clock(clock), _cost(cost), _stats(stats),
          _persistHist(stats.histogram(stats::kHistPersistBarrierNs))
    {}

    NvramDevice &device() { return _device; }
    const CostModel &cost() const { return _cost; }
    SimClock &clock() { return _clock; }
    MetricsRegistry &stats() { return _stats; }

    /** Store @p src at NVRAM offset @p dst (cached, not persistent). */
    void memcpyToNvram(NvOffset dst, ConstByteSpan src);

    /** Store a single 8-byte value (the atomic-write unit, §4.1). */
    void storeU64(NvOffset dst, std::uint64_t value);

    /**
     * Read @p out.size() bytes at @p src, charging the NVRAM media
     * read cost. Bulk log-read paths (recovery, reconstruction) use
     * this; metadata peeks at cached lines go through the device
     * directly.
     */
    void readFromNvram(NvOffset src, ByteSpan out);

    /**
     * cache_line_flush() system call: flush every cache line
     * overlapping [start, end). Non-blocking; pair with
     * memoryBarrier() to wait for the drain.
     */
    void cacheLineFlush(NvOffset start, NvOffset end);

    /** dmb: wait until all issued flushes have drained. */
    void memoryBarrier();

    /** Persist barrier: make drained lines durable. */
    void persistBarrier();

    /**
     * Eager-synchronization helper (Figure 4(b)): flush [start, end),
     * fence, persist. Used per log entry by the 'E' configuration.
     */
    void persistRangeEager(NvOffset start, NvOffset end);

    /** The active persistency model (section 4.4). */
    PersistencyModel persistencyModel() const { return _cost.persistency; }

  private:
    /** Strict persistency: drain the just-stored range in order. */
    void strictDrain(NvOffset start, NvOffset end);

    /** EpochHW: close the current persist epoch. */
    void epochBoundary();
    NvramDevice &_device;
    SimClock &_clock;
    const CostModel &_cost;
    MetricsRegistry &_stats;
    /** Per-call persist-barrier latency (sim ns); registry-owned. */
    Histogram &_persistHist;

    /**
     * Guards _lastFlushCompletion (the only mutable Pmem state):
     * databases sharing one Env share one Pmem, so concurrent flush
     * batches must schedule their drains against a consistent bank
     * timeline.
     */
    std::mutex _mu;

    /** Completion time of the most recently scheduled flush. */
    SimTime _lastFlushCompletion = 0;
};

} // namespace nvwal

#endif // NVWAL_PMEM_PMEM_HPP
