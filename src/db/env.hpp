/**
 * @file
 * Platform environment: one object wiring together the simulated
 * clock, cost model, NVRAM device + persistence primitives, the
 * Heapo-style NVRAM heap, and the flash block device + journaling
 * file system. Mirrors the two hardware platforms of the paper's
 * evaluation (Tuna board and Nexus 5).
 */

#ifndef NVWAL_DB_ENV_HPP
#define NVWAL_DB_ENV_HPP

#include <cstddef>

#include "blockdev/block_device.hpp"
#include "fs/journaling_fs.hpp"
#include "heap/nv_heap.hpp"
#include "nvram/nvram_device.hpp"
#include "pmem/pmem.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"
#include "sim/stats.hpp"

namespace nvwal
{

/** Sizing and seeding of the simulated platform. */
struct EnvConfig
{
    CostModel cost = CostModel::tuna();
    /** NVRAM capacity. */
    std::size_t nvramBytes = 64ull << 20;
    /** Heap-manager allocation unit (Heapo pages). */
    std::uint32_t heapBlockSize = 4096;
    /** Flash device capacity in blocks (default 64 MB). */
    std::uint64_t flashBlocks = 1ull << 14;
    /** EXT4-journal region size in blocks. */
    std::uint64_t journalBlocks = 256;
    /** Seed for the adversarial failure policy. */
    std::uint64_t seed = 0x5eed;
};

/** A fully wired simulated platform. */
class Env
{
  public:
    explicit
    Env(const EnvConfig &config = EnvConfig())
        : cost(config.cost),
          nvramDevice(config.nvramBytes, config.cost.cacheLineSize, stats,
                      config.seed),
          pmem(nvramDevice, clock, cost, stats),
          heap(pmem, stats),
          flash(config.flashBlocks, config.cost.blockSize, clock, cost,
                stats),
          fs(flash, clock, cost, stats, config.journalBlocks)
    {
        // Timestamps for trace events come from this platform's clock.
        stats.tracer().bindClock(&clock);
        // A power failure settles the flash programs still in flight
        // at the same instant and under the same policy as the NVRAM
        // lines.
        nvramDevice.setPowerFailListener(
            [this](FailurePolicy policy, double survive_prob, Rng &rng) {
                flash.powerFail(policy, survive_prob, rng);
            });

        // Attach to an existing heap (simulated reboot reuses the
        // same device) or format a fresh one.
        if (!heap.attach().isOk())
            NVWAL_CHECK_OK(heap.format(config.heapBlockSize));
    }

    Env(const Env &) = delete;
    Env &operator=(const Env &) = delete;

    /**
     * Simulate losing power: NVRAM lines, in-flight flash programs
     * and the file system's volatile state.
     */
    void
    powerFail(FailurePolicy policy, double survive_prob = 0.5)
    {
        nvramDevice.powerFail(policy, survive_prob);
        fs.crash();
        NVWAL_CHECK_OK(heap.attach());
    }

    // ---- platform image snapshot / restore -------------------------

    /**
     * All storage-bearing platform state: the NVRAM device (durable
     * media + volatile cache/queue), the flash image with its
     * in-flight programs, and the file system. The crash-sweep
     * harness captures one snapshot after the workload warm-up and
     * restores it before every injection point, instead of re-running
     * the warm-up per point. The simulated clock and stats counters
     * are not captured. The clock does influence behaviour, but only
     * through the flash queue (the paced checkpoint issues work when
     * the device is idle), and the snapshot keeps each in-flight
     * program as the device time it has left, so a restored replay
     * makes the same decisions at a different absolute time.
     */
    struct MediaSnapshot
    {
        NvramDevice::Snapshot nvram;
        BlockDevice::Snapshot flash;
        JournalingFs::Snapshot fs;
    };

    MediaSnapshot
    snapshotMedia() const
    {
        return MediaSnapshot{nvramDevice.snapshot(), flash.snapshot(),
                             fs.snapshot()};
    }

    /** Restore a media snapshot and re-attach the heap's volatile
     *  mirror (resetting its allocation hint for determinism). */
    void
    restoreMedia(const MediaSnapshot &snap)
    {
        nvramDevice.restore(snap.nvram);
        flash.restore(snap.flash);
        fs.restore(snap.fs);
        NVWAL_CHECK_OK(heap.attach());
    }

    SimClock clock;
    MetricsRegistry stats;
    CostModel cost;
    NvramDevice nvramDevice;
    Pmem pmem;
    NvHeap heap;
    BlockDevice flash;
    JournalingFs fs;
};

} // namespace nvwal

#endif // NVWAL_DB_ENV_HPP
