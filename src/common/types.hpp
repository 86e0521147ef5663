/**
 * @file
 * Fundamental type aliases shared by every NVWAL module.
 */

#ifndef NVWAL_COMMON_TYPES_HPP
#define NVWAL_COMMON_TYPES_HPP

#include <cstddef>
#include <cstdint>

namespace nvwal
{

/** Simulated time, in nanoseconds since simulation start. */
using SimTime = std::uint64_t;

/** Byte offset into the NVRAM physical address space. */
using NvOffset = std::uint64_t;

/** Sentinel for "no NVRAM offset" (offset 0 is the heap superblock). */
inline constexpr NvOffset kNullNvOffset = ~static_cast<NvOffset>(0);

/** Database page number. Page numbers start at 1, like SQLite. */
using PageNo = std::uint32_t;

/** Sentinel for "no page". */
inline constexpr PageNo kNoPage = 0;

/** Block number on a block device. */
using BlockNo = std::uint64_t;

/** Record key type used by the B-tree (SQLite rowid analogue). */
using RowId = std::int64_t;

/**
 * What survives an injected power failure. The NVRAM device applies
 * it to its cached and queued lines, and the flash device to its
 * in-flight block programs, at the same instant.
 */
enum class FailurePolicy
{
    /**
     * Only persist-barrier-drained lines and completed block programs
     * survive.
     */
    Pessimistic,
    /**
     * Arbitrary cache eviction: each dirty cached line independently
     * survives with the configured probability, and queued lines may
     * tear at 8-byte granularity. Each in-flight block program lands
     * whole or not at all, with the same probability. Models the
     * worst case the paper's recovery protocol must tolerate.
     */
    Adversarial,
    /** Everything survives (DRAM-like; for differential testing). */
    AllSurvive,
};

} // namespace nvwal

#endif // NVWAL_COMMON_TYPES_HPP
