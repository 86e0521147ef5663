/**
 * @file
 * Heap-allocation counting for allocation gates. An executable that
 * links alloc_counter.cpp replaces the global operator new/delete
 * with malloc/free wrappers that count every (unaligned) operator
 * new call, on every thread.
 */

#ifndef NVWAL_TESTS_SUPPORT_ALLOC_COUNTER_HPP
#define NVWAL_TESTS_SUPPORT_ALLOC_COUNTER_HPP

#include <cstdint>

namespace nvwal::alloccount
{

/** operator new calls since the process started. */
std::uint64_t allocations();

} // namespace nvwal::alloccount

#endif // NVWAL_TESTS_SUPPORT_ALLOC_COUNTER_HPP
