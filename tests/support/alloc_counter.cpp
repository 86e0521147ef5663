#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
nvwal::alloccount::allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

// Every unaligned form is replaced, so each delete frees what the
// matching new returned (the aligned forms keep the defaults).
void *operator new(std::size_t size) { return countedAllocOrThrow(size); }
void *operator new[](std::size_t size) { return countedAllocOrThrow(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
