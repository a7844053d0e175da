// Counting replacement of the global allocation functions. Each thread
// counts its own allocations, so a caller on any thread can attribute
// the allocations of one call by reading threadAllocs() before and
// after it. Deallocation is not counted.

#include "timing.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t t_allocs = 0;

void*
countedAlloc(std::size_t n, std::size_t align)
{
    ++t_allocs;
    if (n == 0)
        n = 1;
    for (;;) {
        void* p = align > alignof(std::max_align_t)
                      ? std::aligned_alloc(align, (n + align - 1) / align * align)
                      : std::malloc(n);
        if (p)
            return p;
        // Same contract as the library's operator new: let an installed
        // new-handler (the memory budget's reclaim) free space and retry.
        std::new_handler handler = std::get_new_handler();
        if (!handler)
            throw std::bad_alloc();
        handler();
    }
}

} // namespace

namespace perfbench {

uint64_t
threadAllocs()
{
    return t_allocs;
}

} // namespace perfbench

void*
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void*
operator new[](std::size_t n)
{
    return countedAlloc(n, 0);
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, std::size_t(align));
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    return countedAlloc(n, std::size_t(align));
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
