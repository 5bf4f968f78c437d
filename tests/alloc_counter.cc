#include "tests/alloc_counter.hh"

#include <cstdlib>
#include <new>

std::atomic<std::uint64_t> gAllocs{0};

void *
operator new(std::size_t size)
{
    ++gAllocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++gAllocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
