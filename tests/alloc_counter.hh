/**
 * @file
 * A counting global allocator for the allocation-free assertions:
 * every operator new (scalar and array) in a test binary that links
 * tests/alloc_counter.cc bumps gAllocs. The replaced operators live
 * in that file alone, so no test inlines them.
 */

#ifndef MBUS_TESTS_ALLOC_COUNTER_HH
#define MBUS_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>

/** Heap allocations made so far by this test binary. */
extern std::atomic<std::uint64_t> gAllocs;

#endif // MBUS_TESTS_ALLOC_COUNTER_HH
