#pragma once
// Heap accounting: the benchmark binary replaces the global operator new
// and delete (alloc_count.cpp) to count allocations and track live heap
// bytes. Counts are per thread; the benchmark runs on one.

#include <cstdint>

namespace apxbench {

/// operator new calls made by the calling thread.
std::uint64_t allocation_count() noexcept;

/// Restarts the peak tracking at the current live heap size and returns
/// that size in bytes.
std::int64_t reset_peak_heap() noexcept;

/// Highest live heap size in bytes since the last reset_peak_heap().
std::int64_t peak_heap_bytes() noexcept;

}  // namespace apxbench
