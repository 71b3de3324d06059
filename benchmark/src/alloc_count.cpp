#include "benchmark/src/alloc_count.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

// Each block carries its requested size in a header, so live bytes count
// what the program asked for. malloc's usable sizes would instead depend on
// the heap's layout, which the timing-dependent number of ladder legs
// changes. 16 bytes keep the default new alignment.
constexpr std::size_t kHeader = 16;

// Thread-local, so the hot path is plain arithmetic. A block freed on
// another thread than the one that allocated it skews both threads' live
// sizes; the benchmark allocates and frees on one thread.
thread_local std::uint64_t t_allocations = 0;
thread_local std::int64_t t_live_bytes = 0;
thread_local std::int64_t t_peak_bytes = 0;

void release(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, block, sizeof size);
  t_live_bytes -= static_cast<std::int64_t>(size);
  std::free(block);
}

}  // namespace

namespace apxbench {

std::uint64_t allocation_count() noexcept { return t_allocations; }

std::int64_t reset_peak_heap() noexcept {
  t_peak_bytes = t_live_bytes;
  return t_live_bytes;
}

std::int64_t peak_heap_bytes() noexcept { return t_peak_bytes; }

}  // namespace apxbench

// The array and nothrow forms forward to these in libstdc++, so every plain
// heap allocation is counted once. Over-aligned new/delete keep their own
// (untracked) implementation.
void* operator new(std::size_t size) {
  if (size > SIZE_MAX - kHeader) throw std::bad_alloc();
  char* block = static_cast<char*>(std::malloc(size + kHeader));
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof size);
  ++t_allocations;
  t_live_bytes += static_cast<std::int64_t>(size);
  t_peak_bytes = std::max(t_peak_bytes, t_live_bytes);
  return block + kHeader;
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
