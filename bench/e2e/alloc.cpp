// Replacement global allocation functions for the benchmark binary only.
// They count calls and bytes between alloc_begin() and alloc_end(), which
// bracket the timed region of each repetition, and track the live heap and
// its peak in requested bytes.  Each block carries its requested size in a
// prefix, so frees balance allocations exactly and the peak does not depend
// on how malloc happened to lay out earlier blocks.  The process is single
// threaded, so plain globals suffice.
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

#include "e2e.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_calls = 0;
std::uint64_t g_bytes = 0;
std::uint64_t g_live = 0;
std::uint64_t g_peak = 0;

constexpr std::size_t kPrefix = alignof(std::max_align_t);

std::size_t prefix_for(std::size_t align) {
  return align > kPrefix ? align : kPrefix;
}

/// Records `size` in the prefix of `base` and returns the user pointer.
void* place(void* base, std::size_t prefix, std::size_t size) {
  if (base == nullptr) throw std::bad_alloc();
  if (g_counting) {
    ++g_calls;
    g_bytes += size;
  }
  g_live += size;
  if (g_live > g_peak) g_peak = g_live;
  char* user = static_cast<char*>(base) + prefix;
  std::memcpy(user - sizeof(std::size_t), &size, sizeof(std::size_t));
  return user;
}

void* allocate(std::size_t size) {
  return place(std::malloc(kPrefix + size), kPrefix, size);
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t prefix = prefix_for(a);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t total = (prefix + size + a - 1) / a * a;
  return place(std::aligned_alloc(a, total), prefix, size);
}

void release(void* p, std::size_t prefix) noexcept {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, user - sizeof(std::size_t), sizeof(std::size_t));
  g_live -= size;
  std::free(user - prefix);
}

std::size_t prefix_for(std::align_val_t align) {
  return prefix_for(static_cast<std::size_t>(align));
}

}  // namespace

namespace aft::e2e {

void alloc_begin() noexcept {
  g_calls = 0;
  g_bytes = 0;
  g_counting = true;
}

AllocTally alloc_end() noexcept {
  g_counting = false;
  return AllocTally{g_calls, g_bytes};
}

std::uint64_t heap_live_bytes() noexcept { return g_live; }

void heap_peak_reset() noexcept { g_peak = g_live; }

std::uint64_t heap_peak_bytes() noexcept { return g_peak; }

}  // namespace aft::e2e

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}

void operator delete(void* p) noexcept { release(p, kPrefix); }
void operator delete[](void* p) noexcept { release(p, kPrefix); }
void operator delete(void* p, std::size_t) noexcept { release(p, kPrefix); }
void operator delete[](void* p, std::size_t) noexcept { release(p, kPrefix); }
void operator delete(void* p, std::align_val_t a) noexcept {
  release(p, prefix_for(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  release(p, prefix_for(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, prefix_for(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, prefix_for(a));
}
