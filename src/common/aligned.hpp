// Cache-line-aligned storage for hot kernel arrays.
//
// SpMV streams (val, ind, displ) are read with vector loads; 64-byte
// alignment keeps those loads aligned and avoids false sharing between
// per-thread output partitions. Arrays of kHugePageFloorBytes or more are
// mapped on 2 MiB boundaries and advised into transparent huge pages, so
// the build passes that first touch them fault 2 MiB at a time instead of
// 4 KiB (DESIGN.md §22).
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace memxct {

/// Allocations of at least this many bytes are mapped on 2 MiB boundaries
/// and advised MADV_HUGEPAGE. Below it the rounding to whole huge pages
/// would cost resident memory for little gain (DESIGN.md §22).
inline constexpr std::size_t kHugePageFloorBytes = std::size_t{64} << 20;
/// Transparent huge page size of x86-64 and the usual arm64 configuration.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
/// Matrix arrays (UninitAllocator) of at least this many bytes are mapped
/// directly, so a build array released mid-build gives its pages back at
/// once instead of leaving a hole in malloc's heap (DESIGN.md §22).
inline constexpr std::size_t kMatrixMapFloorBytes = std::size_t{1} << 20;

/// Test hook: process-wide count of AlignedAllocator allocations, heap and
/// mapped alike.
/// The hot-path contract (apply() allocates nothing after operator
/// construction) is asserted by diffing this counter around kernel calls.
inline std::atomic<std::int64_t>& aligned_alloc_count() noexcept {
  static std::atomic<std::int64_t> count{0};
  return count;
}

/// Test hook: bytes of matrix-array (UninitAllocator) storage alive in the
/// process, and their high-water mark since the last reset. A test pins the
/// peak matrix footprint of an operator build with it.
class MatrixByteCounter {
 public:
  [[nodiscard]] std::int64_t live() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t high_water() const noexcept {
    return high_.load(std::memory_order_relaxed);
  }
  /// Restarts the high-water mark from the bytes alive now.
  void reset_high_water() noexcept {
    high_.store(live(), std::memory_order_relaxed);
  }
  void add(std::int64_t bytes) noexcept {
    const std::int64_t now =
        live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t high = high_.load(std::memory_order_relaxed);
    while (now > high && !high_.compare_exchange_weak(
                             high, now, std::memory_order_relaxed)) {
    }
  }
  void remove(std::int64_t bytes) noexcept {
    live_.fetch_sub(bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> live_{0}, high_{0};
};

inline MatrixByteCounter& matrix_byte_counter() noexcept {
  static MatrixByteCounter counter;
  return counter;
}

namespace detail {

/// `bytes` of storage, at least kCacheLineBytes-aligned. From `map_floor`
/// up it is a private anonymous mapping (page-aligned; from
/// kHugePageFloorBytes up 2 MiB-aligned and advised MADV_HUGEPAGE), below
/// it aligned_alloc. `bytes` must not exceed PTRDIFF_MAX - kHugePageBytes.
inline void* allocate_bytes(std::size_t bytes, std::size_t map_floor) {
  void* p = nullptr;
  if (bytes < map_floor) {
    p = std::aligned_alloc(kCacheLineBytes,
                           (bytes + kCacheLineBytes - 1) / kCacheLineBytes *
                               kCacheLineBytes);
    if (p == nullptr) throw std::bad_alloc();
  } else if (bytes < kHugePageFloorBytes) {
    p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
  } else {
    // Map one huge page more than needed and trim both ends to the
    // aligned range.
    const std::size_t len =
        (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    const std::size_t span = len + kHugePageBytes;
    void* const m = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(m);
    const std::uintptr_t start =
        (base + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes;
    if (start > base) munmap(m, start - base);
    munmap(reinterpret_cast<void*>(start + len), base + span - start - len);
    p = reinterpret_cast<void*>(start);
    // Advice only: it fails harmlessly where THP is unavailable, and
    // changes nothing where THP is "never" or "always".
    madvise(p, len, MADV_HUGEPAGE);
  }
  aligned_alloc_count().fetch_add(1, std::memory_order_relaxed);
  return p;
}

/// Releases storage from allocate_bytes(bytes, map_floor).
inline void free_bytes(void* p, std::size_t bytes,
                       std::size_t map_floor) noexcept {
  if (bytes < map_floor)
    std::free(p);
  else if (bytes < kHugePageFloorBytes)
    munmap(p, bytes);
  else
    munmap(p, (bytes + kHugePageBytes - 1) / kHugePageBytes * kHugePageBytes);
}

/// Largest element count whose storage allocate_bytes accepts.
template <class T>
constexpr std::size_t max_elements() noexcept {
  // No object may exceed PTRDIFF_MAX bytes; the margin covers the rounding.
  constexpr auto kMaxObject =
      static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max());
  return (kMaxObject - kHugePageBytes) / sizeof(T);
}

}  // namespace detail

/// Minimal allocator returning kCacheLineBytes-aligned memory (mapped on
/// huge pages from kHugePageFloorBytes up).
template <class T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > detail::max_elements<T>()) throw std::bad_alloc();
    return static_cast<T*>(
        detail::allocate_bytes(n * sizeof(T), kHugePageFloorBytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    detail::free_bytes(p, n * sizeof(T), kHugePageFloorBytes);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Vector with cache-line-aligned backing store; used for all kernel arrays.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// The allocator of matrix arrays. Two differences from AlignedAllocator:
/// - its argument-less construct() default-initialises, so resize(n) and
///   vector(n) leave new trivially constructible elements unwritten. A
///   parallel build pass that overwrites the array completely is then the
///   first to touch its pages, and no serial zero fill runs ahead of it.
///   Explicit values (assign(n, v), resize(n, v)) are written as usual.
/// - it maps arrays directly from kMatrixMapFloorBytes up.
template <class T>
class UninitAllocator : public AlignedAllocator<T> {
 public:
  using value_type = T;

  UninitAllocator() noexcept = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > detail::max_elements<T>()) throw std::bad_alloc();
    T* const p = static_cast<T*>(
        detail::allocate_bytes(n * sizeof(T), kMatrixMapFloorBytes));
#ifdef __SANITIZE_ADDRESS__
    // Fresh pages read as zero, so an array read before its build pass
    // writes it would pass every test; 0xFF bytes make such a read show up
    // as NaN or index -1 in the sanitizer builds.
    std::memset(static_cast<void*>(p), 0xFF, n * sizeof(T));
#endif
    matrix_byte_counter().add(static_cast<std::int64_t>(n * sizeof(T)));
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    detail::free_bytes(p, n * sizeof(T), kMatrixMapFloorBytes);
    matrix_byte_counter().remove(static_cast<std::int64_t>(n * sizeof(T)));
  }

  // Only the argument-less form is declared: std::allocator_traits
  // constructs from arguments itself when no matching member exists.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// AlignedVector whose resize leaves new elements uninitialised (see
/// UninitAllocator): the storage of build-pass-filled matrix arrays.
template <class T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace memxct
