// Cache-line-aligned storage for hot kernel arrays.
//
// SpMV streams (val, ind, displ) are read with vector loads; 64-byte
// alignment keeps those loads aligned and avoids false sharing between
// per-thread output partitions. Arrays of kHugePageFloorBytes or more are
// mapped on 2 MiB boundaries and advised into transparent huge pages, so
// the build passes that first touch them fault 2 MiB at a time instead of
// 4 KiB (DESIGN.md §22). A build that converts a matrix array it never
// reads again hands the array's consumed pages back as it goes
// (release_consumed, DESIGN.md §23).
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
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
/// process, less the pages release_consumed handed back, and their
/// high-water mark since the last reset. A test pins the peak resident
/// matrix footprint of an operator build with it.
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

  /// Bytes handed back from the live array at `base`, which then counts
  /// them no more.
  void release(const void* base, std::int64_t bytes) {
    remove(bytes);
    released_total_.fetch_add(bytes, std::memory_order_relaxed);
    const std::lock_guard lock(mutex_);
    const auto it = find(base);
    if (it != released_.end())
      it->second += bytes;
    else
      released_.emplace_back(base, bytes);
  }
  /// The bytes released from the array at `base`, forgotten as it is freed.
  std::int64_t forget(const void* base) {
    const std::lock_guard lock(mutex_);
    const auto it = find(base);
    if (it == released_.end()) return 0;
    const std::int64_t bytes = it->second;
    *it = released_.back();
    released_.pop_back();
    return bytes;
  }
  /// Bytes released over the process's life.
  [[nodiscard]] std::int64_t released_total() const noexcept {
    return released_total_.load(std::memory_order_relaxed);
  }

 private:
  /// Per live array with released pages: its base and those bytes.
  using Released = std::vector<std::pair<const void*, std::int64_t>>;

  Released::iterator find(const void* base) {
    return std::find_if(released_.begin(), released_.end(),
                        [base](const auto& e) { return e.first == base; });
  }

  std::atomic<std::int64_t> live_{0}, high_{0}, released_total_{0};
  std::mutex mutex_;
  Released released_;
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
    const std::size_t bytes = n * sizeof(T);
    // Only mapped arrays have pages released (release_consumed).
    const std::int64_t released =
        bytes < kMatrixMapFloorBytes ? 0 : matrix_byte_counter().forget(p);
#ifdef __SANITIZE_ADDRESS__
    if (released > 0) ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
    detail::free_bytes(p, bytes, kMatrixMapFloorBytes);
    matrix_byte_counter().remove(static_cast<std::int64_t>(bytes) - released);
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

/// The allocator of a build's per-thread scratch: every array is mapped,
/// whatever its size, so the pages go back to the OS when the build frees
/// it. Heap scratch would stay resident in the malloc arena of each thread
/// that ran the build. Not counted by matrix_byte_counter().
template <class T>
class ScratchAllocator : public AlignedAllocator<T> {
 public:
  using value_type = T;

  ScratchAllocator() noexcept = default;
  template <class U>
  ScratchAllocator(const ScratchAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > detail::max_elements<T>()) throw std::bad_alloc();
    return static_cast<T*>(detail::allocate_bytes(n * sizeof(T), 0));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::free_bytes(p, n * sizeof(T), 0);
  }
};

template <class T>
using ScratchVector = std::vector<T, ScratchAllocator<T>>;

/// The OS page size.
inline std::size_t page_bytes() noexcept {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Hands the whole pages inside elements [first, last) of the matrix array
/// `v` back to the OS (madvise MADV_DONTNEED), for a build that has
/// converted that range and never reads it again. The range is rounded
/// inward to whole pages, so a page shared with a neighbouring range stays;
/// disjoint ranges release disjoint pages, and a range is released at most
/// once. Arrays under kMatrixMapFloorBytes live on the heap and are left
/// as they are. A released page reads as zeros; under AddressSanitizer it
/// is poisoned instead, so a read after release aborts. The array keeps its
/// size, and matrix_byte_counter() stops counting the released bytes.
template <class T>
void release_consumed(UninitVector<T>& v, std::size_t first,
                      std::size_t last) {
  if (v.capacity() * sizeof(T) < kMatrixMapFloorBytes || first >= last)
    return;
  const std::size_t page = page_bytes();
  const auto base = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t lo = (base + first * sizeof(T) + page - 1) / page * page;
  const std::uintptr_t hi = (base + last * sizeof(T)) / page * page;
  if (hi <= lo) return;
  void* const p = reinterpret_cast<void*>(lo);
#ifdef __SANITIZE_ADDRESS__
  ASAN_POISON_MEMORY_REGION(p, hi - lo);
#else
  // Advice on a private anonymous mapping: it cannot fail here.
  madvise(p, hi - lo, MADV_DONTNEED);
#endif
  matrix_byte_counter().release(v.data(), static_cast<std::int64_t>(hi - lo));
}

}  // namespace memxct
