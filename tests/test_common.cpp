// Tests for common utilities: grid math, RNG determinism, aligned storage,
// invariant checking.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/interleave.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace memxct {
namespace {

TEST(Grid, RowMajorRoundTrip) {
  const Extent2D ext{7, 13};
  for (idx_t r = 0; r < ext.rows; ++r)
    for (idx_t c = 0; c < ext.cols; ++c) {
      const auto i = row_major_index(ext, r, c);
      const Cell cell = row_major_cell(ext, i);
      EXPECT_EQ(cell.row, r);
      EXPECT_EQ(cell.col, c);
    }
}

TEST(Grid, Contains) {
  const Extent2D ext{4, 5};
  EXPECT_TRUE(ext.contains(0, 0));
  EXPECT_TRUE(ext.contains(3, 4));
  EXPECT_FALSE(ext.contains(4, 0));
  EXPECT_FALSE(ext.contains(0, 5));
  EXPECT_FALSE(ext.contains(-1, 0));
}

TEST(Grid, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1000), 1024);
  EXPECT_EQ(next_pow2(1024), 1024);
}

TEST(Grid, IsPow2AndLog2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(log2_pow2(1), 0);
  EXPECT_EQ(log2_pow2(256), 8);
}

TEST(Grid, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
}

TEST(Error, CheckThrowsWithContext) {
  EXPECT_THROW(MEMXCT_CHECK(false), InvariantError);
  try {
    MEMXCT_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
  }
  EXPECT_NO_THROW(MEMXCT_CHECK(true));
}

TEST(Aligned, VectorIsCacheLineAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  AlignedVector<std::uint16_t> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kCacheLineBytes, 0u);
}

TEST(Aligned, LargeAllocationsKeepAlignmentAndCount) {
  // From the huge-page floor up, storage sits on a 2 MiB boundary (so a
  // cache line too) and still counts in the allocation hook the
  // no-allocation hot-path tests diff. reserve() allocates without touching.
  for (const std::size_t bytes :
       {kHugePageFloorBytes - kCacheLineBytes, kHugePageFloorBytes,
        kHugePageFloorBytes + 12345}) {
    const std::int64_t before = aligned_alloc_count().load();
    AlignedVector<std::uint8_t> v;
    v.reserve(bytes);
    EXPECT_EQ(aligned_alloc_count().load() - before, 1) << bytes;
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    EXPECT_EQ(addr % kCacheLineBytes, 0u) << bytes;
    if (bytes >= kHugePageFloorBytes) EXPECT_EQ(addr % kHugePageBytes, 0u);
  }
  // Matrix arrays are mapped from a lower floor; they count the same way.
  for (const std::size_t bytes :
       {kMatrixMapFloorBytes - sizeof(float), kMatrixMapFloorBytes,
        kHugePageFloorBytes + sizeof(float)}) {
    const std::int64_t before = aligned_alloc_count().load();
    UninitVector<float> u;
    u.reserve(bytes / sizeof(float));
    EXPECT_EQ(aligned_alloc_count().load() - before, 1) << bytes;
    const auto addr = reinterpret_cast<std::uintptr_t>(u.data());
    EXPECT_EQ(addr % kCacheLineBytes, 0u) << bytes;
    if (bytes >= kHugePageFloorBytes) EXPECT_EQ(addr % kHugePageBytes, 0u);
  }
}

TEST(Aligned, UninitVectorWritesExplicitValues) {
  // Only argument-less construction is left unwritten; explicit values are
  // stored as in any vector.
  UninitVector<int> v(5, 7);
  EXPECT_EQ(v, UninitVector<int>(5, 7));
  v.resize(9, -3);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(v[i], i < 5 ? 7 : -3);
  v.assign(4, 0);
  for (const int x : v) EXPECT_EQ(x, 0);
  // The same across the direct-mapping floor, growing and shrinking.
  UninitVector<std::uint8_t> big(kMatrixMapFloorBytes / 2, 1);
  big.resize(kMatrixMapFloorBytes * 3, 2);
  EXPECT_EQ(big.front(), 1);
  EXPECT_EQ(big.back(), 2);
  big.resize(10);
  big.shrink_to_fit();
  EXPECT_EQ(big.back(), 1);
}

TEST(Aligned, ReleaseConsumedHandsBackInteriorPages) {
  // Only the whole pages inside the range go, the counter stops counting
  // exactly them, and freeing the array settles the count. A heap array
  // under the map floor keeps every page.
  MatrixByteCounter& counter = matrix_byte_counter();
  const std::int64_t live = counter.live();
  const std::size_t page = page_bytes();
  {
    UninitVector<float> v(3 * kMatrixMapFloorBytes / sizeof(float), 1.0f);
    const std::size_t first = 1000, last = v.size() - 777;
    const std::int64_t released = counter.released_total();
    release_consumed(v, first, last);
    const auto base = reinterpret_cast<std::uintptr_t>(v.data());
    const std::uintptr_t lo =
        (base + first * sizeof(float) + page - 1) / page * page;
    const std::uintptr_t hi = (base + last * sizeof(float)) / page * page;
    const auto bytes = static_cast<std::int64_t>(hi - lo);
    EXPECT_GT(bytes, 0);
    EXPECT_EQ(counter.released_total() - released, bytes);
    EXPECT_EQ(counter.live() - live,
              static_cast<std::int64_t>(v.size() * sizeof(float)) - bytes);
    testutil::expect_released(v, first, last);
    // The elements outside the whole pages keep their values.
    EXPECT_EQ(v[first - 1], 1.0f);
    EXPECT_EQ(v[(lo - base) / sizeof(float) - 1], 1.0f);
    EXPECT_EQ(v[(hi - base) / sizeof(float)], 1.0f);
    EXPECT_EQ(v.back(), 1.0f);
    // An empty range, and a range inside one page, release nothing.
    release_consumed(v, 5, 5);
    release_consumed(v, 0, page / sizeof(float) - 1);
    EXPECT_EQ(counter.released_total() - released, bytes);

    UninitVector<float> small(1000, 2.0f);
    release_consumed(small, 0, small.size());
    EXPECT_EQ(counter.released_total() - released, bytes);
    EXPECT_EQ(small[500], 2.0f);
  }
  EXPECT_EQ(counter.live(), live);
}

TEST(Aligned, ReadingAReleasedRangeAborts) {
#ifdef __SANITIZE_ADDRESS__
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        UninitVector<float> v(kMatrixMapFloorBytes / sizeof(float), 1.0f);
        release_consumed(v, 0, v.size());
        volatile float x = v[v.size() / 2];
        (void)x;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "a released page reads as zeros outside AddressSanitizer";
#endif
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  for (const double mean : {0.5, 5.0, 50.0, 500.0}) {
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.1) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(17);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Interleave, SliceRoundTrip) {
  // Odd n and odd k — no even-division shortcuts.
  const idx_t n = 19;
  for (const idx_t k : {1, 3, 5}) {
    std::vector<AlignedVector<real>> slices;
    for (idx_t s = 0; s < k; ++s) {
      AlignedVector<real> v(static_cast<std::size_t>(n));
      for (idx_t i = 0; i < n; ++i)
        v[static_cast<std::size_t>(i)] =
            static_cast<real>(100 * s + i);
      slices.push_back(std::move(v));
    }
    AlignedVector<real> packed(static_cast<std::size_t>(n * k),
                               -1.0f);
    for (idx_t s = 0; s < k; ++s)
      common::interleave_slice(slices[static_cast<std::size_t>(s)], k, s,
                               packed);
    // Element i of slice s must land at i*k + s.
    for (idx_t i = 0; i < n; ++i)
      for (idx_t s = 0; s < k; ++s)
        EXPECT_EQ(packed[static_cast<std::size_t>(i * k + s)],
                  static_cast<real>(100 * s + i));
    AlignedVector<real> out(static_cast<std::size_t>(n));
    for (idx_t s = 0; s < k; ++s) {
      common::deinterleave_slice(packed, k, s, out);
      for (idx_t i = 0; i < n; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)],
                  slices[static_cast<std::size_t>(s)]
                        [static_cast<std::size_t>(i)]);
    }
  }
}

TEST(Interleave, WidthOneIsIdentityLayout) {
  const auto n = std::size_t{13};
  AlignedVector<real> src(n), dst(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<real>(i) * 0.5f;
  common::interleave_slice(src, 1, 0, dst);
  EXPECT_EQ(0, std::memcmp(src.data(), dst.data(), n * sizeof(real)));
  AlignedVector<real> back(n, -1.0f);
  common::deinterleave_slice(dst, 1, 0, back);
  EXPECT_EQ(0, std::memcmp(src.data(), back.data(), n * sizeof(real)));
}

TEST(Interleave, AlignedResizeForSimd) {
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(real);
  AlignedVector<real> v;
  const std::size_t padded = common::aligned_resize_for_simd(v, 7, 3);
  EXPECT_EQ(padded, v.size());
  // Holds n*k elements, rounded up to whole cache lines so vector
  // loads/stores on the last interleaved group stay in bounds.
  EXPECT_GE(v.size(), 21u);
  EXPECT_EQ(v.size() % per_line, 0u);
  for (const real x : v) EXPECT_EQ(x, 0.0f);
  // Shrinking keeps the rounding invariant.
  common::aligned_resize_for_simd(v, 2, 1);
  EXPECT_GE(v.size(), 2u);
  EXPECT_EQ(v.size() % per_line, 0u);
  EXPECT_THROW(common::aligned_resize_for_simd(v, 4, 0), InvariantError);
}

}  // namespace
}  // namespace memxct
