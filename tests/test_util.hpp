// Shared helpers for the MemXCT test suite.
#pragma once

#include <gtest/gtest.h>
#include <sys/mman.h>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/precision.hpp"

namespace memxct::testutil {

/// Random CSR matrix with approximately `density` fill.
inline sparse::CsrMatrix random_csr(idx_t rows, idx_t cols, double density,
                                    std::uint64_t seed) {
  Rng rng(seed);
  sparse::CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    for (idx_t c = 0; c < cols; ++c)
      if (rng.uniform() < density)
        entries.emplace_back(c, static_cast<real>(rng.uniform(-2.0, 2.0)));
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Banded matrix whose rows touch a compact column window — structurally
/// similar to a Hilbert-ordered projection matrix (compact footprints).
inline sparse::CsrMatrix banded_csr(idx_t rows, idx_t cols, idx_t bandwidth,
                                    std::uint64_t seed) {
  Rng rng(seed);
  sparse::CsrBuilder b(rows, cols);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < rows; ++r) {
    entries.clear();
    const idx_t center = static_cast<idx_t>(
        static_cast<std::int64_t>(r) * cols / (rows > 0 ? rows : 1));
    for (idx_t d = -bandwidth; d <= bandwidth; ++d) {
      const idx_t c = center + d;
      if (c >= 0 && c < cols && rng.uniform() < 0.6)
        entries.emplace_back(c, static_cast<real>(rng.uniform(0.1, 1.0)));
    }
    b.set_row(r, entries);
  }
  return b.assemble();
}

/// Random vector in [-1, 1).
inline AlignedVector<real> random_vector(idx_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector<real> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<real>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Max absolute difference between two vectors.
inline double max_abs_diff(std::span<const real> a, std::span<const real> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

/// Relative L2 error ||a-b|| / max(||b||, eps).
inline double rel_error(std::span<const real> a, std::span<const real> b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-30);
}

/// True when two vectors hold the same bytes (bitwise, so -0.0 != 0.0 and
/// identical NaNs compare equal).
template <class Vec>
bool same_bytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(),
                      a.size() * sizeof(typename Vec::value_type)) == 0);
}

/// Reference staged-structure builder: the straightforward construction the
/// production build_buffered must reproduce byte for byte. Each partition's
/// footprint is its full column list sorted and deduplicated, and every
/// entry is located in it by binary search.
inline sparse::BufferedMatrix reference_build_buffered(
    const sparse::CsrMatrix& a, const sparse::BufferConfig& config) {
  sparse::BufferedMatrix b;
  b.num_rows = a.num_rows;
  b.num_cols = a.num_cols;
  b.config = config;
  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;
  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));
  b.partdispl.push_back(0);
  b.stagedispl.push_back(0);
  b.displ.push_back(0);
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t r0 = p * partsize;
    const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
    std::vector<idx_t> cols(a.ind.begin() + a.displ[r0],
                            a.ind.begin() + a.displ[r1]);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    const auto footprint = static_cast<idx_t>(cols.size());
    const idx_t stages = std::max<idx_t>(1, ceil_div(footprint, buffsize));
    b.partdispl.push_back(b.partdispl.back() + stages);
    b.map.insert(b.map.end(), cols.begin(), cols.end());
    for (idx_t s = 0; s < stages; ++s) {
      const idx_t lo = s * buffsize;
      const idx_t nz = std::max<idx_t>(0, std::min(buffsize, footprint - lo));
      b.stagenz.push_back(nz);
      b.stagedispl.push_back(b.stagedispl.back() + nz);
      // Stage-major: every row's entries of this stage, rows in order,
      // entries in column order within each row.
      for (idx_t j = 0; j < partsize; ++j) {
        const idx_t r = r0 + j;
        if (r < r1)
          for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
            const auto pos = static_cast<idx_t>(
                std::lower_bound(cols.begin(), cols.end(), a.ind[k]) -
                cols.begin());
            if (pos / buffsize != s) continue;
            b.ind.push_back(static_cast<buf_idx_t>(pos % buffsize));
            b.val.push_back(a.val[k]);
          }
        b.displ.push_back(static_cast<nnz_t>(b.ind.size()));
      }
    }
  }
  return b;
}

/// Rows [r0, r1) of `a` with every column replaced by its rank in
/// `footprint` (sorted, and holding every column those rows touch), found
/// by binary search: the CSR slice a shard tile was staged from before the
/// tiles were cut from the serial pair. sparse::cut_partitions must give
/// build_buffered of it byte for byte.
inline sparse::CsrMatrix compacted_slice(const sparse::CsrMatrix& a,
                                         idx_t r0, idx_t r1,
                                         std::span<const idx_t> footprint) {
  sparse::CsrMatrix s;
  s.num_rows = r1 - r0;
  s.num_cols = static_cast<idx_t>(footprint.size());
  s.displ.push_back(0);
  for (idx_t r = r0; r < r1; ++r) {
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
      s.ind.push_back(static_cast<idx_t>(
          std::lower_bound(footprint.begin(), footprint.end(), a.ind[k]) -
          footprint.begin()));
      s.val.push_back(a.val[k]);
    }
    s.displ.push_back(static_cast<nnz_t>(s.ind.size()));
  }
  return s;
}

/// Bytes of matrix-array (UninitAllocator) storage held by the arrays: what
/// matrix_byte_counter() counts for them.
template <class... V>
std::int64_t matrix_bytes(const V&... arrays) {
  return (static_cast<std::int64_t>(arrays.capacity() *
                                    sizeof(typename V::value_type)) +
          ...);
}
inline std::int64_t matrix_bytes_of(const sparse::CsrMatrix& m) {
  return matrix_bytes(m.ind, m.val);
}
inline std::int64_t matrix_bytes_of(const sparse::BufferedMatrix& m) {
  return matrix_bytes(m.map, m.displ, m.ind, m.val, m.val16);
}

/// Expects the whole pages inside elements [first, last) of the matrix
/// array `v` released (release_consumed): not resident, or under
/// AddressSanitizer poisoned. Heap arrays (under kMatrixMapFloorBytes) are
/// never released, so nothing is expected of them.
template <class T>
void expect_released(const UninitVector<T>& v, std::size_t first,
                     std::size_t last) {
  if (v.capacity() * sizeof(T) < kMatrixMapFloorBytes || first >= last)
    return;
  const std::size_t page = page_bytes();
  const auto base = reinterpret_cast<std::uintptr_t>(v.data());
  const std::uintptr_t lo = (base + first * sizeof(T) + page - 1) / page * page;
  const std::uintptr_t hi = (base + last * sizeof(T)) / page * page;
  if (hi <= lo) return;
#ifdef __SANITIZE_ADDRESS__
  for (std::uintptr_t a = lo; a < hi; a += page)
    for (const std::uintptr_t byte : {a, a + page - 1})
      EXPECT_TRUE(__asan_address_is_poisoned(reinterpret_cast<void*>(byte)));
#else
  std::vector<unsigned char> resident((hi - lo) / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()), 0);
  std::size_t kept = 0;
  for (const unsigned char r : resident) kept += r & 1u;
  EXPECT_EQ(kept, 0u) << "of " << resident.size() << " pages";
#endif
}

/// Expects two staged matrices equal in shape, configuration and storage
/// and byte for byte on every array.
inline void expect_same_buffered(const sparse::BufferedMatrix& got,
                                 const sparse::BufferedMatrix& want) {
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.num_cols, want.num_cols);
  EXPECT_EQ(got.config.partsize, want.config.partsize);
  EXPECT_EQ(got.config.buffsize, want.config.buffsize);
  EXPECT_EQ(got.storage, want.storage);
  EXPECT_TRUE(same_bytes(got.partdispl, want.partdispl));
  EXPECT_TRUE(same_bytes(got.stagedispl, want.stagedispl));
  EXPECT_TRUE(same_bytes(got.stagenz, want.stagenz));
  EXPECT_TRUE(same_bytes(got.map, want.map));
  EXPECT_TRUE(same_bytes(got.displ, want.displ));
  EXPECT_TRUE(same_bytes(got.ind, want.ind));
  EXPECT_TRUE(same_bytes(got.val, want.val));
  EXPECT_TRUE(same_bytes(got.val16, want.val16));
}

/// Serial reference apply of a CSR matrix: y[r] sums row r's entries from
/// zero in stored (strict j) order in fp32. No partitions, no OpenMP: the
/// arithmetic every CSR-layout kernel must reproduce bit for bit. Compiled
/// without FP contraction, like memxct_sparse, so mul and add round
/// separately.
[[gnu::optimize("fp-contract=off")]] inline void reference_apply(
    const sparse::CsrMatrix& a, std::span<const real> x, std::span<real> y) {
  for (idx_t r = 0; r < a.num_rows; ++r) {
    real acc = 0;
    for (nnz_t j = a.displ[r]; j < a.displ[r + 1]; ++j)
      acc += x[static_cast<std::size_t>(a.ind[j])] * a.val[j];
    y[static_cast<std::size_t>(r)] = acc;
  }
}

/// Serial reference apply of a staged matrix: partitions in order, and for
/// each row its stages in order, each (stage, row) run summed from zero in
/// strict j-order through the footprint map (no staging buffer, no
/// prefetch, no OpenMP), values decoded through `storage`, and added to the
/// row's running sum. A buffered matrix with 16-bit values has the same
/// structure as the fp32 one it was quantized from, so this reference,
/// given the fp32 matrix and the storage, is its reference too.
[[gnu::optimize("fp-contract=off")]] inline void reference_apply(
    const sparse::BufferedMatrix& b, std::span<const real> x,
    std::span<real> y,
    sparse::ValueStorage storage = sparse::ValueStorage::Fp32) {
  const idx_t partsize = b.config.partsize;
  for (idx_t p = 0; p < b.num_partitions(); ++p)
    for (idx_t j = 0; j < partsize && p * partsize + j < b.num_rows; ++j) {
      real sum = 0;
      for (idx_t s = b.partdispl[static_cast<std::size_t>(p)];
           s < b.partdispl[static_cast<std::size_t>(p) + 1]; ++s) {
        const idx_t* const map =
            b.map.data() + b.stagedispl[static_cast<std::size_t>(s)];
        const auto cell = static_cast<std::size_t>(s) * partsize + j;
        real acc = 0;
        for (nnz_t i = b.displ[cell]; i < b.displ[cell + 1]; ++i)
          acc += x[static_cast<std::size_t>(map[b.ind[i]])] *
                 sparse::quantize(b.val[i], storage);
        sum += acc;
      }
      y[static_cast<std::size_t>(p * partsize + j)] = sum;
    }
}

}  // namespace memxct::testutil
