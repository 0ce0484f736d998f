// Slice-major interleaving between per-slice vectors and the multi-RHS
// (SpMM) layout.
//
// The block apply path stores K right-hand-sides interleaved element-wise:
// slice s's element i lives at dst[i*K + s]. With that layout one streamed
// nonzero (ind, val) feeds all K slices as one vector expression across the
// K dimension, while each slice keeps the scalar accumulation order of the
// single-RHS kernels — the bitwise-parity contract of sparse/spmm.hpp.
//
// These routines are the ONE implementation of that pack/unpack, shared by
// the core BlockWorkspace, the block solver, and the batch engine. They are
// pure data movement (no arithmetic), so parallelizing them cannot perturb
// determinism.
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace memxct::common {

/// Resizes `v` to hold `n` elements for each of `k` interleaved slices,
/// padded up to a whole cache line so vector loads/stores on the last
/// interleaved group never touch memory the vector does not own. Returns
/// the padded element count. Padding elements are zero-initialized on
/// growth (std::vector semantics), never read by the kernels.
template <class T>
std::size_t aligned_resize_for_simd(AlignedVector<T>& v, std::size_t n,
                                    idx_t k) {
  MEMXCT_CHECK(k >= 1);
  constexpr std::size_t per_line = kCacheLineBytes / sizeof(T);
  const std::size_t wanted = n * static_cast<std::size_t>(k);
  const std::size_t padded = (wanted + per_line - 1) / per_line * per_line;
  v.resize(padded);
  return padded;
}

/// Packs one slice: dst[i*k + s] = src[i] for i in [0, src.size()).
inline void interleave_slice(std::span<const real> src, idx_t k, idx_t s,
                             std::span<real> dst) {
  MEMXCT_CHECK(k >= 1 && s >= 0 && s < k);
  MEMXCT_CHECK(dst.size() >= src.size() * static_cast<std::size_t>(k));
  const real* const sp = src.data();
  real* const dp = dst.data() + s;
  const auto n = static_cast<std::int64_t>(src.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i)
    dp[static_cast<std::size_t>(i) * static_cast<std::size_t>(k)] = sp[i];
}

/// Unpacks one slice: dst[i] = src[i*k + s] for i in [0, dst.size()).
inline void deinterleave_slice(std::span<const real> src, idx_t k, idx_t s,
                               std::span<real> dst) {
  MEMXCT_CHECK(k >= 1 && s >= 0 && s < k);
  MEMXCT_CHECK(src.size() >= dst.size() * static_cast<std::size_t>(k));
  const real* const sp = src.data() + s;
  real* const dp = dst.data();
  const auto n = static_cast<std::int64_t>(dst.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i)
    dp[i] = sp[static_cast<std::size_t>(i) * static_cast<std::size_t>(k)];
}

/// Packs a slab of k contiguous slices (slice s at slab[s*n, (s+1)*n)) into
/// the interleaved layout in one parallel pass over elements.
inline void interleave(std::span<const real> slab, std::size_t n, idx_t k,
                       std::span<real> dst) {
  MEMXCT_CHECK(k >= 1);
  MEMXCT_CHECK(slab.size() >= n * static_cast<std::size_t>(k));
  MEMXCT_CHECK(dst.size() >= n * static_cast<std::size_t>(k));
  const real* const sp = slab.data();
  real* const dp = dst.data();
  const auto nn = static_cast<std::int64_t>(n);
  const auto kk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < nn; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    for (std::size_t s = 0; s < kk; ++s) dp[ui * kk + s] = sp[s * n + ui];
  }
}

/// Unpacks the interleaved layout back into a slab of k contiguous slices.
inline void deinterleave(std::span<const real> interleaved, std::size_t n,
                         idx_t k, std::span<real> slab) {
  MEMXCT_CHECK(k >= 1);
  MEMXCT_CHECK(interleaved.size() >= n * static_cast<std::size_t>(k));
  MEMXCT_CHECK(slab.size() >= n * static_cast<std::size_t>(k));
  const real* const sp = interleaved.data();
  real* const dp = slab.data();
  const auto nn = static_cast<std::int64_t>(n);
  const auto kk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < nn; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    for (std::size_t s = 0; s < kk; ++s) dp[s * n + ui] = sp[ui * kk + s];
  }
}

}  // namespace memxct::common
