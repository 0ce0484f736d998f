// Multi-RHS SpMV (SpMM): apply one memoized matrix to K right-hand-sides
// per pass over the nonzeros.
//
// MemXCT's iterative hot loop is bound by streaming the matrix (Section
// 3.3: 6 B/FMA after 16-bit buffering). Running S slices as S independent
// SpMVs re-reads ind/val from DRAM S times. These kernels stream each
// nonzero ONCE per K slices, cutting the regular matrix traffic per slice
// to ~1/K of the single-RHS cost (the staged x-value gathers of the
// buffered kernel remain per-slice; the map reads amortize).
//
// Layout: right-hand-sides are interleaved slice-major — slice s's element
// i lives at x[i*K + s] (common/interleave.hpp converts). One loaded
// (ind, val) pair then feeds K contiguous lanes while EVERY slice keeps the
// exact scalar accumulation order of the single-RHS kernels.
//
// Lane widths (DESIGN.md §20): the buffered families (fp32 and compressed)
// run one block body compiled for L = block_lanes(k) lanes, the smallest
// power of two >= k. With L a compile-time constant the L row accumulators
// stay in vector registers; with a run-time k GCC keeps them on the stack.
// Staging zero-fills lanes k..L-1, and only the k real lanes are stored.
// The CSR/ELL/library kernels read x directly at stride k, so they keep
// their run-time lane loops.
//
// Capacity contract for the planned buffered kernels: each Workspace slot
// needs input capacity >= buffsize * block_lanes(k) and output capacity
// >= partsize * block_lanes(k) (core::MemXCTOperator::make_block_workspace
// sizes them so). The dynamic kernels allocate the same per thread.
//
// Bitwise-parity contract: for every kernel family, schedule, thread
// count, and K, deinterleaving lane s of the block result equals the
// corresponding single-RHS kernel's output bit for bit. Two ingredients
// make that hold: (1) the single-RHS CSR/buffered inner loops use a strict
// scalar accumulation order (no reassociating simd reduction — see
// sparse/spmv.cpp), and (2) each lane's per-nonzero update here has the
// same `acc += x*v` expression shape, so FP contraction applies
// identically to both. Padded lanes are arithmetically independent of the
// real ones and are discarded.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>

#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmv.hpp"

namespace memxct::sparse {

/// Widest supported block; bounds the per-row accumulator the block
/// kernels carry (64 lanes · 4 B = 256 B).
inline constexpr idx_t kMaxBlockWidth = 64;

/// Lane count the buffered block kernels run a width-k apply at: the
/// smallest of 1, 2, 4, ..., kMaxBlockWidth that is >= k. Buffered block
/// workspaces are sized in these lanes (see the capacity contract above).
[[nodiscard]] constexpr idx_t block_lanes(idx_t k) noexcept {
  idx_t lanes = 1;
  while (lanes < k) lanes *= 2;
  return lanes;
}

/// Calls f(std::integral_constant<idx_t, block_lanes(k)>{}), so a block
/// body can take its lane count as a template argument.
template <class F>
inline void with_block_lanes(idx_t k, F&& f) {
  switch (block_lanes(k)) {
    case 1: f(std::integral_constant<idx_t, 1>{}); return;
    case 2: f(std::integral_constant<idx_t, 2>{}); return;
    case 4: f(std::integral_constant<idx_t, 4>{}); return;
    case 8: f(std::integral_constant<idx_t, 8>{}); return;
    case 16: f(std::integral_constant<idx_t, 16>{}); return;
    case 32: f(std::integral_constant<idx_t, 32>{}); return;
    default: f(std::integral_constant<idx_t, 64>{}); return;
  }
}
static_assert(kMaxBlockWidth == 64,
              "with_block_lanes and the lane unroll below cover 1..64");

/// The one buffered block body: partition `part` of a staged matrix `a`
/// (BufferedMatrix or CompressedBuffered: only its num_rows, partsize and
/// partdispl are read) applied to k <= L interleaved slices of x, stored to
/// the k-interleaved y. The storage family supplies the two stream walkers,
/// each visiting in stream order:
///   gather(stage, put): put(i, col) for the stage's footprint entries i;
///   walk(stage, j, add): add(slot, v) for row j's run in the stage.
/// `input` holds the staged footprint at stride L (buffsize * L), `output`
/// the partition's row sums at stride L (partsize * L). Lanes k..L-1 are
/// staged as zeros and never stored. Every loop over lanes runs to the
/// constant L itself (DESIGN.md §20 has the codegen check).
template <idx_t L, class Matrix, class Gather, class Walk>
inline void staged_partition_block(const Matrix& a, idx_t part, idx_t k,
                                   const real* x, real* y, real* input,
                                   real* output, Gather&& gather,
                                   Walk&& walk) {
  const idx_t partsize = a.config.partsize;
  const auto kk = static_cast<std::size_t>(k);
  std::fill(output, output + static_cast<std::size_t>(partsize) * L, real{0});
  for (idx_t stage = a.partdispl[part]; stage < a.partdispl[part + 1];
       ++stage) {
    // Staging: one map entry serves all k lanes; the gathered x values
    // themselves stay per-lane (see the traffic model in
    // perf/counters.hpp).
    gather(stage, [&](idx_t i, idx_t col) {
      const real* const src = x + static_cast<std::size_t>(col) * kk;
      real* const dst = input + static_cast<std::size_t>(i) * L;
      if (k == L) {  // no padding: a plain fixed-width copy
        for (idx_t s = 0; s < L; ++s) dst[s] = src[s];
      } else {
        for (idx_t s = 0; s < L; ++s) dst[s] = s < k ? src[s] : real{0};
      }
    });
    for (idx_t j = 0; j < partsize; ++j) {
      real acc[L] = {};
      walk(stage, j, [&](idx_t slot, real v) {
        const real* const xr = input + static_cast<std::size_t>(slot) * L;
        // Unrolled outright, the L lanes become one vector expression per
        // entry. Left a loop (an omp simd one included), GCC's
        // unroll-and-jam swaps it with the walker's entry loop and keeps
        // acc in memory. 64 == kMaxBlockWidth.
#pragma GCC unroll 64
        for (idx_t s = 0; s < L; ++s) acc[s] += xr[s] * v;
      });
      real* const out = output + static_cast<std::size_t>(j) * L;
#pragma omp simd
      for (idx_t s = 0; s < L; ++s) out[s] += acc[s];
    }
  }
  const idx_t rstart = part * partsize;
  const idx_t rows_here = std::min<idx_t>(partsize, a.num_rows - rstart);
  for (idx_t i = 0; i < rows_here; ++i) {
    real* const yr = y + static_cast<std::size_t>(rstart + i) * kk;
    const real* const out = output + static_cast<std::size_t>(i) * L;
    for (idx_t s = 0; s < k; ++s) yr[s] = out[s];
  }
}

/// y[r*k + s] = sum_j A[r,j] · x[j*k + s] — the baseline CSR kernel
/// (dynamic partition schedule) applied to k interleaved slices.
void spmm_csr(const CsrMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y, idx_t partsize = kCsrPartsize);

/// Multi-RHS form of the general-library CSR stand-in (static schedule).
void spmm_library(const CsrMatrix& a, idx_t k, std::span<const real> x,
                  std::span<real> y);

/// Multi-RHS block-ELL apply (dynamic schedule).
void spmm_ell(const EllBlockMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y);

/// Multi-RHS multi-stage buffered apply (dynamic schedule): each stage's
/// footprint is gathered once per slice into a k-wide interleaved buffer,
/// then every partition row consumes its run for all k slices from L1.
void spmm_buffered(const BufferedMatrix& a, idx_t k, std::span<const real> x,
                   std::span<real> y);

/// Planned (static nnz-balanced) variants; plans are the SAME objects the
/// single-RHS kernels use — the block path adds no plan state.
void spmm_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, idx_t k,
                      std::span<const real> x, std::span<real> y);

/// `ws` needs per-slot output capacity >= a.block_rows * k.
void spmm_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, idx_t k, std::span<const real> x,
                      std::span<real> y);

/// `ws` needs per-slot input capacity >= buffsize * block_lanes(k) and
/// output capacity >= partsize * block_lanes(k).
void spmm_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, idx_t k, std::span<const real> x,
                           std::span<real> y);

}  // namespace memxct::sparse
