// One apply kernel: y = A·X for k interleaved right-hand sides, every SpMV
// being the k = 1 instance.
//
// MemXCT's iterative hot loop is bound by streaming the matrix (Section
// 3.3: 6 B/FMA after 16-bit buffering). Running S slices as S independent
// SpMVs re-reads ind/val from DRAM S times. A width-k apply streams each
// nonzero ONCE per k slices, cutting the regular matrix traffic per slice
// to ~1/k of the single-RHS cost (the staged x-value gathers of the
// buffered kernel remain per-slice; the map reads amortize).
//
// Layout: right-hand-sides are interleaved slice-major — slice s's element
// i lives at x[i*k + s] (common/interleave.hpp converts). At k = 1 that is
// the plain vector, so the SpMV needs no copies. One loaded (ind, val) pair
// feeds k contiguous lanes while every lane keeps the strict scalar
// j-order of one row sum.
//
// `apply` is the entry point of every storage family (these three, with
// the buffered layout at any value precision; the subset windows in
// sparse/subset.hpp). It runs one lane-templated body per index layout —
// CSR rows or staged runs (DESIGN.md §20) — under the one partition driver
// of sparse/plan.hpp, dynamic or planned. The spmv_*/spmm_* functions are
// its width-1 and width-k spellings. Bodies are instantiated only inside
// memxct_sparse.
//
// Lane widths: the staged bodies run at L = block_lanes(k) lanes, the
// smallest power of two >= k, so the L row accumulators stay in vector
// registers. Staging zero-fills lanes k..L-1, and only the k real lanes are
// stored. The CSR and ELL bodies read x in place at stride k, so they keep
// run-time lane loops.
//
// Capacity contract for planned applies: each Workspace slot needs at least
// apply_scratch(a, k) (core::MemXCTOperator sizes its workspaces with it,
// and the dynamic schedule allocates the same per thread).
//
// Bitwise-parity contract: for every storage family, schedule, thread
// count, and k, deinterleaving lane s of the block result equals the
// width-1 apply of slice s bit for bit. Lanes never mix, each lane's
// per-nonzero update is `acc += x*v` in strict j-order (no reassociating
// simd reduction), and -ffp-contract=off on memxct_sparse makes every
// instance round mul+add identically. Padded lanes are arithmetically
// independent of the real ones and are discarded.
#pragma once

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

/// Lane count the staged bodies run a width-k apply at: the smallest of
/// 1, 2, 4, ..., kMaxBlockWidth that is >= k.
[[nodiscard]] constexpr idx_t block_lanes(idx_t k) noexcept {
  idx_t lanes = 1;
  while (lanes < k) lanes *= 2;
  return lanes;
}

/// Calls f(std::integral_constant<idx_t, block_lanes(k)>{}), so a body can
/// take its lane count as a template argument.
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
              "with_block_lanes and the lane unroll cover 1..64");

/// Per-slot scratch a width-k apply of `a` needs: staged layouts (anything
/// with a BufferConfig) hold buffsize and partsize entries per lane at
/// block_lanes(k) lanes, ELL one accumulator per block row and lane, the
/// CSR layouts nothing.
template <class Matrix>
[[nodiscard]] Scratch apply_scratch(const Matrix& a, idx_t k) {
  if constexpr (requires { a.config; })
    return {a.config.buffsize * block_lanes(k),
            a.config.partsize * block_lanes(k)};
  else if constexpr (requires { a.block_rows; })
    return {0, a.block_rows * k};
  else
    return {};
}

/// y[r*k + s] = sum_j A[r,j] · x[j*k + s] for 1 <= k <= kMaxBlockWidth,
/// under `sched` (dynamic, or planned over partition_nnz(a) weights). At
/// k = 1 x and y hold exactly num_cols and num_rows entries; a block's
/// interleaved vectors may be longer (padded). Throws InvariantError on a
/// bad shape, a mismatched plan or an undersized workspace.
void apply(const CsrMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y,
           idx_t partsize = kCsrPartsize);
void apply(const EllBlockMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y);
void apply(const BufferedMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y);

/// Width-k spellings of apply(), dynamic schedule.
void spmm_csr(const CsrMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y, idx_t partsize = kCsrPartsize);
void spmm_ell(const EllBlockMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y);
void spmm_buffered(const BufferedMatrix& a, idx_t k, std::span<const real> x,
                   std::span<real> y);

/// Multi-RHS form of the general-library CSR stand-in (static schedule,
/// outside the partition driver like spmv_library).
void spmm_library(const CsrMatrix& a, idx_t k, std::span<const real> x,
                  std::span<real> y);

/// Planned width-k spellings; plans are the SAME objects the single-RHS
/// applies use — the block path adds no plan state. Workspaces need
/// apply_scratch(a, k) per slot.
void spmm_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, idx_t k,
                      std::span<const real> x, std::span<real> y);
void spmm_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, idx_t k, std::span<const real> x,
                      std::span<real> y);
void spmm_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, idx_t k, std::span<const real> x,
                           std::span<real> y);

}  // namespace memxct::sparse
