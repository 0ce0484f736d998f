#include "sparse/spmm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sparse/kernels.hpp"

namespace memxct::sparse {

void apply(const CsrMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y, idx_t partsize) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(partsize > 0);
  detail::with_csr_lanes(k, [&](auto lanes) {
    detail::run_csr_rows<decltype(lanes)::value>(
        RowRange{0, a.num_rows}, a.num_rows, partsize, sched, k, x.data(),
        y.data(), detail::csr_runs(a));
  });
}

void apply(const BufferedMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  with_values(a.storage, [&](auto vals) {
    with_block_lanes(k, [&](auto lanes) {
      detail::run_staged<decltype(lanes)::value>(
          RowRange{0, a.num_rows}, a.num_rows, a.config, sched, k, x.data(),
          y.data(), detail::buffered_runs<decltype(vals)>(a));
    });
  });
}

void apply(const EllBlockMatrix& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const idx_t block_rows = a.block_rows;
  const auto kk = static_cast<std::size_t>(k);
  for_each_partition(
      a.num_blocks(), sched, apply_scratch(a, k),
      [&](idx_t b, real*, real* acc) {
        const idx_t r0 = b * block_rows;
        const auto lanes = static_cast<std::size_t>(
            std::min<idx_t>(block_rows, a.num_rows - r0));
        const nnz_t base = a.block_displ[static_cast<std::size_t>(b)];
        const idx_t width = a.block_width[static_cast<std::size_t>(b)];
        std::fill(acc, acc + lanes * kk, real{0});
        for (idx_t w = 0; w < width; ++w) {
          const idx_t* const indw =
              ind + base + static_cast<nnz_t>(w) * block_rows;
          const real* const valw =
              val + base + static_cast<nnz_t>(w) * block_rows;
          if (k == 1) {
            // Pad entries multiply x[0] by 0: no branch, matching the
            // paper's thread-divergence-free GPU kernel.
#pragma omp simd
            for (std::size_t l = 0; l < lanes; ++l)
              acc[l] += xp[indw[l]] * valw[l];
            continue;
          }
          for (std::size_t l = 0; l < lanes; ++l) {
            const real v = valw[l];
            const real* const xr = xp + static_cast<std::size_t>(indw[l]) * kk;
            real* const al = acc + l * kk;
#pragma omp simd
            for (std::size_t s = 0; s < kk; ++s) al[s] += xr[s] * v;
          }
        }
        // Rows r0.. sit contiguously at stride k in y, as in acc.
        std::copy(acc, acc + lanes * kk,
                  yp + static_cast<std::size_t>(r0) * kk);
      });
}

void spmm_csr(const CsrMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y, idx_t partsize) {
  apply(a, {}, k, x, y, partsize);
}

void spmm_ell(const EllBlockMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y) {
  apply(a, {}, k, x, y);
}

void spmm_buffered(const BufferedMatrix& a, idx_t k, std::span<const real> x,
                   std::span<real> y) {
  apply(a, {}, k, x, y);
}

void spmm_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, idx_t k,
                      std::span<const real> x, std::span<real> y) {
  apply(a, {&plan}, k, x, y, partsize);
}

void spmm_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, idx_t k, std::span<const real> x,
                      std::span<real> y) {
  apply(a, {&plan, &ws}, k, x, y);
}

void spmm_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, idx_t k, std::span<const real> x,
                           std::span<real> y) {
  apply(a, {&plan, &ws}, k, x, y);
}

void spmm_library(const CsrMatrix& a, idx_t k, std::span<const real> x,
                  std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const auto kk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(static)
  for (idx_t r = 0; r < a.num_rows; ++r) {
    real acc[kMaxBlockWidth];
    for (idx_t s = 0; s < k; ++s) acc[s] = 0;
    for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
      const real v = val[j];
      const real* const xr = xp + static_cast<std::size_t>(ind[j]) * kk;
#pragma omp simd
      for (idx_t s = 0; s < k; ++s) acc[s] += xr[s] * v;
    }
    real* const yr = yp + static_cast<std::size_t>(r) * kk;
#pragma omp simd
    for (idx_t s = 0; s < k; ++s) yr[s] = acc[s];
  }
}

}  // namespace memxct::sparse
