#include "sparse/spmm.hpp"

#include <omp.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"

namespace memxct::sparse {

namespace {

void check_block_shape(idx_t num_rows, idx_t num_cols, idx_t k,
                       std::span<const real> x, std::span<real> y) {
  MEMXCT_CHECK_MSG(k >= 1 && k <= kMaxBlockWidth,
                   "block width out of [1, kMaxBlockWidth]");
  MEMXCT_CHECK(x.size() >= static_cast<std::size_t>(num_cols) *
                               static_cast<std::size_t>(k));
  MEMXCT_CHECK(y.size() >= static_cast<std::size_t>(num_rows) *
                               static_cast<std::size_t>(k));
}

}  // namespace

void spmm_csr(const CsrMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y, idx_t partsize) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(partsize > 0);
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const auto kk = static_cast<std::size_t>(k);
#pragma omp parallel for schedule(dynamic, 128)
  for (idx_t i = 0; i < a.num_rows; i += partsize) {
    const idx_t end = i + partsize < a.num_rows ? i + partsize : a.num_rows;
    for (idx_t r = i; r < end; ++r) {
      real acc[kMaxBlockWidth];
      for (idx_t s = 0; s < k; ++s) acc[s] = 0;
      for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
        // One streamed (ind, val) pair feeds all k lanes; per lane the
        // j-order is exactly the single-RHS kernel's accumulation order.
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
}

void spmm_library(const CsrMatrix& a, idx_t k, std::span<const real> x,
                  std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
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

void spmm_ell(const EllBlockMatrix& a, idx_t k, std::span<const real> x,
              std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const idx_t block_rows = a.block_rows;
  const idx_t num_blocks = a.num_blocks();
  const auto kk = static_cast<std::size_t>(k);
#pragma omp parallel
  {
    AlignedVector<real> acc(static_cast<std::size_t>(block_rows) * kk);
#pragma omp for schedule(dynamic, 4)
    for (idx_t b = 0; b < num_blocks; ++b) {
      const idx_t r0 = b * block_rows;
      const idx_t lanes = std::min<idx_t>(block_rows, a.num_rows - r0);
      const nnz_t base = a.block_displ[static_cast<std::size_t>(b)];
      const idx_t width = a.block_width[static_cast<std::size_t>(b)];
      std::fill(acc.begin(),
                acc.begin() + static_cast<std::size_t>(lanes) * kk, real{0});
      for (idx_t w = 0; w < width; ++w) {
        const idx_t* const indw =
            ind + base + static_cast<nnz_t>(w) * block_rows;
        const real* const valw =
            val + base + static_cast<nnz_t>(w) * block_rows;
        for (idx_t l = 0; l < lanes; ++l) {
          const real v = valw[l];
          const real* const xr =
              xp + static_cast<std::size_t>(indw[l]) * kk;
          real* const al = acc.data() + static_cast<std::size_t>(l) * kk;
#pragma omp simd
          for (idx_t s = 0; s < k; ++s) al[s] += xr[s] * v;
        }
      }
      for (idx_t l = 0; l < lanes; ++l) {
        real* const yr =
            yp + static_cast<std::size_t>(r0 + l) * kk;
        const real* const al = acc.data() + static_cast<std::size_t>(l) * kk;
#pragma omp simd
        for (idx_t s = 0; s < k; ++s) yr[s] = al[s];
      }
    }
  }
}

namespace {

/// One partition of the fp32 buffered matrix at block width k: the shared
/// block body (spmm.hpp) at L = block_lanes(k), walking each run with the
/// prefetching for_each_in_run. `input`/`output` hold buffsize·L and
/// partsize·L entries.
inline void buffered_partition_block(const BufferedMatrix& a, idx_t part,
                                     idx_t k, const real* xp, real* yp,
                                     real* input, real* output) {
  const idx_t partsize = a.config.partsize;
  const nnz_t* const stagedispl = a.stagedispl.data();
  const idx_t* const stagenz = a.stagenz.data();
  const idx_t* const map = a.map.data();
  const nnz_t* const displ = a.displ.data();
  const buf_idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const nnz_t nnz = a.nnz();
  const auto gather = [&](idx_t stage, auto&& put) {
    const idx_t* const mp = map + stagedispl[stage];
    for (idx_t i = 0; i < stagenz[stage]; ++i) put(i, mp[i]);
  };
  const auto walk = [&](idx_t stage, idx_t j, auto&& add) {
    const nnz_t* const run = displ + static_cast<nnz_t>(stage) * partsize;
    for_each_in_run(ind, val, nnz, run[j], run[j + 1], add);
  };
  with_block_lanes(k, [&](auto lanes) {
    staged_partition_block<decltype(lanes)::value>(a, part, k, xp, yp, input,
                                                   output, gather, walk);
  });
}

}  // namespace

void spmm_buffered(const BufferedMatrix& a, idx_t k, std::span<const real> x,
                   std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t numparts = a.num_partitions();
  const real* const xp = x.data();
  real* const yp = y.data();
  const auto lanes = static_cast<std::size_t>(block_lanes(k));
#pragma omp parallel
  {
    AlignedVector<real> input(static_cast<std::size_t>(a.config.buffsize) *
                              lanes);
    AlignedVector<real> output(static_cast<std::size_t>(a.config.partsize) *
                               lanes);
#pragma omp for schedule(dynamic)
    for (idx_t part = 0; part < numparts; ++part)
      buffered_partition_block(a, part, k, xp, yp, input.data(),
                               output.data());
  }
}

void spmm_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, idx_t k,
                      std::span<const real> x, std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(partsize > 0);
  MEMXCT_CHECK(plan.num_partitions() ==
               std::max<idx_t>(1, ceil_div(a.num_rows, partsize)));
  const idx_t num_rows = a.num_rows;
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  const auto kk = static_cast<std::size_t>(k);

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part) {
        const idx_t r0 = std::min<idx_t>(part * partsize, num_rows);
        const idx_t r1 = std::min<idx_t>(r0 + partsize, num_rows);
        for (idx_t r = r0; r < r1; ++r) {
          real acc[kMaxBlockWidth];
          for (idx_t l = 0; l < k; ++l) acc[l] = 0;
          for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
            const real v = val[j];
            const real* const xr =
                xp + static_cast<std::size_t>(ind[j]) * kk;
#pragma omp simd
            for (idx_t l = 0; l < k; ++l) acc[l] += xr[l] * v;
          }
          real* const yr = yp + static_cast<std::size_t>(r) * kk;
#pragma omp simd
          for (idx_t l = 0; l < k; ++l) yr[l] = acc[l];
        }
      }
    }
  }
}

void spmm_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, idx_t k, std::span<const real> x,
                      std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(plan.num_partitions() == a.num_blocks());
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
  const idx_t block_rows = a.block_rows;
  const int num_slots = plan.num_slots();
  const auto kk = static_cast<std::size_t>(k);

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      const std::span<real> acc_span = ws.output(s);
      MEMXCT_CHECK(acc_span.size() >=
                   static_cast<std::size_t>(block_rows) * kk);
      real* const acc = acc_span.data();
      for (idx_t b = plan.slot_begin(s); b < plan.slot_end(s); ++b) {
        const idx_t r0 = b * block_rows;
        const idx_t lanes = std::min<idx_t>(block_rows, a.num_rows - r0);
        const nnz_t base = a.block_displ[static_cast<std::size_t>(b)];
        const idx_t width = a.block_width[static_cast<std::size_t>(b)];
        std::fill(acc, acc + static_cast<std::size_t>(lanes) * kk, real{0});
        for (idx_t w = 0; w < width; ++w) {
          const idx_t* const indw =
              ind + base + static_cast<nnz_t>(w) * block_rows;
          const real* const valw =
              val + base + static_cast<nnz_t>(w) * block_rows;
          for (idx_t l = 0; l < lanes; ++l) {
            const real v = valw[l];
            const real* const xr =
                xp + static_cast<std::size_t>(indw[l]) * kk;
            real* const al = acc + static_cast<std::size_t>(l) * kk;
#pragma omp simd
            for (idx_t t = 0; t < k; ++t) al[t] += xr[t] * v;
          }
        }
        for (idx_t l = 0; l < lanes; ++l) {
          real* const yr = yp + static_cast<std::size_t>(r0 + l) * kk;
          const real* const al = acc + static_cast<std::size_t>(l) * kk;
#pragma omp simd
          for (idx_t t = 0; t < k; ++t) yr[t] = al[t];
        }
      }
    }
  }
}

void spmm_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, idx_t k, std::span<const real> x,
                           std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  const auto lanes = static_cast<std::size_t>(block_lanes(k));

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      const std::span<real> input_span = ws.input(s);
      const std::span<real> output_span = ws.output(s);
      MEMXCT_CHECK(input_span.size() >=
                   static_cast<std::size_t>(a.config.buffsize) * lanes);
      MEMXCT_CHECK(output_span.size() >=
                   static_cast<std::size_t>(a.config.partsize) * lanes);
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part)
        buffered_partition_block(a, part, k, xp, yp, input_span.data(),
                                 output_span.data());
    }
  }
}

}  // namespace memxct::sparse
