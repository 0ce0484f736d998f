#include "sparse/ell.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/spmm.hpp"

namespace memxct::sparse {

namespace {

EllBlockMatrix build(const CsrMatrix& a, idx_t block_rows, bool matrix_level) {
  MEMXCT_CHECK(block_rows > 0);
  EllBlockMatrix e;
  e.num_rows = a.num_rows;
  e.num_cols = a.num_cols;
  e.block_rows = block_rows;
  const idx_t num_blocks = std::max<idx_t>(1, ceil_div(a.num_rows, block_rows));
  e.block_width.resize(static_cast<std::size_t>(num_blocks));
  e.block_displ.resize(static_cast<std::size_t>(num_blocks) + 1);
  e.block_displ[0] = 0;

  const idx_t global_width = matrix_level ? a.max_row_nnz() : 0;
  for (idx_t b = 0; b < num_blocks; ++b) {
    idx_t width = global_width;
    if (!matrix_level) {
      const idx_t r0 = b * block_rows;
      const idx_t r1 = std::min<idx_t>(r0 + block_rows, a.num_rows);
      for (idx_t r = r0; r < r1; ++r)
        width = std::max(width, static_cast<idx_t>(a.displ[r + 1] - a.displ[r]));
    }
    e.block_width[static_cast<std::size_t>(b)] = width;
    e.block_displ[static_cast<std::size_t>(b) + 1] =
        e.block_displ[static_cast<std::size_t>(b)] +
        static_cast<nnz_t>(width) * block_rows;
  }

  e.ind.assign(static_cast<std::size_t>(e.block_displ.back()), 0);
  e.val.assign(static_cast<std::size_t>(e.block_displ.back()), real{0});

#pragma omp parallel for schedule(dynamic, 4)
  for (idx_t b = 0; b < num_blocks; ++b) {
    const idx_t r0 = b * block_rows;
    const idx_t r1 = std::min<idx_t>(r0 + block_rows, a.num_rows);
    const nnz_t base = e.block_displ[static_cast<std::size_t>(b)];
    for (idx_t r = r0; r < r1; ++r) {
      const idx_t lane = r - r0;  // "thread id" within the block
      idx_t w = 0;
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k, ++w) {
        // Column-major: element w of every lane is contiguous across lanes.
        const auto pos = static_cast<std::size_t>(
            base + static_cast<nnz_t>(w) * block_rows + lane);
        e.ind[pos] = a.ind[k];
        e.val[pos] = a.val[k];
      }
    }
  }
  return e;
}

}  // namespace

EllBlockMatrix to_ell_block(const CsrMatrix& a, idx_t block_rows) {
  return build(a, block_rows, /*matrix_level=*/false);
}

EllBlockMatrix to_ell_matrix(const CsrMatrix& a) {
  return build(a, /*block_rows=*/64, /*matrix_level=*/true);
}

void spmv_ell(const EllBlockMatrix& a, std::span<const real> x,
              std::span<real> y) {
  apply(a, {}, 1, x, y);
}

perf::KernelWork ell_work(const EllBlockMatrix& a) {
  perf::KernelWork w;
  w.nnz = a.padded_nnz();  // 4 B index + 4 B value defaults, like baseline
  return w;
}

}  // namespace memxct::sparse
