#include "sparse/spmv.hpp"

#include "common/error.hpp"
#include "sparse/spmm.hpp"

namespace memxct::sparse {

void spmv_csr(const CsrMatrix& a, std::span<const real> x, std::span<real> y,
              idx_t partsize) {
  apply(a, {}, 1, x, y, partsize);
}

void spmv_library(const CsrMatrix& a, std::span<const real> x,
                  std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y.data();
#pragma omp parallel for schedule(static)
  for (idx_t r = 0; r < a.num_rows; ++r) {
    real acc = 0;
    for (nnz_t j = displ[r]; j < displ[r + 1]; ++j)
      acc += xp[ind[j]] * val[j];
    yp[r] = acc;
  }
}

perf::KernelWork csr_work(const CsrMatrix& a) {
  perf::KernelWork w;
  w.nnz = a.nnz();  // index/value byte widths keep their fp32 CSR defaults
  return w;
}

}  // namespace memxct::sparse
