// SpMV kernels: the paper's baseline (Listing 2) and the general-purpose
// "vendor library" stand-in used by the Table 6 comparison.
#pragma once

#include <span>

#include "perf/counters.hpp"
#include "sparse/csr.hpp"
#include "sparse/plan.hpp"

namespace memxct::sparse {

/// Baseline MemXCT kernel (paper Listing 2): dynamically scheduled row
/// partitions of `partsize` rows, strictly ordered inner gather-FMA loop.
/// It is the width-1 instance of the CSR apply in sparse/spmm.hpp.
/// Overwrites y = A·x.
void spmv_csr(const CsrMatrix& a, std::span<const real> x, std::span<real> y,
              idx_t partsize = kCsrPartsize);

/// General-purpose reference SpMV standing in for the MKL/cuSPARSE CSR
/// kernels of Table 6: statically scheduled, no application-specific tuning.
void spmv_library(const CsrMatrix& a, std::span<const real> x,
                  std::span<real> y);

/// Work accounting for one application of `a` with the baseline kernel.
[[nodiscard]] perf::KernelWork csr_work(const CsrMatrix& a);

}  // namespace memxct::sparse
