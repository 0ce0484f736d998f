// Compressed-CSR apply (see sparse/compressed.hpp).
//
// The compressed CSR family runs the same CSR-row body as the fp32 one
// (sparse/kernels.hpp) — same traversal, same strict scalar accumulation
// order per lane — through a walker with two substitutions:
//   * the column index is recovered by adding the next varint gap to a
//     running position (virtual predecessor -1, so no branch);
//   * the value is decoded from its 16-bit storage to fp32 in-register.
// Accumulation is always fp32, so lane parity with the width-1 apply holds
// bit for bit, and the only deviation from the fp32 kernels is the one-time
// value quantization.
//
// The value decoder is a template parameter (sparse/precision.hpp) so each
// storage format gets a branch-free inner loop; `with_values` does the one
// runtime dispatch per apply.
#include "common/error.hpp"
#include "sparse/compressed.hpp"
#include "sparse/kernels.hpp"
#include "sparse/varint.hpp"

namespace memxct::sparse {

void apply(const CompressedCsr& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  const nnz_t* const displ = a.displ.data();
  with_values(a.storage, [&](auto vals) {
    using Vals = decltype(vals);
    const auto* const val = Vals::of(a);
    // A partition's column stream holds one delta run per row, decoded in
    // row order from the partition's byte offset.
    const auto runs = [&](idx_t part) {
      return [&, p = a.ind_bytes.data() + a.part_bytes[part]](
                 idx_t r, auto&& add) mutable {
        idx_t col = -1;
        for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
          std::uint32_t gap;
          p = varint::get(p, gap);
          col += static_cast<idx_t>(gap);
          add(col, Vals::decode(val[j]));
        }
      };
    };
    detail::with_csr_lanes(k, [&](auto lanes) {
      detail::run_csr_rows<decltype(lanes)::value>(
          RowRange{0, a.num_rows}, a.num_rows, a.partsize, sched, k, x.data(),
          y.data(), runs);
    });
  });
}

void spmv_ccsr(const CompressedCsr& a, std::span<const real> x,
               std::span<real> y) {
  apply(a, {}, 1, x, y);
}

void spmv_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan,
                       std::span<const real> x, std::span<real> y) {
  apply(a, {&plan}, 1, x, y);
}

void spmm_ccsr(const CompressedCsr& a, idx_t k, std::span<const real> x,
               std::span<real> y) {
  apply(a, {}, k, x, y);
}

void spmm_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan, idx_t k,
                       std::span<const real> x, std::span<real> y) {
  apply(a, {&plan}, k, x, y);
}

}  // namespace memxct::sparse
