// Compressed-operator apply (see sparse/compressed.hpp).
//
// The compressed families run the same bodies as the fp32 ones
// (sparse/kernels.hpp) — same traversal, same strict scalar accumulation
// order per lane — through walkers with two substitutions:
//   * the column / buffer-slot index is recovered by adding the next varint
//     gap to a running position (virtual predecessor -1, so no branch);
//   * the value is decoded from its 16-bit storage to fp32 in-register.
// Accumulation is always fp32, so lane parity with the width-1 apply holds
// bit for bit, and the only deviation from the fp32 kernels is the one-time
// value quantization.
//
// The value decode is a template parameter so each storage format gets a
// branch-free inner loop; `with_values` does the one runtime dispatch per
// apply.
#include <algorithm>

#include "common/error.hpp"
#include "sparse/compressed.hpp"
#include "sparse/kernels.hpp"
#include "sparse/varint.hpp"

namespace memxct::sparse {

namespace {

struct ValFp32 {
  const real* v;
  [[nodiscard]] real operator()(nnz_t j) const noexcept {
    return v[static_cast<std::size_t>(j)];
  }
};
struct ValBf16 {
  const std::uint16_t* v;
  [[nodiscard]] real operator()(nnz_t j) const noexcept {
    return bf16_to_fp32(v[static_cast<std::size_t>(j)]);
  }
};
struct ValFp16 {
  const std::uint16_t* v;
  [[nodiscard]] real operator()(nnz_t j) const noexcept {
    return fp16_to_fp32(v[static_cast<std::size_t>(j)]);
  }
};

template <class Matrix, class Fn>
void with_values(const Matrix& a, Fn&& fn) {
  switch (a.storage) {
    case ValueStorage::Fp32:
      fn(ValFp32{a.val32.data()});
      return;
    case ValueStorage::Bf16:
      fn(ValBf16{a.val16.data()});
      return;
    case ValueStorage::Fp16:
      fn(ValFp16{a.val16.data()});
      return;
  }
}

}  // namespace

void apply(const CompressedCsr& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  const nnz_t* const displ = a.displ.data();
  with_values(a, [&](auto val) {
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
          add(col, val(j));
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

void apply(const CompressedBuffered& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y) {
  detail::check_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t partsize = a.config.partsize;
  const nnz_t* const displ = a.displ.data();
  with_values(a, [&](auto val) {
    // The footprint stream is one delta run spanning all of a partition's
    // stages; each (stage, row) cell's slot stream is its own run.
    const auto runs = [&](idx_t part, auto&& body) {
      const std::uint8_t* mp = a.map_bytes.data() + a.part_map_bytes[part];
      const std::uint8_t* ip = a.ind_bytes.data() + a.part_ind_bytes[part];
      idx_t mcol = -1;
      body(
          a.partdispl[static_cast<std::size_t>(part)],
          a.partdispl[static_cast<std::size_t>(part) + 1],
          [&](idx_t stage, auto&& put) {
            const idx_t nz = a.stagenz[static_cast<std::size_t>(stage)];
            for (idx_t i = 0; i < nz; ++i) {
              std::uint32_t gap;
              mp = varint::get(mp, gap);
              mcol += static_cast<idx_t>(gap);
              put(i, mcol);
            }
          },
          [&](idx_t stage, idx_t j, auto&& add) {
            const nnz_t dstart = static_cast<nnz_t>(stage) * partsize;
            idx_t slot = -1;
            for (nnz_t i = displ[dstart + j]; i < displ[dstart + j + 1]; ++i) {
              std::uint32_t gap;
              ip = varint::get(ip, gap);
              slot += static_cast<idx_t>(gap);
              add(slot, val(i));
            }
          });
    };
    with_block_lanes(k, [&](auto lanes) {
      detail::run_staged<decltype(lanes)::value>(
          RowRange{0, a.num_rows}, a.num_rows, a.config, sched, k, x.data(),
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

void spmv_cbuffered(const CompressedBuffered& a, std::span<const real> x,
                    std::span<real> y) {
  apply(a, {}, 1, x, y);
}

void spmv_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, std::span<const real> x,
                            std::span<real> y) {
  apply(a, {&plan, &ws}, 1, x, y);
}

void spmm_cbuffered(const CompressedBuffered& a, idx_t k,
                    std::span<const real> x, std::span<real> y) {
  apply(a, {}, k, x, y);
}

void spmm_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, idx_t k, std::span<const real> x,
                            std::span<real> y) {
  apply(a, {&plan, &ws}, k, x, y);
}

}  // namespace memxct::sparse
