// Compressed-operator apply kernels (see sparse/compressed.hpp).
//
// Each kernel mirrors its fp32 counterpart in sparse/spmv.cpp /
// sparse/spmm.cpp exactly — same traversal, same strict scalar accumulation
// order per lane — with two substitutions in the inner loop:
//   * the column / buffer-slot index is recovered by adding the next varint
//     gap to a running position (virtual predecessor -1, so no branch);
//   * the value is decoded from its 16-bit storage to fp32 in-register.
// Accumulation is always fp32, so SpMM lane parity with the compressed
// single-RHS kernels holds bit for bit, and the only deviation from the
// fp32 kernels is the one-time value quantization.
//
// The value decode is a template parameter so each storage format gets a
// branch-free inner loop; `with_values` does the one runtime dispatch per
// kernel call.
#include <omp.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/compressed.hpp"
#include "sparse/spmm.hpp"
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

void check_block_shape(idx_t num_rows, idx_t num_cols, idx_t k,
                       std::span<const real> x, std::span<real> y) {
  MEMXCT_CHECK_MSG(k >= 1 && k <= kMaxBlockWidth,
                   "block width out of [1, kMaxBlockWidth]");
  MEMXCT_CHECK(x.size() >= static_cast<std::size_t>(num_cols) *
                               static_cast<std::size_t>(k));
  MEMXCT_CHECK(y.size() >= static_cast<std::size_t>(num_rows) *
                               static_cast<std::size_t>(k));
}

// ---- compressed CSR partition bodies -------------------------------------

template <class Val>
inline void ccsr_partition(const CompressedCsr& a, idx_t part, Val val,
                           const real* xp, real* yp) {
  const nnz_t* const displ = a.displ.data();
  const std::uint8_t* p = a.ind_bytes.data() + a.part_bytes[part];
  const idx_t r0 = part * a.partsize;
  const idx_t r1 = std::min<idx_t>(r0 + a.partsize, a.num_rows);
  for (idx_t r = r0; r < r1; ++r) {
    // Strict scalar accumulation order, matching spmv_csr.
    real acc = 0;
    idx_t col = -1;
    for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
      std::uint32_t gap;
      p = varint::get(p, gap);
      col += static_cast<idx_t>(gap);
      acc += xp[col] * val(j);
    }
    yp[r] = acc;
  }
}

template <class Val>
inline void ccsr_partition_block(const CompressedCsr& a, idx_t part, idx_t k,
                                 Val val, const real* xp, real* yp) {
  const nnz_t* const displ = a.displ.data();
  const std::uint8_t* p = a.ind_bytes.data() + a.part_bytes[part];
  const idx_t r0 = part * a.partsize;
  const idx_t r1 = std::min<idx_t>(r0 + a.partsize, a.num_rows);
  const auto kk = static_cast<std::size_t>(k);
  for (idx_t r = r0; r < r1; ++r) {
    real acc[kMaxBlockWidth];
    for (idx_t s = 0; s < k; ++s) acc[s] = 0;
    idx_t col = -1;
    for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) {
      std::uint32_t gap;
      p = varint::get(p, gap);
      col += static_cast<idx_t>(gap);
      const real v = val(j);
      const real* const xr = xp + static_cast<std::size_t>(col) * kk;
#pragma omp simd
      for (idx_t s = 0; s < k; ++s) acc[s] += xr[s] * v;
    }
    real* const yr = yp + static_cast<std::size_t>(r) * kk;
#pragma omp simd
    for (idx_t s = 0; s < k; ++s) yr[s] = acc[s];
  }
}

// ---- compressed buffered partition bodies --------------------------------

template <class Val>
inline void cbuffered_partition(const CompressedBuffered& a, idx_t part,
                                Val val, const real* xp, real* yp,
                                real* input, real* output) {
  const idx_t partsize = a.config.partsize;
  const nnz_t* const displ = a.displ.data();
  const std::uint8_t* mp = a.map_bytes.data() + a.part_map_bytes[part];
  const std::uint8_t* ip = a.ind_bytes.data() + a.part_ind_bytes[part];

  std::fill(output, output + static_cast<std::size_t>(partsize), real{0});
  idx_t mcol = -1;  // footprint run spans all of the partition's stages
  for (idx_t stage = a.partdispl[part]; stage < a.partdispl[part + 1];
       ++stage) {
    // Staging: decode-and-gather this stage's footprint chunk.
    const idx_t nz = a.stagenz[static_cast<std::size_t>(stage)];
    for (idx_t i = 0; i < nz; ++i) {
      std::uint32_t gap;
      mp = varint::get(mp, gap);
      mcol += static_cast<idx_t>(gap);
      input[i] = xp[mcol];
    }
    const nnz_t dstart = static_cast<nnz_t>(stage) * partsize;
    for (idx_t j = 0; j < partsize; ++j) {
      // Strict scalar accumulation order, matching spmv_buffered.
      real acc = 0;
      idx_t slot = -1;
      for (nnz_t i = displ[dstart + j]; i < displ[dstart + j + 1]; ++i) {
        std::uint32_t gap;
        ip = varint::get(ip, gap);
        slot += static_cast<idx_t>(gap);
        acc += input[slot] * val(i);
      }
      output[j] += acc;
    }
  }
  const idx_t rstart = part * partsize;
  const idx_t rows_here = std::min<idx_t>(partsize, a.num_rows - rstart);
#pragma omp simd
  for (idx_t i = 0; i < rows_here; ++i) yp[rstart + i] = output[i];
}

/// Block form of cbuffered_partition: the shared block body (spmm.hpp) at
/// L = block_lanes(k), with the varint map/index decoders as its walkers.
/// `input`/`output` hold buffsize·L and partsize·L entries.
template <class Val>
inline void cbuffered_partition_block(const CompressedBuffered& a, idx_t part,
                                      idx_t k, Val val, const real* xp,
                                      real* yp, real* input, real* output) {
  const idx_t partsize = a.config.partsize;
  const nnz_t* const displ = a.displ.data();
  const std::uint8_t* mp = a.map_bytes.data() + a.part_map_bytes[part];
  const std::uint8_t* ip = a.ind_bytes.data() + a.part_ind_bytes[part];
  idx_t mcol = -1;  // footprint run spans all of the partition's stages
  const auto gather = [&](idx_t stage, auto&& put) {
    const idx_t nz = a.stagenz[static_cast<std::size_t>(stage)];
    for (idx_t i = 0; i < nz; ++i) {
      std::uint32_t gap;
      mp = varint::get(mp, gap);
      mcol += static_cast<idx_t>(gap);
      put(i, mcol);
    }
  };
  const auto walk = [&](idx_t stage, idx_t j, auto&& add) {
    const nnz_t dstart = static_cast<nnz_t>(stage) * partsize;
    idx_t slot = -1;
    for (nnz_t i = displ[dstart + j]; i < displ[dstart + j + 1]; ++i) {
      std::uint32_t gap;
      ip = varint::get(ip, gap);
      slot += static_cast<idx_t>(gap);
      add(slot, val(i));
    }
  };
  with_block_lanes(k, [&](auto lanes) {
    staged_partition_block<decltype(lanes)::value>(a, part, k, xp, yp, input,
                                                   output, gather, walk);
  });
}

}  // namespace

// ---- compressed CSR ------------------------------------------------------

void spmv_ccsr(const CompressedCsr& a, std::span<const real> x,
               std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  const idx_t numparts = a.num_partitions();
  const real* const xp = x.data();
  real* const yp = y.data();
  with_values(a, [&](auto val) {
#pragma omp parallel for schedule(dynamic)
    for (idx_t part = 0; part < numparts; ++part)
      ccsr_partition(a, part, val, xp, yp);
  });
}

void spmv_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan,
                       std::span<const real> x, std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      const int nthreads = omp_get_num_threads();
      for (int s = omp_get_thread_num(); s < num_slots; s += nthreads)
        for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s);
             ++part)
          ccsr_partition(a, part, val, xp, yp);
    }
  });
}

void spmm_ccsr(const CompressedCsr& a, idx_t k, std::span<const real> x,
               std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t numparts = a.num_partitions();
  const real* const xp = x.data();
  real* const yp = y.data();
  with_values(a, [&](auto val) {
#pragma omp parallel for schedule(dynamic)
    for (idx_t part = 0; part < numparts; ++part)
      ccsr_partition_block(a, part, k, val, xp, yp);
  });
}

void spmm_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan, idx_t k,
                       std::span<const real> x, std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      const int nthreads = omp_get_num_threads();
      for (int s = omp_get_thread_num(); s < num_slots; s += nthreads)
        for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s);
             ++part)
          ccsr_partition_block(a, part, k, val, xp, yp);
    }
  });
}

// ---- compressed buffered -------------------------------------------------

void spmv_cbuffered(const CompressedBuffered& a, std::span<const real> x,
                    std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  const idx_t numparts = a.num_partitions();
  const real* const xp = x.data();
  real* const yp = y.data();
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      AlignedVector<real> input(static_cast<std::size_t>(a.config.buffsize));
      AlignedVector<real> output(
          static_cast<std::size_t>(a.config.partsize));
#pragma omp for schedule(dynamic)
      for (idx_t part = 0; part < numparts; ++part)
        cbuffered_partition(a, part, val, xp, yp, input.data(),
                            output.data());
    }
  });
}

void spmv_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, std::span<const real> x,
                            std::span<real> y) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == a.num_rows);
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      const int nthreads = omp_get_num_threads();
      for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
        const std::span<real> input = ws.input(s);
        const std::span<real> output = ws.output(s);
        MEMXCT_CHECK(input.size() >=
                     static_cast<std::size_t>(a.config.buffsize));
        MEMXCT_CHECK(output.size() >=
                     static_cast<std::size_t>(a.config.partsize));
        for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s);
             ++part)
          cbuffered_partition(a, part, val, xp, yp, input.data(),
                              output.data());
      }
    }
  });
}

void spmm_cbuffered(const CompressedBuffered& a, idx_t k,
                    std::span<const real> x, std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  const idx_t numparts = a.num_partitions();
  const real* const xp = x.data();
  real* const yp = y.data();
  const auto lanes = static_cast<std::size_t>(block_lanes(k));
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      AlignedVector<real> input(
          static_cast<std::size_t>(a.config.buffsize) * lanes);
      AlignedVector<real> output(
          static_cast<std::size_t>(a.config.partsize) * lanes);
#pragma omp for schedule(dynamic)
      for (idx_t part = 0; part < numparts; ++part)
        cbuffered_partition_block(a, part, k, val, xp, yp, input.data(),
                                  output.data());
    }
  });
}

void spmm_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, idx_t k, std::span<const real> x,
                            std::span<real> y) {
  check_block_shape(a.num_rows, a.num_cols, k, x, y);
  MEMXCT_CHECK(plan.num_partitions() == a.num_partitions());
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const real* const xp = x.data();
  real* const yp = y.data();
  const int num_slots = plan.num_slots();
  const auto lanes = static_cast<std::size_t>(block_lanes(k));
  with_values(a, [&](auto val) {
#pragma omp parallel
    {
      const int nthreads = omp_get_num_threads();
      for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
        const std::span<real> input = ws.input(s);
        const std::span<real> output = ws.output(s);
        MEMXCT_CHECK(input.size() >=
                     static_cast<std::size_t>(a.config.buffsize) * lanes);
        MEMXCT_CHECK(output.size() >=
                     static_cast<std::size_t>(a.config.partsize) * lanes);
        for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s);
             ++part)
          cbuffered_partition_block(a, part, k, val, xp, yp, input.data(),
                                    output.data());
      }
    }
  });
}

}  // namespace memxct::sparse
