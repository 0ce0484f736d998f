// Compressed CSR storage: 16-bit values + a delta/varint column stream.
//
// CompressedCsr is the reduced-precision form of the CSR layout: the
// Baseline kernel's bf16/fp16 operator and the `.ccsr` trace-cache format
// (resil/checked_io.hpp). Following the operator-compression idea of
// Marchesini et al. 2020:
//
//   * values are stored in bf16 or fp16 (sparse/precision.hpp) and decoded
//     to fp32 in-register — accumulation is always fp32, so the only error
//     is the one-time value quantization;
//   * column indices are delta/varint coded (sparse/varint.hpp). CSR rows
//     are column-sorted and pseudo-Hilbert ordering makes most gaps 1, so
//     the average index cost drops from 4 B to ~1 B.
//
// Decoding a varint is inherently sequential, so random access is provided
// at PARTITION granularity: per-partition byte offsets let the partition
// driver (sparse/plan.hpp), dynamic or planned, jump to any partition. The
// decoder is then a walker over the shared CSR-row body, visiting rows in
// the order the fp32 kernel does. The partition size is pinned into the
// structure at build time.
//
// The buffered layout's reduced-precision form is not here: it is a
// BufferedMatrix with 16-bit values (compress_buffered, sparse/buffered.hpp).
// Its 16-bit slots are fixed width already, and a varint slot stream put a
// serial decode dependency in front of every add (DESIGN.md §21).
//
// Compression is idempotent with respect to quantization: compressing a
// matrix whose values are already bf16/fp16-representable reproduces the
// same bits, which is what makes the compressed disk cache round-trip
// bitwise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "perf/counters.hpp"
#include "sparse/csr.hpp"
#include "sparse/plan.hpp"
#include "sparse/precision.hpp"

namespace memxct::sparse {

/// CSR with delta/varint column indices and reduced-precision values.
/// Rows are grouped into partitions of `partsize` rows; `part_bytes[p]`
/// is the byte offset of partition p's first row in `ind_bytes`. Within a
/// partition, each row is one delta run: gaps from a per-row virtual
/// predecessor of -1 (so every gap is >= 1 and decode needs no
/// first-element branch).
struct CompressedCsr {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  idx_t partsize = 0;  ///< Kernel partition granularity, pinned at build.
  ValueStorage storage = ValueStorage::Bf16;

  AlignedVector<nnz_t> displ;            ///< Logical row displacements.
  std::vector<nnz_t> part_bytes;         ///< Per-partition ind_bytes offsets.
  AlignedVector<std::uint8_t> ind_bytes; ///< Delta/varint column stream.
  AlignedVector<std::uint16_t> val16;    ///< Values when storage != Fp32.
  AlignedVector<real> val;             ///< Values when storage == Fp32.

  [[nodiscard]] nnz_t nnz() const noexcept {
    return displ.empty() ? 0 : displ.back();
  }
  [[nodiscard]] idx_t num_partitions() const noexcept {
    return static_cast<idx_t>(part_bytes.size()) - 1;
  }
  [[nodiscard]] std::int64_t value_bytes() const noexcept {
    return static_cast<std::int64_t>(val16.size() * sizeof(std::uint16_t) +
                                     val.size() * sizeof(real));
  }
  [[nodiscard]] std::int64_t index_bytes() const noexcept {
    return static_cast<std::int64_t>(ind_bytes.size());
  }
  /// Bytes of regular data (the Table 3 metric, compressed layout).
  [[nodiscard]] std::int64_t regular_bytes() const noexcept {
    return index_bytes() + value_bytes() +
           static_cast<std::int64_t>(displ.size() * sizeof(nnz_t) +
                                     part_bytes.size() * sizeof(nnz_t));
  }

  /// Full structural validation: decodes every partition's stream with the
  /// bounds-checked reader, verifying gap positivity, column bounds, and
  /// that each partition consumes exactly its byte range. Throws
  /// InvariantError / IoError on violation.
  void validate() const;
};

/// Compresses a CSR matrix: quantizes values through `storage` and
/// delta/varint-codes the column indices at `partsize` row granularity.
[[nodiscard]] CompressedCsr compress_csr(const CsrMatrix& a, idx_t partsize,
                                         ValueStorage storage);

/// Inverse of compress_csr up to quantization: reconstructs a CsrMatrix
/// whose values are the quantized (storage-representable) fp32 values —
/// compressing the result again is bitwise idempotent. Uses the checked
/// reader throughout, so a corrupt stream throws IoError instead of
/// reading out of bounds.
[[nodiscard]] CsrMatrix decompress_csr(const CompressedCsr& c);

/// Work accounting. Index bytes per FMA are the MEASURED average of the
/// varint stream (fractional), value bytes follow the storage width.
[[nodiscard]] perf::KernelWork ccsr_work(const CompressedCsr& a);

/// Per-partition plan weights (sparse/plan.hpp).
[[nodiscard]] std::vector<nnz_t> partition_nnz(const CompressedCsr& a);

// ---- apply (compressed_kernels.cpp) --------------------------------------
//
// A varint column decoder and a bf16/fp16 value decoder walking the CSR-row
// body of sparse/kernels.hpp, with the fp32 kernels' traversal and strict
// per-lane j-order. Accumulation is always fp32, so lane s of a width-k
// apply equals the width-1 apply of slice s bit for bit, for every schedule
// and k. Shapes and plans follow apply() in sparse/spmm.hpp: plan
// partitions must match partition_nnz(a).

void apply(const CompressedCsr& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y);

/// Width-1 and width-k spellings of apply(), dynamic and planned.
void spmv_ccsr(const CompressedCsr& a, std::span<const real> x,
               std::span<real> y);
void spmv_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan,
                       std::span<const real> x, std::span<real> y);
void spmm_ccsr(const CompressedCsr& a, idx_t k, std::span<const real> x,
               std::span<real> y);
void spmm_ccsr_planned(const CompressedCsr& a, const ApplyPlan& plan, idx_t k,
                       std::span<const real> x, std::span<real> y);

}  // namespace memxct::sparse
