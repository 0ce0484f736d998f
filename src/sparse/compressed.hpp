// Compressed operator storage: 16-bit values + delta/varint index streams.
//
// After 16-bit buffered indices (6 B/FMA) the apply's regular stream is
// dominated by the 4 B fp32 value and the index bytes. This layer compresses
// both, following the operator-compression idea of Marchesini et al. 2020:
//
//   * values are stored in bf16 or fp16 (sparse/precision.hpp) and decoded
//     to fp32 in-register — accumulation is always fp32, so the only error
//     is the one-time value quantization;
//   * index streams are delta/varint coded (sparse/varint.hpp). Every index
//     run in this codebase is strictly ascending — CSR rows are
//     column-sorted, a buffered partition's footprint is its sorted distinct
//     columns, and a (stage, row) cell's buffer slots ascend — and
//     pseudo-Hilbert ordering makes most gaps 1, so the average index cost
//     drops to ~1 B.
//
// Decoding a varint is inherently sequential, so random access is provided
// at PARTITION granularity: per-partition byte offsets let the partition
// driver (sparse/plan.hpp), dynamic or planned, jump to any partition. The
// decoders are then walkers over the shared apply bodies, visiting rows and
// stages in the exact order the fp32 kernels traverse them. The partition
// size is therefore pinned into the structure at build time.
//
// Compression is idempotent with respect to quantization: compressing a
// matrix whose values are already bf16/fp16-representable reproduces the
// same bits, which is what makes the compressed disk cache round-trip
// bitwise (resil/checked_io.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "perf/counters.hpp"
#include "sparse/buffered.hpp"
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
  AlignedVector<real> val32;             ///< Values when storage == Fp32.

  [[nodiscard]] nnz_t nnz() const noexcept {
    return displ.empty() ? 0 : displ.back();
  }
  [[nodiscard]] idx_t num_partitions() const noexcept {
    return static_cast<idx_t>(part_bytes.size()) - 1;
  }
  [[nodiscard]] std::int64_t value_bytes() const noexcept {
    return static_cast<std::int64_t>(val16.size() * sizeof(std::uint16_t) +
                                     val32.size() * sizeof(real));
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

/// Multi-stage buffered layout with delta/varint map and buffer-slot
/// streams. Mirrors BufferedMatrix (same partdispl/stagedispl/stagenz/displ
/// geometry) with two byte streams in place of `map` and `ind`:
///   * `map_bytes` — one delta run per PARTITION covering all its stages
///     (the footprint is ascending across the whole partition);
///   * `ind_bytes` — one delta run per (stage, row) cell, in the stage-major
///     order the kernel consumes them.
struct CompressedBuffered {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  BufferConfig config;
  ValueStorage storage = ValueStorage::Bf16;

  std::vector<idx_t> partdispl;           ///< Per partition: first stage.
  std::vector<nnz_t> stagedispl;          ///< Per stage: start into footprint.
  std::vector<idx_t> stagenz;             ///< Per stage: staged count.
  std::vector<nnz_t> part_map_bytes;      ///< Per-partition map_bytes offsets.
  AlignedVector<std::uint8_t> map_bytes;  ///< Delta/varint footprint stream.
  AlignedVector<nnz_t> displ;             ///< Per (stage, row) nonzero range.
  std::vector<nnz_t> part_ind_bytes;      ///< Per-partition ind_bytes offsets.
  AlignedVector<std::uint8_t> ind_bytes;  ///< Delta/varint buffer-slot stream.
  AlignedVector<std::uint16_t> val16;     ///< Values when storage != Fp32.
  AlignedVector<real> val32;              ///< Values when storage == Fp32.

  [[nodiscard]] idx_t num_partitions() const noexcept {
    return static_cast<idx_t>(partdispl.size()) - 1;
  }
  [[nodiscard]] idx_t num_stages() const noexcept {
    return static_cast<idx_t>(stagenz.size());
  }
  [[nodiscard]] nnz_t nnz() const noexcept {
    return displ.empty() ? 0 : displ.back();
  }
  [[nodiscard]] nnz_t total_staged() const noexcept {
    return stagedispl.empty() ? 0 : stagedispl.back();
  }
  [[nodiscard]] std::int64_t value_bytes() const noexcept {
    return static_cast<std::int64_t>(val16.size() * sizeof(std::uint16_t) +
                                     val32.size() * sizeof(real));
  }
  [[nodiscard]] std::int64_t index_bytes() const noexcept {
    return static_cast<std::int64_t>(ind_bytes.size());
  }
  [[nodiscard]] std::int64_t staged_bytes() const noexcept {
    return static_cast<std::int64_t>(map_bytes.size());
  }
  [[nodiscard]] std::int64_t regular_bytes() const noexcept {
    return index_bytes() + value_bytes() + staged_bytes() +
           static_cast<std::int64_t>(
               displ.size() * sizeof(nnz_t) +
               (partdispl.size() + stagenz.size()) * sizeof(idx_t) +
               (stagedispl.size() + part_map_bytes.size() +
                part_ind_bytes.size()) *
                   sizeof(nnz_t));
  }

  /// Full structural validation (decodes both streams with the checked
  /// reader). Throws InvariantError / IoError on violation.
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

/// Compresses an already-built buffered structure (values quantized through
/// `storage`, map and slot streams delta/varint-coded per partition).
[[nodiscard]] CompressedBuffered compress_buffered(const BufferedMatrix& b,
                                                   ValueStorage storage);

/// Work accounting. Index/staged bytes per FMA are the MEASURED averages of
/// the varint streams (fractional), value bytes follow the storage width.
[[nodiscard]] perf::KernelWork ccsr_work(const CompressedCsr& a);
[[nodiscard]] perf::KernelWork cbuffered_work(const CompressedBuffered& a);

/// Per-partition nnz weights for plan construction (sparse/plan.hpp).
[[nodiscard]] std::vector<nnz_t> partition_nnz(const CompressedCsr& a);
[[nodiscard]] std::vector<nnz_t> partition_nnz(const CompressedBuffered& a);

// ---- apply (compressed_kernels.cpp) --------------------------------------
//
// The compressed families are walkers over the shared apply bodies
// (sparse/kernels.hpp): a varint index decoder and a bf16/fp16 value
// decoder, with the fp32 kernels' traversal and strict per-lane j-order.
// Accumulation is always fp32, so lane s of a width-k apply equals the
// width-1 apply of slice s bit for bit, for every schedule and k. Shapes,
// plans and workspaces follow apply() in sparse/spmm.hpp: plan partitions
// must match partition_nnz(a), and a buffered workspace needs
// apply_scratch(a, k) per slot.

void apply(const CompressedCsr& a, const Schedule& sched, idx_t k,
           std::span<const real> x, std::span<real> y);
void apply(const CompressedBuffered& a, const Schedule& sched, idx_t k,
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
void spmv_cbuffered(const CompressedBuffered& a, std::span<const real> x,
                    std::span<real> y);
void spmv_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, std::span<const real> x,
                            std::span<real> y);
void spmm_cbuffered(const CompressedBuffered& a, idx_t k,
                    std::span<const real> x, std::span<real> y);
void spmm_cbuffered_planned(const CompressedBuffered& a, const ApplyPlan& plan,
                            Workspace& ws, idx_t k, std::span<const real> x,
                            std::span<real> y);

}  // namespace memxct::sparse
