// FLOP and byte accounting for SpMV kernels (Section 4.2 metrics).
//
// The paper computes GFLOPS as 2*nnz/t (one multiply + one add per nonzero)
// and "regular-data bandwidth" as nnz * B_reg / t where B_reg is the bytes
// of sequentially streamed data read per FMA (index + value, plus staging
// map traffic for the buffered kernel). These structs centralize that
// arithmetic so benches and tests agree on definitions.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace memxct::perf {

/// Per-FMA regular-data byte costs for each kernel flavour.
struct RegularBytes {
  /// Baseline CSR: 4 B column index + 4 B value.
  static constexpr double kBaseline = sizeof(idx_t) + sizeof(real);
  /// Buffered kernel: 2 B buffer index + 4 B value (Section 3.3.5).
  static constexpr double kBuffered = sizeof(buf_idx_t) + sizeof(real);
};

/// Work accounting for one projection/backprojection kernel invocation.
///
/// Byte costs are split into value and index components, so a reduced-
/// precision layout reports its narrower values beside unchanged indices.
/// They are doubles so an averaged per-FMA cost stays exact; every stored
/// layout today has whole-byte costs (8 B/FMA baseline CSR, 6 B/FMA
/// buffered fp32, 4 B/FMA buffered bf16/fp16).
struct KernelWork {
  nnz_t nnz = 0;           ///< Nonzeros processed (FMAs).
  nnz_t staged_words = 0;  ///< Buffer-staging loads (map reads + x gathers).
  /// Bytes of stored matrix value streamed per FMA (4 fp32, 2 bf16/fp16).
  double value_bytes_per_fma = sizeof(real);
  /// Bytes of matrix index streamed per FMA (4 CSR, 2 buffered).
  double index_bytes_per_fma = sizeof(idx_t);
  /// Bytes of staging-map entry read per staged word (4 raw).
  double staged_index_bytes = sizeof(idx_t);

  /// Total matrix-stream bytes per FMA (index + value), the Table 3 metric.
  [[nodiscard]] double bytes_per_fma() const noexcept {
    return value_bytes_per_fma + index_bytes_per_fma;
  }

  [[nodiscard]] double flops() const noexcept {
    return 2.0 * static_cast<double>(nnz);
  }

  /// Regular-stream bytes, including staging traffic when present: each
  /// staged word costs one map-entry read plus one 4 B gathered x value.
  [[nodiscard]] double regular_bytes() const noexcept {
    return static_cast<double>(nnz) * bytes_per_fma() +
           static_cast<double>(staged_words) *
               (staged_index_bytes + sizeof(real));
  }

  /// Amortized per-slice regular-stream bytes when k slices share one
  /// matrix pass (the multi-RHS kernels in sparse/spmm.hpp): matrix
  /// indices + values and the staging-map reads are streamed once for all
  /// k slices, while the gathered x words are per-slice (each slice fills
  /// its own lane). Equals regular_bytes() at k == 1 and decreases
  /// monotonically toward the pure gather floor as k grows.
  [[nodiscard]] double regular_bytes_at_width(int k) const noexcept {
    const double width = k > 1 ? static_cast<double>(k) : 1.0;
    return (static_cast<double>(nnz) * bytes_per_fma() +
            static_cast<double>(staged_words) * staged_index_bytes) /
               width +
           static_cast<double>(staged_words) * sizeof(real);
  }

  [[nodiscard]] double gflops(double seconds) const noexcept {
    return seconds > 0.0 ? flops() / seconds * 1e-9 : 0.0;
  }

  /// Effective regular-data bandwidth in GB/s for an observed runtime.
  [[nodiscard]] double bandwidth_gbs(double seconds) const noexcept {
    return seconds > 0.0 ? regular_bytes() / seconds * 1e-9 : 0.0;
  }
};

}  // namespace memxct::perf
