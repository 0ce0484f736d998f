// Lockstep CGLS over k lanes: k independent CGLS instances advanced
// together so the operator streams its matrix once per iteration for all k
// slices (LinearOperator::apply_block). cgls(), cgls_warm() and cgls_block()
// are all this one recursion; at k = 1 it calls apply/apply_transpose.
//
// Parity contract: lane s of a k-lane solve is bitwise identical to a
// one-lane solve of slice s with the same options, because
//   * the block applies keep every slice's SpMV accumulation order
//     (sparse/spmm.hpp contract);
//   * each lane's vectors are contiguous slabs, so every scalar step (dot,
//     axpy2, xpby_norm, ...) runs the same deterministic kernel on the same
//     data a one-lane solve would;
//   * a finished lane is frozen by SKIPPING its updates, never by
//     arithmetic (a multiply-by-zero could flip signed zeros or spread NaN);
//     its direction still occupies its SpMM lane, where lanes are
//     independent.
//
// Lanes stop individually (gamma == 0, qq == 0, divergence, early stop, or
// the budget); a cancel token stops every live lane at the next round.
// Snapshot rollback is per lane. A checkpoint file holds one lane, so a
// checkpoint path with k > 1 throws InvalidArgument.
#pragma once

#include <vector>

#include "solve/cgls.hpp"

namespace memxct::solve {

using BlockCglsOptions = CglsOptions;

struct BlockSolveResult {
  /// Per-slice results, index-aligned with the input slices. Each carries
  /// the lane's own iterate, history, iteration count, and flags; seconds
  /// on every slice is the shared lockstep wall time (the slices ran
  /// together — the amortized per-slice cost is seconds / slices.size()).
  std::vector<SolveResult> slices;
  int rounds = 0;      ///< Lockstep rounds executed (max lane iterations).
  double seconds = 0.0;
};

/// Runs k CGLS instances in lockstep. `y_slab` holds the k ordered
/// measurement slices contiguously (slice s at
/// y_slab[s·num_rows(), (s+1)·num_rows())); `x0_slab` is empty (cold start)
/// or holds k starting iterates in the same layout over num_cols().
[[nodiscard]] BlockSolveResult cgls_lanes(const LinearOperator& op,
                                          std::span<const real> y_slab,
                                          std::span<const real> x0_slab,
                                          idx_t k, const CglsOptions& options);

/// cgls_lanes from x = 0.
[[nodiscard]] BlockSolveResult cgls_block(const LinearOperator& op,
                                          std::span<const real> y_slab,
                                          idx_t k,
                                          const BlockCglsOptions& options = {});

}  // namespace memxct::solve
