// CGLS: conjugate gradient on the normal equations (paper Section 3.5.2).
//
// The paper's "CG iterations" solve min ||y - Ax||² via the CGLS recursion:
// one forward projection and one backprojection per iteration, with the
// step size found analytically (the extra forward projection the paper
// mentions is the A·p product whose norm gives alpha) and search directions
// kept conjugate by the three-term recursion. One recursion serves one
// slice and k lockstep slices alike (cgls_lanes in solve/block.hpp).
#pragma once

#include "solve/operator.hpp"
#include "solve/solver.hpp"

namespace memxct::solve {

struct CglsOptions {
  int max_iterations = 30;   ///< Paper's RDS default (L-curve knee).
  bool early_stop = false;   ///< Enable the heuristic termination.
  double early_stop_tol = 1e-3;
  bool record_history = true;
  /// Tikhonov damping: solves min ||y - Ax||² + λ²||x||² (the R(x) = λ²||x||²
  /// instance of the paper's Eq. 1 regularizer) via the augmented-system
  /// CGLS recursion. 0 = unregularized.
  double tikhonov_lambda = 0.0;
  /// Checkpoint/restart and divergence recovery; a resumed solve is
  /// bitwise-identical to an uninterrupted one. The divergence threshold
  /// (checkpoint.divergence_factor, 1e6) applies to every lane.
  CheckpointOptions checkpoint;
  /// Cooperative cancellation/deadline, polled at iteration granularity
  /// (nullptr = never cancelled). The token outlives the solve.
  const CancelToken* cancel = nullptr;
  /// Per-iteration heartbeat for watchdogs (nullptr = no reporting). The
  /// sink outlives the solve, like the token.
  ProgressSink* progress = nullptr;
};

/// Runs CGLS from x = 0 for measurement vector `y`.
[[nodiscard]] SolveResult cgls(const LinearOperator& op,
                               std::span<const real> y,
                               const CglsOptions& options = {});

/// Runs CGLS from the given starting iterate (warm start). Adjacent slices
/// of a 3D volume are nearly identical, so seeding each slice with its
/// neighbour's solution cuts iterations substantially (core::SolveExtras'
/// warm_start_image). Pass an empty span for a cold start.
[[nodiscard]] SolveResult cgls_warm(const LinearOperator& op,
                                    std::span<const real> y,
                                    std::span<const real> x0,
                                    const CglsOptions& options = {});

}  // namespace memxct::solve
