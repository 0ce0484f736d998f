#include "solve/cgls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "perf/timer.hpp"
#include "solve/block.hpp"
#include "solve/restart.hpp"
#include "solve/vector_ops.hpp"

namespace memxct::solve {

bool EarlyStop::should_stop(double residual_norm) {
  // A non-finite residual means the iteration is already broken — corrupted
  // measurements or numerical blow-up. Stop immediately instead of feeding
  // NaN through the ring comparisons (every NaN compare is false, which
  // would silently disable the heuristic and keep iterating on poison).
  if (!std::isfinite(residual_norm)) return true;
  ring_[count_ % ring_.size()] = residual_norm;
  ++count_;
  if (count_ <= static_cast<std::size_t>(window_)) return false;
  const double prev =
      ring_[(count_ - 1 - static_cast<std::size_t>(window_)) % ring_.size()];
  if (prev <= 0.0) return true;
  const double improvement = (prev - residual_norm) / prev;
  return improvement < tolerance_;
}

namespace {

/// One lane: its slices of the shared slabs, its recursion scalars, and
/// its result so far.
struct Lane {
  std::span<real> x, r, s, p, q;
  SolveResult out;
  double gamma = 0.0;
  double best_rnorm = std::numeric_limits<double>::infinity();
  EarlyStop stop;
  bool live = true;
  bool stepped = false;  ///< Took this round's step (x, r updated).
  std::vector<double> residual_log, xnorm_log;
  resil::SolverCheckpoint snap;  ///< Rollback point when have_snap.
  bool have_snap = false;

  void freeze(int iterations) {
    live = false;
    out.iterations = iterations;
  }
  /// Restores (x, r, p, gamma) from a snapshot of this lane.
  void restore(const resil::SolverCheckpoint& cp) {
    std::copy(cp.vectors[0].begin(), cp.vectors[0].end(), x.begin());
    std::copy(cp.vectors[1].begin(), cp.vectors[1].end(), r.begin());
    std::copy(cp.vectors[2].begin(), cp.vectors[2].end(), p.begin());
    gamma = cp.scalars[0];
  }
};

AlignedVector<real> copy_of(std::span<const real> v) {
  return AlignedVector<real>(v.begin(), v.end());
}

}  // namespace

BlockSolveResult cgls_lanes(const LinearOperator& op,
                            std::span<const real> y_slab,
                            std::span<const real> x0_slab, idx_t k,
                            const CglsOptions& options) {
  MEMXCT_CHECK(k >= 1);
  const auto m = static_cast<std::size_t>(op.num_rows());
  const auto n = static_cast<std::size_t>(op.num_cols());
  const auto kk = static_cast<std::size_t>(k);
  MEMXCT_CHECK(y_slab.size() >= m * kk);
  MEMXCT_CHECK(x0_slab.empty() || x0_slab.size() == n * kk);
  const CheckpointOptions& ck = options.checkpoint;
  if (kk > 1 && !ck.path.empty())
    throw InvalidArgument(
        "cgls: a checkpoint file holds one slice, not k lockstep slices");
  const bool warm = !x0_slab.empty();
  perf::WallTimer timer;

  // One lane applies the operator directly; k lanes stream the matrix once
  // for all of them.
  const auto forward = [&](std::span<const real> in, std::span<real> out) {
    k == 1 ? op.apply(in, out) : op.apply_block(in, out, k);
  };
  const auto backward = [&](std::span<const real> in, std::span<real> out) {
    k == 1 ? op.apply_transpose(in, out) : op.apply_transpose_block(in, out, k);
  };

  // Per-lane vectors as contiguous slabs: every scalar recursion step below
  // runs the SAME deterministic vector kernel on the SAME contiguous data a
  // one-lane solve would. Only the two operator applies are fused.
  AlignedVector<real> x = warm ? copy_of(x0_slab)
                               : AlignedVector<real>(n * kk, real{0});
  AlignedVector<real> r(y_slab.begin(), y_slab.begin() + m * kk);
  AlignedVector<real> s(n * kk), p(n * kk), q(m * kk);
  std::vector<Lane> lanes(kk);
  for (std::size_t l = 0; l < kk; ++l) {
    Lane& ln = lanes[l];
    ln.x = std::span<real>(x).subspan(l * n, n);
    ln.r = std::span<real>(r).subspan(l * m, m);
    ln.s = std::span<real>(s).subspan(l * n, n);
    ln.p = std::span<real>(p).subspan(l * n, n);
    ln.q = std::span<real>(q).subspan(l * m, m);
    ln.stop = EarlyStop(options.early_stop_tol);
  }

  // r = y - A·x0 ; s = A^T r - λ²x ; p = s. With damping the recursion
  // is CGLS on the augmented system [A; λI]x = [y; 0].
  const double lambda2 =
      options.tikhonov_lambda * options.tikhonov_lambda;
  if (warm) {
    forward(x, q);
    for (Lane& ln : lanes) axpy(real{-1}, ln.q, ln.r);
  }
  backward(r, s);
  if (lambda2 > 0.0 && warm)
    for (Lane& ln : lanes) axpy(static_cast<real>(-lambda2), ln.x, ln.s);
  std::copy(s.begin(), s.end(), p.begin());
  for (Lane& ln : lanes) ln.gamma = dot(ln.s, ln.s);

  // Resume (one lane: a path with k > 1 was rejected above): the CGLS
  // recursion is fully determined by (x, r, p, gamma), so restoring them and
  // replaying the residual log (for the EarlyStop ring) continues the exact
  // arithmetic of the interrupted run.
  int round = 0;
  const std::size_t state_sizes[3] = {n, m, n};
  if (auto cp = detail::try_resume(ck, detail::kCglsKind, state_sizes, 1)) {
    Lane& ln = lanes[0];
    ln.restore(*cp);
    round = static_cast<int>(cp->iteration);
    ln.out.resumed_from = round;
    ln.residual_log = cp->residual_log;
    ln.xnorm_log = cp->xnorm_log;
    for (const double rn : ln.residual_log) {
      ln.best_rnorm = std::min(ln.best_rnorm, rn);
      ln.stop.should_stop(rn);
    }
    detail::rebuild_history(*cp, options.record_history, 1, ln.out.history);
    ln.snap = std::move(*cp);
    ln.have_snap = true;
  }

  const auto any = [&](bool Lane::*flag) {
    return std::any_of(lanes.begin(), lanes.end(),
                       [flag](const Lane& ln) { return ln.*flag; });
  };
  if (options.progress != nullptr) options.progress->arm();
  for (; round < options.max_iterations && any(&Lane::live); ++round) {
    // Cooperative cancellation: checked once per round, before the two
    // applies, so a cancel/deadline costs at most one more iteration.
    if (options.cancel != nullptr && options.cancel->should_stop()) {
      for (Lane& ln : lanes)
        if (ln.live) {
          ln.out.cancelled = true;
          ln.freeze(round);
        }
      break;
    }
    for (Lane& ln : lanes)
      if (ln.live && ln.gamma == 0.0) ln.freeze(round);  // exact solution
    if (!any(&Lane::live)) break;

    // The step-size forward projection. Frozen lanes keep their last
    // direction in a block apply; their recomputed q is simply unused.
    forward(p, q);
    for (Lane& ln : lanes) {
      ln.stepped = false;
      if (!ln.live) continue;
      const double qq = dot(ln.q, ln.q) + lambda2 * dot(ln.p, ln.p);
      if (qq == 0.0) {
        ln.freeze(round);
        continue;
      }
      const double alpha = ln.gamma / qq;
      // Fused: x += alpha·p and r -= alpha·q in one parallel region.
      axpy2(static_cast<real>(alpha), ln.p, ln.x, static_cast<real>(-alpha),
            ln.q, ln.r);
      ln.stepped = true;
    }
    if (!any(&Lane::stepped)) break;  // every remaining lane froze

    backward(r, s);
    for (Lane& ln : lanes) {
      if (!ln.stepped) continue;
      // Fused: the damped-gradient update s -= lambda²·x and gamma = <s,s>
      // share one pass over s.
      const double gamma_new =
          lambda2 > 0.0 ? axpy_dot(static_cast<real>(-lambda2), ln.x, ln.s)
                        : dot(ln.s, ln.s);
      const double beta = gamma_new / ln.gamma;
      // Fused: direction update p = s + beta·p and ||r|| in one region.
      const double rnorm =
          xpby_norm(ln.s, static_cast<real>(beta), ln.p, ln.r);
      ln.gamma = gamma_new;

      if (detail::is_divergent(rnorm, ln.best_rnorm, ck)) {
        ln.out.diverged = true;
        if (!ln.have_snap) {
          ln.freeze(round);
          continue;
        }
        // Roll the lane back to its last good snapshot; the poisoned
        // updates since then are discarded.
        ln.restore(ln.snap);
        ln.freeze(static_cast<int>(ln.snap.iteration));
        detail::truncate_history(ln.out.history, ln.out.iterations);
        continue;
      }
      ln.best_rnorm = std::min(ln.best_rnorm, rnorm);
      const double xnorm = options.record_history ? norm2(ln.x) : 0.0;
      ln.residual_log.push_back(rnorm);
      ln.xnorm_log.push_back(xnorm);
      if (options.record_history)
        ln.out.history.push_back({round + 1, rnorm, xnorm});
      // Heartbeat for watchdogs: one relaxed store per completed iteration.
      if (options.progress != nullptr) options.progress->tick(round + 1);
      if (options.early_stop && ln.stop.should_stop(rnorm)) {
        ln.freeze(round + 1);
        continue;
      }
      if (ck.interval > 0 && (round + 1) % ck.interval == 0) {
        ln.snap.solver_kind = detail::kCglsKind;
        ln.snap.iteration = round + 1;
        ln.snap.scalars = {ln.gamma};
        ln.snap.vectors = {copy_of(ln.x), copy_of(ln.r), copy_of(ln.p)};
        ln.snap.residual_log = ln.residual_log;
        ln.snap.xnorm_log = ln.xnorm_log;
        ln.have_snap = true;
        detail::save_snapshot(ck, ln.snap);
      }
    }
  }

  BlockSolveResult result;
  result.seconds = timer.seconds();
  for (Lane& ln : lanes) {
    SolveResult& sr = ln.out;
    if (ln.live) sr.iterations = round;
    sr.x = kk == 1 ? std::move(x) : copy_of(ln.x);
    sr.seconds = result.seconds;
    sr.per_iteration_s =
        sr.iterations > 0 ? result.seconds / sr.iterations : 0.0;
    result.rounds = std::max(result.rounds, sr.iterations);
    result.slices.push_back(std::move(sr));
  }
  return result;
}

SolveResult cgls(const LinearOperator& op, std::span<const real> y,
                 const CglsOptions& options) {
  return cgls_warm(op, y, {}, options);
}

SolveResult cgls_warm(const LinearOperator& op, std::span<const real> y,
                      std::span<const real> x0, const CglsOptions& options) {
  MEMXCT_CHECK(static_cast<idx_t>(y.size()) == op.num_rows());
  return std::move(cgls_lanes(op, y, x0, 1, options).slices.front());
}

BlockSolveResult cgls_block(const LinearOperator& op,
                            std::span<const real> y_slab, idx_t k,
                            const BlockCglsOptions& options) {
  return cgls_lanes(op, y_slab, {}, k, options);
}

}  // namespace memxct::solve
