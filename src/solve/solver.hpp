// Common solver result types, checkpoint/restart policy, cooperative
// cancellation, and the early-termination heuristic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace memxct::solve {

/// Time source for deadline checks. Production code reads the steady clock;
/// a test can pass a clock it drives itself, so whether a deadline has
/// passed does not depend on how loaded the machine is.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotone nanoseconds since an arbitrary fixed epoch.
  [[nodiscard]] virtual std::int64_t now_ns() const noexcept = 0;
  /// The process-wide steady clock.
  [[nodiscard]] static const Clock& steady() noexcept;
};

inline const Clock& Clock::steady() noexcept {
  struct Steady final : Clock {
    [[nodiscard]] std::int64_t now_ns() const noexcept override {
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      return std::chrono::duration_cast<std::chrono::nanoseconds>(now)
          .count();
    }
  };
  static const Steady clock;
  return clock;
}

/// Cooperative cancellation + deadline token, checked by the iterative
/// solvers at iteration granularity (between whole forward/backprojection
/// pairs, never inside a kernel). One owner (e.g. the serve layer's request
/// state) holds the token; any thread may request cancellation or arm the
/// deadline, and the solving thread observes it at the top of its next
/// iteration — the iterate returned is the last completed one, so a
/// cancelled solve still yields a usable (if under-iterated) image.
class CancelToken {
 public:
  /// Requests cancellation; the solve stops at the next iteration boundary.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Arms an absolute deadline `seconds` from now on `clock`, which later
  /// deadline checks read and which must outlive the token. Replaces any
  /// earlier deadline; seconds <= 0 disarms.
  void set_deadline_after(double seconds,
                          const Clock& clock = Clock::steady()) noexcept {
    if (seconds <= 0.0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    clock_.store(&clock, std::memory_order_relaxed);
    deadline_ns_.store(
        clock.now_ns() + static_cast<std::int64_t>(seconds * 1e9),
        std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    return clock_.load(std::memory_order_relaxed)->now_ns() >= d;
  }
  /// What the solvers poll: explicit cancellation or an expired deadline.
  [[nodiscard]] bool should_stop() const noexcept {
    return cancel_requested() || deadline_expired();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< clock_ ns; 0 = none.
  std::atomic<const Clock*> clock_{&Clock::steady()};
};

/// Lightweight progress heartbeat published by the iterative solvers: one
/// relaxed atomic store per completed iteration (a few ns — negligible next
/// to the two SpMVs an iteration costs). A watchdog thread on the other side
/// compares `last_tick_ns()` against the steady clock to detect a worker
/// that stopped making progress (stuck in a kernel, livelocked, wedged on
/// I/O) and force-cancels it through the CancelToken. The sink must outlive
/// the solve, like the token.
class ProgressSink {
 public:
  /// Arms the sink at solve start so "no tick yet" is distinguishable from
  /// "never started": the watchdog measures staleness from arm time until
  /// the first iteration completes.
  void arm() noexcept {
    iteration_.store(0, std::memory_order_relaxed);
    last_tick_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  /// Called by the solving thread after each completed iteration.
  void tick(int iteration) noexcept {
    iteration_.store(iteration, std::memory_order_relaxed);
    last_tick_ns_.store(now_ns(), std::memory_order_relaxed);
  }

  /// Steady-clock ns of the last arm/tick; 0 when never armed.
  [[nodiscard]] std::int64_t last_tick_ns() const noexcept {
    return last_tick_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int iteration() const noexcept {
    return iteration_.load(std::memory_order_relaxed);
  }
  /// Seconds since the last heartbeat (arm or tick); +inf when never armed,
  /// so an unarmed sink never looks "fresh" by accident — watchdogs should
  /// only consider armed sinks.
  [[nodiscard]] double seconds_since_tick() const noexcept {
    const std::int64_t t = last_tick_ns();
    if (t == 0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(now_ns() - t) * 1e-9;
  }

  static std::int64_t now_ns() noexcept {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  }

 private:
  std::atomic<std::int64_t> last_tick_ns_{0};
  std::atomic<int> iteration_{0};
};

/// Per-iteration record: the L-curve coordinates of Fig 8.
struct IterationRecord {
  int iteration = 0;
  double residual_norm = 0.0;  ///< ||A·x - y||.
  double solution_norm = 0.0;  ///< ||x||.
};

/// Checkpoint/restart and divergence-recovery policy, shared by CGLS, SIRT,
/// and GD. A snapshot captures the solver's complete recursion state at an
/// iteration boundary, so a resumed solve is bitwise-identical to an
/// uninterrupted one (the deterministic StaticPlan kernels make this exact,
/// not approximate). Divergence — a NaN/Inf residual, or a residual
/// exploding past `divergence_factor` × the best seen — rolls the iterate
/// back to the last snapshot instead of returning poisoned state.
struct CheckpointOptions {
  /// Snapshot file (resil checked format). Empty keeps snapshots in memory
  /// only; rollback still works, restart across processes does not.
  std::string path;
  /// Snapshot every `interval` completed iterations; 0 disables snapshots
  /// (divergence then stops the solve without rollback).
  int interval = 0;
  /// Resume from `path` when it holds a compatible checkpoint. A corrupt or
  /// incompatible file logs a warning and starts cold (graceful degrade).
  bool resume = true;
  /// Residual > factor × best-seen residual counts as divergence; 0
  /// disables the explosion check (NaN/Inf always counts).
  double divergence_factor = 1e6;
};

/// Result of an iterative solve.
struct SolveResult {
  AlignedVector<real> x;
  std::vector<IterationRecord> history;
  int iterations = 0;
  double seconds = 0.0;           ///< Total solve wall time.
  double per_iteration_s = 0.0;   ///< Mean per-iteration wall time.
  bool diverged = false;       ///< Divergence detected (state is the last
                               ///< snapshot if one existed, else truncated).
  bool cancelled = false;      ///< Stopped by a CancelToken (explicit cancel
                               ///< or deadline); x is the last completed
                               ///< iterate.
  int resumed_from = 0;        ///< Starting iteration restored from a
                               ///< checkpoint file (0 = cold start).
};

/// Early-termination heuristic (paper Section 3.5.2: "heuristic early
/// termination ... practically considered as a regularization method").
/// Signals a stop when the relative residual improvement over the last
/// `window` iterations falls below `tolerance` — the L-curve knee, where
/// further iterations fit noise rather than signal.
///
/// The window is calibrated in *full-matrix passes*: callers must feed
/// exactly one residual per full pass over the operator. Ordered-subsets
/// solvers (solve/os.hpp) therefore feed it only at full-sweep boundaries —
/// per-subset sub-iterations see a fraction of the data, and their residual
/// proxies plateau long before the sweep converges, so feeding them here
/// would trigger a spurious early exit after `window` *sub*-iterations
/// (a fraction of one pass).
class EarlyStop {
 public:
  /// `window` is clamped to >= 1: a zero or negative window would make the
  /// ring empty (modulo-by-zero on the first feed) or absurdly large after
  /// the size_t cast; window 1 — "stop when one iteration fails to improve"
  /// — is the tightest meaningful budget.
  EarlyStop(double tolerance = 1e-3, int window = 3)
      : tolerance_(tolerance), window_(window < 1 ? 1 : window),
        ring_(static_cast<std::size_t>(window_) + 1) {}

  /// Feeds one residual norm; returns true when iteration should stop.
  /// A non-finite residual returns true immediately (the solve is broken;
  /// continuing would only iterate on poisoned state).
  bool should_stop(double residual_norm);

 private:
  double tolerance_;
  int window_;
  /// Bounded ring of the last window_+1 residuals — the decision only ever
  /// looks `window_` entries back, so memory stays O(window) no matter how
  /// many iterations run.
  std::vector<double> ring_;
  std::size_t count_ = 0;  ///< Residuals fed so far.
};

}  // namespace memxct::solve
