// RequestScheduler: bounded, priority-classed, deadline-aware admission.
//
// Overload policy: the service NEVER buffers unboundedly. A request is
// either admitted into the bounded queue or rejected at submit() with a
// typed error the client can act on —
//   * QueueFullError:           back off / retry (transient overload);
//   * DeadlineInfeasibleError:  relax the deadline (the server's own
//                               service-time estimate says it cannot make
//                               it, so queueing would only waste a worker).
// Admitted requests carry a CancelToken armed with their deadline; workers
// check it before solving (deadline burned in the queue → no solve at all)
// and the solver polls it at iteration granularity (deadline hit mid-solve
// → stop after the current iteration). Priority decides drain order only;
// the capacity bound is shared, so bulk traffic cannot starve the server of
// memory — it can only wait.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include <atomic>

#include "common/aligned.hpp"
#include "common/bounded_queue.hpp"
#include "core/config.hpp"
#include "geometry/geometry.hpp"
#include "resil/ingest.hpp"
#include "serve/degrade.hpp"
#include "solve/solver.hpp"

namespace memxct::serve {

/// Priority classes, in drain order. Interactive requests (a beamline
/// operator watching a live reconstruction) preempt Normal, which preempts
/// Bulk (overnight re-processing).
enum class Priority { Interactive = 0, Normal = 1, Bulk = 2 };
inline constexpr int kNumPriorities = 3;

[[nodiscard]] const char* to_string(Priority priority) noexcept;

/// Per-request options supplied at submit().
struct RequestOptions {
  Priority priority = Priority::Normal;
  /// Latency budget in seconds from submission; 0 = none. The request is
  /// rejected at admission when infeasible, expired unstarted when the
  /// deadline burns in the queue, and cancelled at the next iteration
  /// boundary when it hits mid-solve.
  double deadline_seconds = 0.0;
  /// false drops the reconstructed pixels (QA / throughput probes).
  bool keep_image = true;
  /// Explicitly requested quality rung: 0 = full quality, r in
  /// [1, ladder size] = run at that rung directly (a client that already
  /// knows it wants a preview). Requires the server's ladder to be enabled
  /// for r > 0. The admission gate may step FURTHER down from here (never
  /// up) when the deadline is infeasible at the requested rung.
  int rung = 0;
  /// Solver extras (core::SolveExtras semantics, both natural layout, both
  /// copied at submit): a warm-start image (CGLS or OS), e.g. the previous
  /// preview, and the per-angle 0/1 arrival mask for partial sinograms (OS
  /// only). core::validate_extras rejects the rest with InvalidArgument.
  std::span<const real> warm_start_image;
  std::span<const real> angle_mask;
};

/// Terminal request states (plus the two live ones for snapshots).
enum class RequestStatus {
  Queued,
  Running,
  Ok,
  Degraded,        ///< Completed at a reduced quality rung, or a salvaged
                   ///< partial result after a mid-solve deadline. The image
                   ///< is usable; rung/achieved residual say how coarse.
  IngestRejected,  ///< Ingest policy rejected the sinogram.
  Diverged,        ///< Solver diverged; image is the rolled-back iterate.
  Failed,          ///< Unexpected error (message in RequestResult::error).
  Cancelled,       ///< Explicit cancel().
  DeadlineExceeded,
};

[[nodiscard]] const char* to_string(RequestStatus status) noexcept;
[[nodiscard]] bool is_terminal(RequestStatus status) noexcept;

/// Base of the typed admission rejections.
class RejectedError : public std::runtime_error {
 public:
  RejectedError(const std::string& what, Priority priority)
      : std::runtime_error(what), priority(priority) {}
  Priority priority;
};

/// The bounded queue is full: transient overload, back off and retry.
class QueueFullError final : public RejectedError {
 public:
  using RejectedError::RejectedError;
};

/// The deadline cannot be met per the server's service-time estimate.
class DeadlineInfeasibleError final : public RejectedError {
 public:
  DeadlineInfeasibleError(const std::string& what, Priority priority,
                          double deadline_seconds, double estimated_seconds)
      : RejectedError(what, priority),
        deadline_seconds(deadline_seconds),
        estimated_seconds(estimated_seconds) {}
  double deadline_seconds;
  double estimated_seconds;
};

/// One in-flight request. Created by Server::submit(), carried through the
/// scheduler queue by shared_ptr, finalized by a worker. The result fields
/// are guarded by the server's mutex; the token is lock-free by design.
struct RequestState {
  std::int64_t id = -1;
  geometry::Geometry geometry;
  core::Config config;
  AlignedVector<real> sinogram;
  /// Owned copies of the streaming extras (the spans in `options` are
  /// cleared at submit — they point at caller memory that may be gone by
  /// the time a worker runs).
  AlignedVector<real> warm_start;
  AlignedVector<real> angle_mask;
  RequestOptions options;
  solve::CancelToken token;  ///< Armed with the deadline at submission.
  solve::ProgressSink progress;  ///< Solver heartbeat read by the watchdog.
  std::atomic<bool> watchdog_fired{false};  ///< Watchdog force-cancelled it.
  std::chrono::steady_clock::time_point submit_time;
  std::chrono::steady_clock::time_point deadline;  ///< Valid iff has_deadline.
  bool has_deadline = false;
  /// Quality rung the request runs at: the submitted options.rung, possibly
  /// stepped further down by the admission gate. 0 = full quality.
  int rung = 0;
  bool degraded_admission = false;  ///< Gate stepped it below options.rung.

  // Terminal outcome, written once by the finishing worker.
  RequestStatus status = RequestStatus::Queued;
  std::string error;
  std::vector<real> image;
  solve::SolveResult solve;
  resil::IngestReport ingest;
  bool registry_hit = false;
  bool disk_cache_hit = false;
  bool salvaged = false;  ///< Degraded via mid-solve deadline salvage.
  int attempts = 1;       ///< Fault-phase attempts consumed (1 = no retry).
  double backoff_seconds = 0.0;  ///< Total retry backoff slept.
  double queue_seconds = 0.0;
  double setup_seconds = 0.0;  ///< Operator build time paid by this request.
  double total_seconds = 0.0;  ///< submit → terminal.
};

/// Admission queue + feasibility gate. Thread-safe.
class RequestScheduler {
 public:
  struct Options {
    int queue_capacity = 8;
    /// Safety factor applied to the service-time estimate when judging
    /// deadline feasibility (estimate × margin > deadline → reject).
    double feasibility_margin = 1.0;
    /// EWMA smoothing for the service-time estimate.
    double estimate_alpha = 0.3;
    /// Degradation ladder: when enabled, a deadline infeasible at the
    /// requested rung steps down to the first cheaper rung whose scaled
    /// estimate fits, instead of rejecting. The request is admitted with
    /// state->rung set and later finishes as Degraded.
    DegradeOptions degrade;
  };

  explicit RequestScheduler(Options options);
  RequestScheduler() : RequestScheduler(Options{}) {}

  /// Admits or throws QueueFullError / DeadlineInfeasibleError. On success
  /// the request is owned by the queue until a worker pops it.
  void admit(std::shared_ptr<RequestState> request);

  /// Blocking pop in priority order; nullopt once closed and drained.
  [[nodiscard]] std::optional<std::shared_ptr<RequestState>> next();

  /// Rejects future admissions; queued requests still drain via next().
  void close();

  /// Feeds one observed end-to-end service time (worker-side seconds) into
  /// the feasibility estimate.
  void observe_service_seconds(double seconds);

  [[nodiscard]] double estimated_service_seconds() const;
  [[nodiscard]] int queue_depth() const { return queue_.size(); }
  [[nodiscard]] int queue_capacity() const noexcept {
    return queue_.capacity();
  }
  [[nodiscard]] int queue_high_water() const { return queue_.high_water(); }
  [[nodiscard]] std::int64_t rejected_queue_full(Priority p) const;
  [[nodiscard]] std::int64_t rejected_infeasible(Priority p) const;
  /// Requests the feasibility gate admitted at a rung below the one they
  /// asked for (the ladder absorbed a would-be rejection).
  [[nodiscard]] std::int64_t degraded_admissions() const;

 private:
  Options options_;
  common::BoundedQueue<std::shared_ptr<RequestState>> queue_;
  mutable std::mutex mu_;  ///< Guards the estimate and rejection counters.
  double estimate_seconds_ = 0.0;  ///< 0 until the first observation.
  std::int64_t rejected_full_[kNumPriorities] = {};
  std::int64_t rejected_infeasible_[kNumPriorities] = {};
  std::int64_t degraded_admissions_ = 0;
};

}  // namespace memxct::serve
