// Server: in-process multi-tenant reconstruction front end.
//
// Turns the batch engine's single-geometry worker pool into a service that
// accepts slices against MANY geometries concurrently:
//
//   serve::Server server({.workers = 4,
//                         .registry = {.byte_budget = 512 << 20}});
//   auto id = server.submit(geometry, config, sinogram,
//                           {.priority = serve::Priority::Interactive,
//                            .deadline_seconds = 2.0});
//   auto result = server.wait(id);          // terminal status + image
//   auto metrics = server.snapshot();       // latency, queue, registry
//
// Composition (each piece is separately testable):
//   * OperatorRegistry  — cross-request operator amortization (this file's
//     reason to exist: a registry hit skips preprocessing entirely);
//   * RequestScheduler  — bounded admission, priorities, deadlines, typed
//     overload rejection;
//   * worker pool       — fixed threads, each solving via the SAME
//     batch::run_isolated_slice / core::reconstruct_slice path as the
//     single-slice Reconstructor, on per-request operator views; served
//     images are bitwise-identical to Reconstructor::reconstruct for any
//     worker count.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/degrade.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "serve/scheduler.hpp"

namespace memxct::serve {

struct ServerOptions {
  /// Fixed worker pool size (threads solving requests concurrently).
  int workers = 1;
  /// Bounded admission-queue capacity; 0 = 4 × workers. Submissions beyond
  /// it are rejected with QueueFullError, never buffered.
  int queue_capacity = 0;
  /// OpenMP threads per worker inside solver parallel regions; 0 divides
  /// omp_get_max_threads() evenly (same rule as the batch engine).
  int omp_threads_per_worker = 0;
  /// Operator cache budget and disk tier.
  RegistryOptions registry;
  /// Deadline feasibility margin (see RequestScheduler::Options).
  double feasibility_margin = 1.0;
  /// Degradation ladder + mid-solve salvage (disabled by default: the
  /// historical all-or-nothing behavior is preserved unless opted in).
  DegradeOptions degrade;
  /// Retry policy for the worker's fault-prone phase (fault hook + operator
  /// acquisition). max_attempts = 1 disables retries.
  RetryOptions retry;
  /// Watchdog interval in milliseconds; > 0 starts a monitor thread that
  /// force-cancels (via the CancelToken) any running request whose solver
  /// heartbeat goes silent for longer than this. The victim finishes as
  /// Failed with a "watchdog:" error. 0 disables.
  double watchdog_ms = 0.0;
  /// Chaos hook called as hook(request_id, attempt) at the start of every
  /// worker attempt. A thrown TransientError is retried per `retry`; any
  /// other exception fails the request. See
  /// resil::FaultInjector::worker_fault_hook.
  std::function<void(std::int64_t, int)> fault_hook;
};

/// Terminal outcome of one request, returned by wait().
struct RequestResult {
  std::int64_t id = -1;
  Priority priority = Priority::Normal;
  RequestStatus status = RequestStatus::Failed;
  std::string error;
  std::vector<real> image;  ///< Natural row-major; empty unless status is
                            ///< Ok/Diverged with keep_image set.
  solve::SolveResult solve;
  resil::IngestReport ingest;
  bool registry_hit = false;    ///< Operator came from the memory tier.
  bool disk_cache_hit = false;  ///< Build loaded its trace from disk.
  /// Quality rung the request ran at (0 = full). > 0 iff status is Degraded
  /// (or the solve failed after degraded admission).
  int rung = 0;
  bool salvaged = false;  ///< Degraded via mid-solve deadline salvage: the
                          ///< image is the best-so-far iterate.
  /// Achieved residual ||A·x − y|| of the returned iterate (0 when no
  /// iteration completed or history was off) — how far the degraded result
  /// is from convergence, for clients deciding whether to resubmit.
  double achieved_residual = 0.0;
  int attempts = 1;              ///< Fault-phase attempts (1 = no retry).
  double backoff_seconds = 0.0;  ///< Total retry backoff slept.
  double queue_seconds = 0.0;   ///< submit → worker pickup.
  double setup_seconds = 0.0;   ///< Operator preprocess paid by this
                                ///< request (0 on a registry hit).
  double total_seconds = 0.0;   ///< submit → terminal.
};

/// Communication-side statistics of requests served on sharded operators
/// (core::Config::num_shards > 1). All counters are cumulative across the
/// sharded requests this server completed; empty/zero when no sharded
/// request has run.
struct ShardServeMetrics {
  int shards = 0;  ///< Shard count of the most recent sharded request.
  std::int64_t sharded_requests = 0;
  /// Per-rank exchange traffic (payload bytes through the simulated
  /// alltoallv fabric, self-traffic excluded), summed over requests.
  /// Sized to the widest shard count seen.
  std::vector<std::int64_t> rank_bytes_sent;
  std::vector<std::int64_t> rank_bytes_received;
  /// MEASURED exchange time actually charged to the critical path (after
  /// overlap) vs. measured compute wall time, summed over applies.
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
  /// The same exchanges' α–β model cost (target interconnect), kept
  /// alongside the measurement for model-vs-measured skew.
  double comm_modeled_seconds = 0.0;
  /// Measured exchange time hidden behind compute by the tile pipeline.
  double overlap_saved_seconds = 0.0;
};

/// Point-in-time server statistics (the snapshot() payload).
struct ServerMetrics {
  int workers = 0;
  int queue_depth = 0;
  int queue_capacity = 0;
  int queue_high_water = 0;
  std::int64_t submitted = 0;  ///< Admitted (rejections not included).
  std::int64_t completed = 0;
  double estimated_service_seconds = 0.0;
  double setup_seconds_sum = 0.0;
  double solve_seconds_sum = 0.0;
  std::array<PriorityMetrics, kNumPriorities> priority{};
  RegistryStats registry;

  // Degradation / resilience counters (all cumulative).
  std::int64_t degraded = 0;   ///< Requests finishing RequestStatus::Degraded.
  std::int64_t salvaged = 0;   ///< ... of which were mid-solve salvages.
  std::int64_t degraded_admissions = 0;  ///< Ladder absorbed a would-be
                                         ///< infeasible rejection.
  std::array<std::int64_t, kMaxRungs> degraded_by_rung{};  ///< Index = rung-1.
  std::int64_t retries = 0;          ///< Backoff-then-retry transitions.
  std::int64_t retry_exhausted = 0;  ///< Requests failed after max_attempts.
  std::int64_t retry_abandoned = 0;  ///< Retries skipped: backoff would land
                                     ///< past the deadline.
  std::int64_t watchdog_cancelled = 0;  ///< Watchdog force-cancels.
  LatencyHistogram retry_backoff;  ///< Distribution of slept backoff delays.
  ShardServeMetrics shard;  ///< Comm-vs-compute stats of sharded requests.

  [[nodiscard]] std::int64_t rejected() const noexcept {
    std::int64_t n = 0;
    for (const auto& p : priority)
      n += p.rejected_queue_full + p.rejected_infeasible;
    return n;
  }
  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;
};

class Server {
 public:
  /// `clock` times deadlines, queue waits and latencies and must outlive
  /// the server; tests pass one they drive to make deadlines deterministic.
  explicit Server(ServerOptions options = {},
                  const solve::Clock& clock = solve::Clock::steady());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates and admits one request. The sinogram is copied (natural
  /// angles-major layout, sized to the geometry). Throws InvalidArgument on
  /// malformed input (caller bug), QueueFullError / DeadlineInfeasibleError
  /// on overload (typed, retryable). Returns the request id.
  std::int64_t submit(const geometry::Geometry& geometry,
                      const core::Config& config,
                      std::span<const real> sinogram,
                      RequestOptions options = {});

  /// Blocks until the request reaches a terminal state, then consumes and
  /// returns its result. Each id may be waited exactly once; an unknown or
  /// already-consumed id throws InvalidArgument.
  [[nodiscard]] RequestResult wait(std::int64_t id);

  /// Requests cooperative cancellation. Returns true when the request was
  /// still live (queued or running); its terminal status becomes Cancelled
  /// unless it finishes first.
  bool cancel(std::int64_t id);

  /// Point-in-time metrics.
  [[nodiscard]] ServerMetrics snapshot() const;

  /// Stops admissions, drains admitted requests, joins workers. Idempotent;
  /// also run by the destructor. Results remain wait()able afterwards.
  void shutdown();

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }
  [[nodiscard]] const OperatorRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  void worker_main();
  void watchdog_main();
  void finish(const std::shared_ptr<RequestState>& state,
              RequestStatus status);
  /// Fault-prone phase with retry: fault hook + operator acquisition.
  /// Returns true with the lease on success; false with `error` set after a
  /// permanent fault, exhausted attempts, or a backoff that cannot fit the
  /// deadline.
  bool acquire_with_retry(const std::shared_ptr<RequestState>& state,
                          const core::Config& config,
                          OperatorRegistry::Lease& lease, std::string& error);
  [[nodiscard]] std::chrono::steady_clock::time_point now() const noexcept;

  ServerOptions options_;
  const solve::Clock& clock_;
  int threads_per_worker_ = 1;
  OperatorRegistry registry_;
  RequestScheduler scheduler_;
  RetryPolicy retry_;

  mutable std::mutex mu_;
  std::condition_variable cv_done_;  ///< wait() blocks here.
  std::unordered_map<std::int64_t, std::shared_ptr<RequestState>> live_;
  std::int64_t next_id_ = 0;
  std::int64_t completed_ = 0;
  std::array<PriorityMetrics, kNumPriorities> priority_metrics_{};
  double setup_seconds_sum_ = 0.0;
  double solve_seconds_sum_ = 0.0;
  std::int64_t degraded_ = 0;
  std::int64_t salvaged_ = 0;
  std::array<std::int64_t, kMaxRungs> degraded_by_rung_{};
  std::int64_t retries_ = 0;
  std::int64_t retry_exhausted_ = 0;
  std::int64_t retry_abandoned_ = 0;
  std::int64_t watchdog_cancelled_ = 0;
  LatencyHistogram retry_backoff_;
  ShardServeMetrics shard_metrics_;
  bool shut_down_ = false;

  std::vector<std::thread> threads_;
  std::thread watchdog_;
  std::condition_variable cv_watchdog_;  ///< Wakes the watchdog on shutdown.
  bool watchdog_stop_ = false;
};

}  // namespace memxct::serve
