// OperatorRegistry: byte-budgeted LRU cache of preprocessed operators.
//
// The single-slice path memoizes the projection matrix so iterations reuse
// it (the paper's core thesis); a multi-tenant service must apply the same
// amortization ACROSS REQUESTS — many clients submitting slices against a
// handful of distinct geometries. The registry is that cross-request tier:
//
//   * keyed by core::operator_key (geometry + operator-affecting config),
//     so requests differing only in solver/iterations share one operator;
//   * byte-budgeted: entries are charged MemXCTOperator::bytes() (shared
//     matrix + plan storage), and least-recently-used entries are evicted
//     until the resident total fits the budget — operator residency, not
//     FLOPs, is the scarce resource at scale;
//   * single-flight: concurrent requests for the same uncached geometry
//     trigger exactly ONE preprocess; latecomers block until it is ready
//     instead of duplicating minutes of tracing work;
//   * two-tier: when a disk cache directory is configured, builds go
//     through the existing resil checksummed cache (Config::cache_dir), so
//     an entry evicted from memory rebuilds from the validated on-disk
//     traced matrix instead of re-tracing rays.
//
// Leases hand out shared ownership: an evicted entry stays alive until the
// last in-flight request drops its lease, so eviction never invalidates a
// running solve. The budget therefore bounds the bytes the registry keeps
// RESIDENT FOR REUSE; transient over-budget usage is bounded by the worker
// count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/opkey.hpp"
#include "core/reconstructor.hpp"
#include "serve/breaker.hpp"

namespace memxct::serve {

struct RegistryOptions {
  /// Resident-bytes budget across cached operators; 0 = unlimited. An
  /// operator larger than the whole budget is built and served but never
  /// retained (pass-through), so the budget is a hard invariant.
  std::int64_t byte_budget = 0;
  /// Second-tier checksummed disk cache for traced matrices (forwarded to
  /// core::Config::cache_dir during builds); empty disables the tier.
  std::string disk_cache_dir;
  /// Circuit breaker over the disk tier: after `failure_threshold`
  /// consecutive corrupt cache loads, builds bypass the disk entirely
  /// (straight to re-trace, no doomed load-and-verify) until a half-open
  /// probe succeeds. failure_threshold <= 0 disables. Only meaningful with
  /// a disk_cache_dir.
  BreakerOptions breaker{.failure_threshold = 0};
  /// Test/chaos hook invoked right before each build (outside the registry
  /// lock) with the operator key text. Storm tests use it to corrupt cache
  /// files or throw typed build failures; an exception propagates to the
  /// builder, and single-flight waiters wake to retry as builders (no
  /// hang). A build failing while it held disk-tier access is counted
  /// against the breaker (conservative).
  std::function<void(const std::string&)> pre_build_hook;
};

/// Accounting snapshot; all counters are cumulative since construction.
struct RegistryStats {
  std::int64_t hits = 0;    ///< Served from the in-memory tier.
  std::int64_t misses = 0;  ///< Required a build (possibly disk-assisted).
  std::int64_t builds = 0;  ///< Preprocess runs (== misses - pass-throughs
                            ///< joined via single-flight).
  std::int64_t single_flight_waits = 0;  ///< Joined an in-progress build.
  std::int64_t disk_tier_hits = 0;  ///< Builds whose trace loaded from disk.
  std::int64_t evictions = 0;
  std::int64_t evicted_bytes = 0;
  std::int64_t uncacheable = 0;  ///< Built but larger than the budget.
  std::int64_t cache_corrupt_loads = 0;  ///< Disk-tier loads that failed
                                         ///< verification (file present but
                                         ///< unusable; rebuilt).
  std::int64_t tuned_builds = 0;  ///< Builds that ran the autotune step
                                  ///< (measured or replayed a decision).
  std::int64_t tune_cache_hits = 0;  ///< Tuned builds resolved WITHOUT
                                     ///< measuring (in-memory fingerprint map
                                     ///< or an intact `.tune` file).
  double tune_measure_ms = 0.0;  ///< Cumulative candidate-measurement time.
  std::int64_t breaker_bypassed_builds = 0;  ///< Builds routed straight to
                                             ///< re-trace by an open breaker.
  std::int64_t breaker_opens = 0;   ///< Breaker state() snapshot fields.
  std::int64_t breaker_probes = 0;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::Closed;
  std::int64_t resident_bytes = 0;
  std::int64_t peak_resident_bytes = 0;
  int resident_operators = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class OperatorRegistry {
 public:
  /// Shared ownership of one preprocessed operator bundle. Holders may use
  /// recon->serial_op()->make_view() for concurrent applies; the bundle
  /// outlives eviction for as long as any lease exists.
  struct Lease {
    std::shared_ptr<const core::Reconstructor> recon;
    core::OperatorKey key;
    bool hit = false;       ///< Served from the in-memory tier (no build).
    bool disk_hit = false;  ///< Build loaded its traced matrix from disk.
    bool tuned = false;     ///< Config was resolved by the autotuner (the
                            ///< key reflects the RESOLVED config).
    double build_seconds = 0.0;  ///< Preprocess time paid by THIS request
                                 ///< (0 on memory hit or single-flight join).
  };

  explicit OperatorRegistry(RegistryOptions options = {});

  /// Returns a lease for the operator of (geometry, config), building it on
  /// miss. Thread-safe; concurrent misses on one key are deduplicated to a
  /// single build. Throws InvalidArgument (UnsupportedConfigError for flag
  /// conflicts) for configs validate_config rejects, before any build.
  ///
  /// Autotuned requests (config.autotune != Off) are keyed by their
  /// RESOLVED config — the measured winner — so a tuned operator and an
  /// explicitly-configured twin share one cache entry and the byte budget /
  /// LRU semantics are unchanged. Resolutions are remembered per
  /// geometry fingerprint (and, with a disk tier, replayed from `.tune`
  /// files), so only the first Cached-mode request per fingerprint pays the
  /// measurement.
  [[nodiscard]] Lease acquire(const geometry::Geometry& geometry,
                              const core::Config& config);

  [[nodiscard]] RegistryStats stats() const;
  [[nodiscard]] std::int64_t byte_budget() const noexcept {
    return options_.byte_budget;
  }
  /// Resident key texts in LRU order (least recent first) — test hook for
  /// eviction-order semantics.
  [[nodiscard]] std::vector<std::string> resident_keys() const;
  /// Disk-tier circuit breaker (observable for tests/metrics).
  [[nodiscard]] const CircuitBreaker& breaker() const noexcept {
    return breaker_;
  }

 private:
  struct Entry {
    std::string key_text;
    std::shared_ptr<const core::Reconstructor> recon;
    std::int64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  RegistryOptions options_;
  CircuitBreaker breaker_;
  /// Plan-slot count captured at registry construction: builds temporarily
  /// pin omp_get_max_threads() to this value so operators built from worker
  /// threads (whose thread ICV is reduced) carry the same static plans —
  /// and therefore the same bitwise output — as a main-thread build.
  int plan_slots_;

  mutable std::mutex mu_;
  std::condition_variable build_cv_;  ///< Single-flight joiners wait here.
  LruList lru_;                       ///< Front = least recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  std::unordered_set<std::string> building_;  ///< Keys with a build in flight.
  /// Autotune resolutions this process has already decided: tune
  /// fingerprint → winning (kernel, schedule, buffer). Lets Cached-mode
  /// acquires resolve to the final operator key before touching the LRU,
  /// even when no disk tier is configured.
  struct TunedFields {
    core::KernelKind kernel;
    core::ScheduleKind schedule;
    sparse::BufferConfig buffer;
  };
  std::unordered_map<std::string, TunedFields> tuned_;
  RegistryStats stats_;
};

}  // namespace memxct::serve
