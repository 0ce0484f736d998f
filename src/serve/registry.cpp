#include "serve/registry.hpp"

#include <omp.h>

#include <utility>

#include "common/error.hpp"
#include "perf/timer.hpp"
#include "tune/tune.hpp"

namespace memxct::serve {

OperatorRegistry::OperatorRegistry(RegistryOptions options)
    : options_(std::move(options)),
      breaker_(options_.breaker),
      plan_slots_(omp_get_max_threads()) {}

OperatorRegistry::Lease OperatorRegistry::acquire(
    const geometry::Geometry& geometry, const core::Config& config) {
  Lease lease;

  // Autotuned requests resolve BEFORE keying whenever a prior decision is
  // known, so they hit the same entry as an explicitly-configured twin. An
  // unresolved request keys (and single-flights) under its nominal config;
  // the build resolves it and the finished entry is indexed under the
  // resolved key below. Force mode never replays an in-process decision.
  core::Config effective = config;
  std::string tune_fp;
  if (config.autotune != core::AutotuneMode::Off) {
    tune_fp = tune::tune_fingerprint(geometry, config);
    if (config.autotune == core::AutotuneMode::Cached) {
      std::lock_guard<std::mutex> lk(mu_);
      if (auto it = tuned_.find(tune_fp); it != tuned_.end()) {
        effective.kernel = it->second.kernel;
        effective.schedule = it->second.schedule;
        effective.buffer = it->second.buffer;
        effective.autotune = core::AutotuneMode::Off;
        lease.tuned = true;
        ++stats_.tuned_builds;  // a resolution was applied (instant replay)
        ++stats_.tune_cache_hits;
      }
    }
  }

  lease.key = core::operator_key(geometry, effective);
  const std::string key = lease.key.text;  // single-flight/build key
  std::string store_key = key;             // index key (resolved after build)

  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (auto it = index_.find(key); it != index_.end()) {
        // Memory-tier hit: touch to MRU and share the bundle.
        lru_.splice(lru_.end(), lru_, it->second);
        ++stats_.hits;
        lease.recon = it->second->recon;
        lease.hit = true;
        return lease;
      }
      if (building_.count(key) == 0) break;  // this thread becomes builder
      // Single-flight join: another thread is preprocessing this key; wait
      // for it instead of duplicating the build, then re-check the map.
      ++stats_.single_flight_waits;
      build_cv_.wait(lk);
    }
    building_.insert(key);
  }

  // Build outside the lock: preprocessing can take seconds, and other keys
  // must keep hitting meanwhile. The disk tier is consulted only while the
  // breaker allows it; an open breaker routes this build straight to
  // re-trace (no read, no write) until a half-open probe heals it.
  const bool disk_tier = !options_.disk_cache_dir.empty();
  const bool cache_allowed = disk_tier && breaker_.allow_request();
  std::shared_ptr<const core::Reconstructor> recon;
  perf::WallTimer build_timer;
  try {
    core::Config build_config = core::operator_config(effective);
    // operator_config normalizes to operator identity, which deliberately
    // excludes autotune (it is build policy, not identity) — re-apply it so
    // the Reconstructor runs the tuner; the disk tier below doubles as the
    // `.tune` replay tier in Cached mode.
    build_config.autotune = effective.autotune;
    if (cache_allowed)
      build_config.cache_dir = options_.disk_cache_dir;  // second tier
    if (options_.pre_build_hook) options_.pre_build_hook(key);
    // Pin the plan-slot count to the registry's canonical value so the
    // static plans (and hence the bitwise output) are independent of which
    // worker thread happens to run the build.
    const int caller_threads = omp_get_max_threads();
    omp_set_num_threads(plan_slots_);
    try {
      recon = std::make_shared<core::Reconstructor>(geometry, build_config);
    } catch (...) {
      omp_set_num_threads(caller_threads);
      throw;
    }
    omp_set_num_threads(caller_threads);
  } catch (...) {
    // A failed build that held disk-tier access counts against the breaker
    // (and, crucially, resolves a half-open probe so the breaker can never
    // wedge in HalfOpen when the probe build dies).
    if (cache_allowed) breaker_.record_failure();
    std::lock_guard<std::mutex> lk(mu_);
    building_.erase(key);
    build_cv_.notify_all();
    throw;
  }
  lease.build_seconds = build_timer.seconds();
  lease.recon = recon;
  lease.disk_hit = recon->preprocess_report().cache_hit;
  const bool cache_corrupt = recon->preprocess_report().cache_corrupt;
  // If the build ran the tuner, the entry belongs under the key of the
  // RESOLVED config (recon->config() carries the winner), so a later
  // explicit request for that exact config — or another tuned request —
  // lands on the same entry.
  const tune::TuneReport& tuned = recon->tune_report();
  if (tuned.tuned) {
    lease.tuned = true;
    lease.key = core::operator_key(geometry, recon->config());
    store_key = lease.key.text;
  }
  if (cache_allowed) {
    // Corrupt load = tier failure; a clean build through the tier (hit,
    // miss-and-rewrite) = tier success. This is also what closes the
    // breaker after a successful half-open probe.
    if (cache_corrupt)
      breaker_.record_failure();
    else
      breaker_.record_success();
  }
  // Sharded operators are accounted at the sum of their per-rank bytes —
  // the registry budget caps total resident memory across the fleet.
  const std::int64_t bytes = recon->serial_op() != nullptr
                                 ? recon->serial_op()->bytes()
                                 : recon->shard_op()->bytes();

  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    ++stats_.builds;
    if (lease.disk_hit) ++stats_.disk_tier_hits;
    if (cache_corrupt) ++stats_.cache_corrupt_loads;
    if (disk_tier && !cache_allowed) ++stats_.breaker_bypassed_builds;
    if (tuned.tuned) {
      ++stats_.tuned_builds;
      if (tuned.cache_hit) ++stats_.tune_cache_hits;
      stats_.tune_measure_ms += tuned.measure_seconds * 1e3;
      // Remember the resolution so later Cached acquires for this
      // fingerprint resolve to the final key without building at all.
      tuned_[tuned.fingerprint] =
          TunedFields{recon->config().kernel, recon->config().schedule,
                      recon->config().buffer};
    }

    const std::int64_t budget = options_.byte_budget;
    if (auto resolved = index_.find(store_key); resolved != index_.end()) {
      // A tuned build resolved onto a key that is already resident (e.g.
      // the explicit twin arrived first, or two modes raced). Touch the
      // resident entry and drop the duplicate bundle with this lease —
      // inserting twice would double-charge the budget.
      lru_.splice(lru_.end(), lru_, resolved->second);
    } else if (budget > 0 && bytes > budget) {
      // Larger than the whole budget: serve it, never retain it — the
      // budget is a hard invariant, not a soft target.
      ++stats_.uncacheable;
    } else {
      index_[store_key] =
          lru_.insert(lru_.end(), Entry{store_key, recon, bytes});
      stats_.resident_bytes += bytes;
      ++stats_.resident_operators;
      // Evict least-recently-used entries (never the one just inserted)
      // until the resident total fits the budget again.
      while (budget > 0 && stats_.resident_bytes > budget && lru_.size() > 1) {
        Entry& victim = lru_.front();
        stats_.resident_bytes -= victim.bytes;
        stats_.evicted_bytes += victim.bytes;
        ++stats_.evictions;
        --stats_.resident_operators;
        index_.erase(victim.key_text);
        lru_.pop_front();  // leases keep the bundle alive if still in use
      }
    }
    if (stats_.resident_bytes > stats_.peak_resident_bytes)
      stats_.peak_resident_bytes = stats_.resident_bytes;
    building_.erase(key);
    build_cv_.notify_all();
  }
  return lease;
}

RegistryStats OperatorRegistry::stats() const {
  RegistryStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s = stats_;
  }
  const CircuitBreaker::Stats b = breaker_.stats();
  s.breaker_opens = b.opens;
  s.breaker_probes = b.probes;
  s.breaker_state = breaker_.state();
  return s;
}

std::vector<std::string> OperatorRegistry::resident_keys() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& e : lru_) keys.push_back(e.key_text);
  return keys;
}

}  // namespace memxct::serve
