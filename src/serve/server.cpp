#include "serve/server.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "batch/batch.hpp"
#include "common/error.hpp"

namespace memxct::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

std::string ServerMetrics::summary() const {
  std::ostringstream os;
  os << completed << "/" << submitted << " requests on " << workers
     << " workers (queue depth " << queue_depth << "/" << queue_capacity
     << ", high-water " << queue_high_water << "); registry hit rate "
     << registry.hit_rate() << " (" << registry.hits << " hits, "
     << registry.misses << " misses, " << registry.evictions
     << " evictions, " << registry.resident_bytes << " B resident)";
  if (rejected() > 0) os << "; " << rejected() << " rejected";
  if (degraded > 0)
    os << "; " << degraded << " degraded (" << salvaged << " salvaged, "
       << degraded_admissions << " at admission)";
  if (retries > 0)
    os << "; " << retries << " retries (" << retry_exhausted << " exhausted, "
       << retry_abandoned << " abandoned)";
  if (watchdog_cancelled > 0)
    os << "; " << watchdog_cancelled << " watchdog-cancelled";
  if (shard.sharded_requests > 0)
    os << "; " << shard.sharded_requests << " sharded on " << shard.shards
       << " shards (comm " << shard.comm_seconds << " s, overlap saved "
       << shard.overlap_saved_seconds << " s)";
  return os.str();
}

Server::Server(ServerOptions options, const solve::Clock& clock)
    : options_(std::move(options)),
      clock_(clock),
      registry_(options_.registry),
      scheduler_({.queue_capacity = options_.queue_capacity > 0
                      ? options_.queue_capacity
                      : 4 * std::max(1, options_.workers),
                  .feasibility_margin = options_.feasibility_margin,
                  .degrade = options_.degrade}),
      retry_(options_.retry) {
  if (options_.workers < 1)
    throw InvalidArgument("serve: workers must be >= 1");
  threads_per_worker_ =
      options_.omp_threads_per_worker > 0
          ? options_.omp_threads_per_worker
          : std::max(1, omp_get_max_threads() / options_.workers);
  threads_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    threads_.emplace_back([this] { worker_main(); });
  if (options_.watchdog_ms > 0.0)
    watchdog_ = std::thread([this] { watchdog_main(); });
}

Server::~Server() { shutdown(); }

std::chrono::steady_clock::time_point Server::now() const noexcept {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(clock_.now_ns())));
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  scheduler_.close();  // admitted requests drain, then workers exit
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    watchdog_stop_ = true;
  }
  cv_watchdog_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::int64_t Server::submit(const geometry::Geometry& geometry,
                            const core::Config& config,
                            std::span<const real> sinogram,
                            RequestOptions options) {
  geometry.validate();
  if (static_cast<std::int64_t>(sinogram.size()) !=
      geometry.sinogram_extent().size())
    throw InvalidArgument("serve: sinogram size " +
                          std::to_string(sinogram.size()) +
                          " does not match the geometry");
  // Typed flag-conflict rejections first: a client combining individually
  // valid knobs learns exactly which pair to change. core::validate_config
  // is the same single gate the Reconstructor ctor and the autotuner's
  // candidate pruning use, raised here at admission so an illegal request
  // never occupies a queue slot.
  core::validate_config(config);
  if (options.deadline_seconds < 0.0)
    throw InvalidArgument("serve: deadline_seconds must be >= 0");
  // The same extras rule reconstruct_slice applies, raised at admission.
  core::SolveExtras extras;
  extras.warm_start_image = options.warm_start_image;
  extras.angle_mask = options.angle_mask;
  core::validate_extras(geometry, config, extras);

  auto state = std::make_shared<RequestState>();
  state->geometry = geometry;
  state->config = config;
  state->sinogram.assign(sinogram.begin(), sinogram.end());
  state->warm_start.assign(options.warm_start_image.begin(),
                           options.warm_start_image.end());
  state->angle_mask.assign(options.angle_mask.begin(),
                           options.angle_mask.end());
  state->options = options;
  // The spans point at caller memory; the owned copies above are the truth.
  state->options.warm_start_image = {};
  state->options.angle_mask = {};
  state->submit_time = now();
  if (options.deadline_seconds > 0.0) {
    state->has_deadline = true;
    state->deadline =
        state->submit_time +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.deadline_seconds));
    state->token.set_deadline_after(options.deadline_seconds, clock_);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shut_down_) throw InvalidArgument("serve: server is shut down");
    state->id = next_id_++;
  }

  scheduler_.admit(state);  // throws typed rejection on overload

  {
    std::lock_guard<std::mutex> lk(mu_);
    live_[state->id] = state;
    ++priority_metrics_[static_cast<std::size_t>(options.priority)].submitted;
  }
  return state->id;
}

RequestResult Server::wait(std::int64_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = live_.find(id);
  if (it == live_.end())
    throw InvalidArgument("serve: unknown or already-consumed request id " +
                          std::to_string(id));
  const std::shared_ptr<RequestState> state = it->second;
  cv_done_.wait(lk, [&] { return is_terminal(state->status); });
  live_.erase(id);
  lk.unlock();

  // Terminal state is written exactly once before the status flips, so the
  // fields are safe to move out without the lock.
  RequestResult result;
  result.id = state->id;
  result.priority = state->options.priority;
  result.status = state->status;
  result.error = std::move(state->error);
  result.image = std::move(state->image);
  result.solve = std::move(state->solve);
  result.ingest = std::move(state->ingest);
  result.registry_hit = state->registry_hit;
  result.disk_cache_hit = state->disk_cache_hit;
  result.rung = state->rung;
  result.salvaged = state->salvaged;
  result.attempts = state->attempts;
  result.backoff_seconds = state->backoff_seconds;
  if (!result.solve.history.empty())
    result.achieved_residual = result.solve.history.back().residual_norm;
  result.queue_seconds = state->queue_seconds;
  result.setup_seconds = state->setup_seconds;
  result.total_seconds = state->total_seconds;
  return result;
}

bool Server::cancel(std::int64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = live_.find(id);
  if (it == live_.end() || is_terminal(it->second->status)) return false;
  it->second->token.request_cancel();
  return true;
}

ServerMetrics Server::snapshot() const {
  ServerMetrics m;
  m.workers = static_cast<int>(threads_.size());
  m.queue_depth = scheduler_.queue_depth();
  m.queue_capacity = scheduler_.queue_capacity();
  m.queue_high_water = scheduler_.queue_high_water();
  m.estimated_service_seconds = scheduler_.estimated_service_seconds();
  m.registry = registry_.stats();
  m.degraded_admissions = scheduler_.degraded_admissions();
  {
    std::lock_guard<std::mutex> lk(mu_);
    m.priority = priority_metrics_;
    m.completed = completed_;
    m.setup_seconds_sum = setup_seconds_sum_;
    m.solve_seconds_sum = solve_seconds_sum_;
    m.degraded = degraded_;
    m.salvaged = salvaged_;
    m.degraded_by_rung = degraded_by_rung_;
    m.retries = retries_;
    m.retry_exhausted = retry_exhausted_;
    m.retry_abandoned = retry_abandoned_;
    m.watchdog_cancelled = watchdog_cancelled_;
    m.retry_backoff = retry_backoff_;
    m.shard = shard_metrics_;
  }
  for (int p = 0; p < kNumPriorities; ++p) {
    auto& pm = m.priority[static_cast<std::size_t>(p)];
    pm.rejected_queue_full =
        scheduler_.rejected_queue_full(static_cast<Priority>(p));
    pm.rejected_infeasible =
        scheduler_.rejected_infeasible(static_cast<Priority>(p));
    m.submitted += pm.submitted;
  }
  return m;
}

void Server::finish(const std::shared_ptr<RequestState>& state,
                    RequestStatus status) {
  const auto done = now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    state->total_seconds = seconds_between(state->submit_time, done);
    state->status = status;
    auto& pm =
        priority_metrics_[static_cast<std::size_t>(state->options.priority)];
    switch (status) {
      case RequestStatus::Ok:
        ++pm.ok;
        break;
      case RequestStatus::Degraded:
        ++pm.degraded;
        ++degraded_;
        if (state->salvaged) ++salvaged_;
        if (state->rung >= 1 && state->rung <= kMaxRungs)
          ++degraded_by_rung_[static_cast<std::size_t>(state->rung - 1)];
        break;
      case RequestStatus::IngestRejected:
        ++pm.ingest_rejected;
        break;
      case RequestStatus::Diverged:
        ++pm.diverged;
        break;
      case RequestStatus::Failed:
        ++pm.failed;
        break;
      case RequestStatus::Cancelled:
        ++pm.cancelled;
        break;
      case RequestStatus::DeadlineExceeded:
        ++pm.deadline_exceeded;
        break;
      case RequestStatus::Queued:
      case RequestStatus::Running:
        break;  // not terminal; unreachable
    }
    pm.latency.record(state->total_seconds);
    setup_seconds_sum_ += state->setup_seconds;
    solve_seconds_sum_ += state->solve.seconds;
    ++completed_;
  }
  cv_done_.notify_all();
}

bool Server::acquire_with_retry(const std::shared_ptr<RequestState>& state,
                                const core::Config& config,
                                OperatorRegistry::Lease& lease,
                                std::string& error) {
  for (int attempt = 1;; ++attempt) {
    state->attempts = attempt;
    // Heartbeat: starting an attempt is progress (a deliberate backoff
    // sleep must not read as a stuck worker to the watchdog).
    state->progress.tick(0);
    try {
      if (options_.fault_hook) options_.fault_hook(state->id, attempt);
      lease = registry_.acquire(state->geometry, config);
      return true;
    } catch (const TransientError& e) {
      if (!retry_.should_retry(attempt)) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++retry_exhausted_;
        }
        std::ostringstream os;
        os << e.what() << " (failed after " << attempt << " attempt"
           << (attempt == 1 ? "" : "s") << ")";
        error = os.str();
        return false;
      }
      // The retry budget is charged against the deadline: a backoff that
      // would land past it is pointless — give up now and return the time
      // to other requests.
      const double delay = retry_.delay_seconds(state->id, attempt);
      if (state->has_deadline &&
          now() + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(delay)) >=
              state->deadline) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++retry_abandoned_;
        }
        std::ostringstream os;
        os << e.what() << " (retry abandoned: backoff " << delay * 1e3
           << " ms would exceed the deadline)";
        error = os.str();
        return false;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++retries_;
        retry_backoff_.record(delay);
      }
      state->backoff_seconds += delay;
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    } catch (const std::exception& e) {
      // Permanent: retries must never mask a real failure.
      error = e.what();
      return false;
    }
  }
}

void Server::watchdog_main() {
  // Poll at a quarter of the stall threshold so detection latency is at
  // most ~1.25 × watchdog_ms. The scan is O(live requests) pointer chasing
  // under the server mutex — negligible next to a solve iteration.
  const auto interval = std::chrono::duration<double, std::milli>(
      std::max(1.0, options_.watchdog_ms / 4.0));
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_watchdog_.wait_for(lk, interval, [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    for (auto& [id, state] : live_) {
      if (state->status != RequestStatus::Running) continue;
      if (state->watchdog_fired.load(std::memory_order_relaxed)) continue;
      const double stale_s = state->progress.seconds_since_tick();
      // An unarmed sink reports +inf staleness; skip it (the worker arms
      // the sink at pickup, so the window where Running is unarmed is a few
      // instructions wide).
      if (!std::isfinite(stale_s)) continue;
      if (stale_s * 1e3 > options_.watchdog_ms) {
        // Force-cancel through the same token deadlines use: the solver
        // stops at its next iteration boundary; a worker stuck inside a
        // kernel at least stops before wasting further iterations.
        state->watchdog_fired.store(true, std::memory_order_relaxed);
        state->token.request_cancel();
        ++watchdog_cancelled_;
      }
    }
  }
}

void Server::worker_main() {
  // Same subscription rule as the batch engine: the per-thread num-threads
  // ICV pins solver parallel regions so K workers equal one full-width
  // solve in total CPU use.
  omp_set_num_threads(threads_per_worker_);
  core::SliceWorkspace slice_ws;  // persistent per-worker scratch

  while (auto popped = scheduler_.next()) {
    const std::shared_ptr<RequestState> state = *popped;
    const auto pickup = now();
    state->queue_seconds = seconds_between(state->submit_time, pickup);
    state->progress.arm();  // watchdog staleness measures from pickup
    {
      std::lock_guard<std::mutex> lk(mu_);
      state->status = RequestStatus::Running;
    }

    // Cheap pre-solve gates: cancellation or a deadline burned entirely in
    // the queue ends the request without touching an operator.
    if (state->token.cancel_requested()) {
      finish(state, RequestStatus::Cancelled);
      continue;
    }
    if (state->has_deadline && pickup >= state->deadline) {
      state->error = "deadline expired while queued";
      finish(state, RequestStatus::DeadlineExceeded);
      continue;
    }

    // Apply the quality rung chosen at admission (or requested by the
    // client): iteration cap, relaxed early stop, reduced-precision
    // operator where supported. Rung 0 is the submitted config untouched.
    const DegradeRung* rung = nullptr;
    core::Config config = state->config;
    if (state->rung > 0 &&
        state->rung <= static_cast<int>(options_.degrade.rungs.size())) {
      rung = &options_.degrade.rungs[static_cast<std::size_t>(state->rung - 1)];
      config = apply_rung(config, *rung);
    }
    // Shared checkpoint files across concurrent requests would corrupt
    // (same rule as the batch engine); the registry owns the disk cache.
    config.checkpoint_path.clear();
    config.cache_dir.clear();

    OperatorRegistry::Lease lease;
    std::string error;
    if (!acquire_with_retry(state, config, lease, error)) {
      state->error = std::move(error);
      finish(state, RequestStatus::Failed);
      continue;
    }
    state->registry_hit = lease.hit;
    state->disk_cache_hit = lease.disk_hit;
    state->setup_seconds = lease.build_seconds;

    // Per-request operator view: shared immutable storage, private apply
    // workspaces (and, on the sharded path, private exchange buffers and a
    // private simulated fabric) — concurrent requests on one geometry never
    // contend.
    std::unique_ptr<solve::LinearOperator> view;
    shard::ShardedOperator* shard_view = nullptr;
    if (lease.recon->shard_op() != nullptr) {
      std::unique_ptr<shard::ShardedOperator> sv =
          lease.recon->shard_op()->make_view();
      // Sharded applies poll the request token between pipeline tiles:
      // cancellation (deadline, watchdog, client) stops exchange prefetch
      // instead of posting traffic the solver will never consume.
      sv->set_cancel_token(&state->token);
      shard_view = sv.get();
      view = std::move(sv);
    } else {
      view = lease.recon->serial_op()->make_view();
    }

    core::SolveExtras extras;
    extras.warm_start_image = state->warm_start;
    extras.angle_mask = state->angle_mask;

    batch::SliceResult res = batch::run_isolated_slice(
        *view, lease.recon->geometry(), config,
        lease.recon->sinogram_ordering(), lease.recon->tomogram_ordering(),
        state->sinogram, &slice_ws, &state->token,
        state->options.keep_image, &state->progress,
        &extras);
    state->sinogram.clear();  // measurements are consumed; free early
    state->warm_start.clear();
    state->angle_mask.clear();

    RequestStatus status;
    if (res.solve.cancelled) {
      if (state->watchdog_fired.load(std::memory_order_relaxed)) {
        // The watchdog force-cancelled a stalled solve; this is a server
        // fault, not a client outcome — report Failed with the diagnosis.
        std::ostringstream os;
        os << "watchdog: no solver progress within " << options_.watchdog_ms
           << " ms; force-cancelled after iteration " << res.solve.iterations;
        state->error = os.str();
        status = RequestStatus::Failed;
      } else if (state->token.cancel_requested()) {
        status = RequestStatus::Cancelled;
      } else if (options_.degrade.enabled && options_.degrade.salvage &&
                 res.status == batch::SliceStatus::Ok &&
                 res.solve.iterations > 0) {
        // Partial-result salvage: the deadline hit mid-solve, but the
        // best-so-far iterate is already a usable (under-iterated) image —
        // return it tagged Degraded instead of discarding the work.
        state->salvaged = true;
        status = RequestStatus::Degraded;
      } else {
        status = RequestStatus::DeadlineExceeded;
      }
    } else {
      switch (res.status) {
        case batch::SliceStatus::Ok:
          // A request that ran at a reduced rung completes as Degraded so
          // clients can tell a preview from a full-quality image.
          status = state->rung > 0 ? RequestStatus::Degraded
                                   : RequestStatus::Ok;
          break;
        case batch::SliceStatus::IngestRejected:
          status = RequestStatus::IngestRejected;
          break;
        case batch::SliceStatus::Diverged:
          status = RequestStatus::Diverged;
          break;
        case batch::SliceStatus::Failed:
        default:
          status = RequestStatus::Failed;
          break;
      }
    }
    if (state->error.empty()) state->error = std::move(res.error);
    state->image = std::move(res.image);
    state->solve = std::move(res.solve);
    state->ingest = std::move(res.ingest);

    // Sharded requests contribute per-rank exchange traffic and the
    // comm-vs-compute split to the server metrics. The view's counters were
    // reset at solve start (reconstruct_slice), so this reads exactly this
    // request's applies — registry warm-up traffic is never counted.
    if (shard_view != nullptr) {
      const shard::ShardApplyStats st = shard_view->stats();
      const int num_shards = shard_view->num_shards();
      std::lock_guard<std::mutex> lk(mu_);
      shard_metrics_.shards = num_shards;
      ++shard_metrics_.sharded_requests;
      if (static_cast<int>(shard_metrics_.rank_bytes_sent.size()) <
          num_shards) {
        shard_metrics_.rank_bytes_sent.resize(
            static_cast<std::size_t>(num_shards), 0);
        shard_metrics_.rank_bytes_received.resize(
            static_cast<std::size_t>(num_shards), 0);
      }
      for (int p = 0; p < num_shards; ++p) {
        const perf::CommStats cs = shard_view->rank_comm_stats(p);
        shard_metrics_.rank_bytes_sent[static_cast<std::size_t>(p)] +=
            cs.bytes_sent;
        shard_metrics_.rank_bytes_received[static_cast<std::size_t>(p)] +=
            cs.bytes_received;
      }
      shard_metrics_.comm_seconds +=
          st.comm_seconds - st.overlap_saved_seconds;
      shard_metrics_.compute_seconds += st.compute_seconds;
      shard_metrics_.comm_modeled_seconds += st.comm_modeled_seconds;
      shard_metrics_.overlap_saved_seconds += st.overlap_saved_seconds;
    }

    // Feed the feasibility estimate with the end-to-end worker-side cost
    // (operator setup + solve) of requests that actually ran — normalized
    // to full-quality cost when the request ran at a cheaper rung, so
    // degraded traffic does not teach the gate that full solves got cheap.
    double observed = lease.build_seconds + res.seconds;
    if (rung != nullptr && rung->cost_scale > 0.0)
      observed /= rung->cost_scale;
    scheduler_.observe_service_seconds(observed);
    finish(state, status);
  }
}

}  // namespace memxct::serve
