// Chaos harness for the serving stack: seeded fault storms, the quality
// ladder, retry/backoff, the watchdog, the disk-tier circuit breaker, and
// cancellation corner cases.
//
// The invariants under test are the PR's acceptance criteria:
//   * no deadlock — every storm run completes;
//   * no request is lost: each reaches exactly one typed terminal status;
//   * every Degraded result stays within its rung's error budget
//     (fp32 rungs bitwise-equal to a direct solve of the rung config, bf16
//     rungs within the PR 6 PSNR budget vs an fp32 twin);
//   * two same-seed storms produce bitwise-identical statuses and images.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/reconstructor.hpp"
#include "phantom/phantom.hpp"
#include "resil/checkpoint.hpp"
#include "resil/fault.hpp"
#include "serve/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace memxct;

struct ChaosFixture {
  geometry::Geometry geom = geometry::make_geometry(24, 16);
  AlignedVector<real> sino;
  core::Config config;
};

ChaosFixture make_fixture(core::Config config = {}) {
  ChaosFixture f;
  config.iterations = 8;
  f.config = config;
  const auto image = phantom::shepp_logan(16);
  f.sino = phantom::forward_project(f.geom, image);
  return f;
}

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

double psnr(std::span<const real> test, std::span<const real> ref) {
  double peak = 0.0, mse = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    peak = std::max(peak, static_cast<double>(std::abs(ref[i])));
    const double d = static_cast<double>(test[i]) - ref[i];
    mse += d * d;
  }
  mse /= static_cast<double>(ref.size());
  return 10.0 * std::log10(peak * peak / std::max(mse, 1e-300));
}

// --- Determinism under storm ------------------------------------------------

struct StormRun {
  std::vector<serve::RequestStatus> statuses;
  std::vector<std::vector<real>> images;
  std::vector<std::string> errors;
};

StormRun run_storm(std::uint64_t seed) {
  const auto f = make_fixture();
  const resil::FaultInjector injector(seed);
  resil::FaultInjector::WorkerFaultOptions faults;
  faults.transient_probability = 0.4;
  faults.permanent_probability = 0.1;
  faults.delay_probability = 0.2;
  faults.delay_ms = 2.0;

  serve::ServerOptions options;
  options.workers = 3;
  options.queue_capacity = 32;
  options.degrade.enabled = true;
  options.degrade.rungs = serve::default_ladder();
  options.retry = {.max_attempts = 3, .backoff_ms = 1.0, .seed = seed};
  options.fault_hook = injector.worker_fault_hook(faults);
  serve::Server server(options);

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 24; ++i) {
    serve::RequestOptions ropt;
    ropt.priority = static_cast<serve::Priority>(i % serve::kNumPriorities);
    // A third of the traffic explicitly requests a reduced rung, so the
    // Degraded path is exercised without wall-clock-dependent deadlines
    // (which would break bitwise reproducibility).
    ropt.rung = i % 3 == 2 ? 1 + (i / 3) % 2 : 0;
    ids.push_back(server.submit(f.geom, f.config, f.sino, ropt));
  }
  StormRun run;
  for (const auto id : ids) {
    auto r = server.wait(id);
    run.statuses.push_back(r.status);
    run.images.push_back(std::move(r.image));
    run.errors.push_back(std::move(r.error));
  }
  return run;
}

TEST(Chaos, SameSeedStormsAreBitwiseIdentical) {
  for (const std::uint64_t seed : {7ULL, 99ULL, 20260808ULL}) {
    const StormRun a = run_storm(seed);
    const StormRun b = run_storm(seed);
    ASSERT_EQ(a.statuses.size(), 24u) << "no request may be lost";
    ASSERT_EQ(a.statuses, b.statuses) << "seed " << seed;
    ASSERT_EQ(a.errors, b.errors) << "seed " << seed;
    for (std::size_t i = 0; i < a.images.size(); ++i) {
      ASSERT_EQ(a.images[i].size(), b.images[i].size()) << "seed " << seed;
      if (a.images[i].empty()) continue;  // failed requests carry no image
      EXPECT_EQ(0, std::memcmp(a.images[i].data(), b.images[i].data(),
                               a.images[i].size() * sizeof(real)))
          << "request " << i << " at seed " << seed;
    }
    // The storm exercised every interesting path.
    int failed = 0, degraded = 0, ok = 0;
    for (const auto st : a.statuses) {
      if (st == serve::RequestStatus::Failed) ++failed;
      else if (st == serve::RequestStatus::Degraded) ++degraded;
      else if (st == serve::RequestStatus::Ok) ++ok;
      else FAIL() << "unexpected terminal status " << to_string(st);
    }
    EXPECT_GT(degraded, 0) << "explicit rungs must produce Degraded results";
    EXPECT_GT(ok, 0);
    // Injected-fault messages must carry the seed for reproduction.
    for (std::size_t i = 0; i < a.statuses.size(); ++i)
      if (a.statuses[i] == serve::RequestStatus::Failed)
        EXPECT_NE(a.errors[i].find("seed="), std::string::npos)
            << a.errors[i];
  }
}

// --- Degradation ladder -----------------------------------------------------

TEST(Chaos, DegradedRungsStayWithinErrorBudgets) {
  const auto f = make_fixture();
  const auto rungs = serve::default_ladder();

  serve::ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.degrade.enabled = true;
  options.degrade.rungs = rungs;
  serve::Server server(options);

  for (int r = 1; r <= static_cast<int>(rungs.size()); ++r) {
    const auto& rung = rungs[static_cast<std::size_t>(r - 1)];
    // What the rung is supposed to compute, solved directly.
    const core::Config rung_config = serve::apply_rung(f.config, rung);
    const core::Reconstructor direct(f.geom, rung_config);
    const auto exact = direct.reconstruct(f.sino);
    // fp32 twin with identical solver budget: isolates the precision error
    // from the (intentional) under-iteration.
    core::Config twin_config = rung_config;
    twin_config.precision = sparse::ValueStorage::Fp32;
    const core::Reconstructor twin(f.geom, twin_config);
    const auto ref = twin.reconstruct(f.sino);

    const auto result =
        server.wait(server.submit(f.geom, f.config, f.sino, {.rung = r}));
    ASSERT_EQ(result.status, serve::RequestStatus::Degraded)
        << "rung " << r << ": " << result.error;
    EXPECT_EQ(result.rung, r);
    EXPECT_FALSE(result.salvaged);
    ASSERT_EQ(result.image.size(), exact.image.size());
    EXPECT_EQ(0, std::memcmp(result.image.data(), exact.image.data(),
                             exact.image.size() * sizeof(real)))
        << "rung " << r
        << " served image must be bitwise-equal to a direct solve of the "
           "rung config";
    if (rung.min_psnr_db > 0.0)
      EXPECT_GT(psnr(result.image, ref.image), rung.min_psnr_db)
          << "rung " << r << " (" << rung.name << ")";
    EXPECT_GT(result.achieved_residual, 0.0)
        << "degraded results must report how far from convergence they are";
  }
  const auto m = server.snapshot();
  EXPECT_EQ(m.degraded, 2);
  EXPECT_EQ(m.salvaged, 0);
  EXPECT_EQ(m.degraded_by_rung[0], 1);
  EXPECT_EQ(m.degraded_by_rung[1], 1);
}

/// Deadline clock that advances one fixed step per reading: a deadline
/// expires after a set number of checks, not after wall time, so a loaded
/// machine cannot spend it before the first solver iteration.
class SteppingClock final : public solve::Clock {
 public:
  explicit SteppingClock(std::chrono::nanoseconds step) : step_(step) {}
  [[nodiscard]] std::int64_t now_ns() const noexcept override {
    return readings_.fetch_add(1, std::memory_order_relaxed) * step_.count();
  }

 private:
  std::chrono::nanoseconds step_;
  mutable std::atomic<std::int64_t> readings_{0};
};

TEST(Chaos, PreviewRungPrecisionFollowsValidateConfig) {
  // The preview rung's bf16 applies only where core::validate_config
  // accepts it; every other knob of the rung applies regardless.
  const serve::DegradeRung preview = serve::default_ladder()[1];
  ASSERT_EQ(preview.precision, sparse::ValueStorage::Bf16);
  core::Config baseline;
  baseline.kernel = core::KernelKind::Baseline;
  baseline.iterations = 20;
  core::Config buffered;
  buffered.iterations = 20;
  core::Config sharded = buffered;
  sharded.num_shards = 2;

  const auto on_baseline = serve::apply_rung(baseline, preview);
  EXPECT_EQ(on_baseline.precision, sparse::ValueStorage::Fp32);
  EXPECT_EQ(on_baseline.iterations, 5);
  EXPECT_EQ(serve::apply_rung(buffered, preview).precision,
            sparse::ValueStorage::Bf16);
  const auto on_sharded = serve::apply_rung(sharded, preview);
  EXPECT_EQ(on_sharded.precision, sparse::ValueStorage::Fp32);
  EXPECT_EQ(on_sharded.iterations, 5);
  for (const auto& c : {on_baseline, on_sharded})
    EXPECT_NO_THROW(core::validate_config(c));
}

TEST(Chaos, SalvagedPartialIsDegradedWithBestSoFarIterate) {
  auto f = make_fixture();
  serve::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.degrade.enabled = true;
  options.degrade.rungs = serve::default_ladder();
  // One millisecond per reading: the 50 ms deadline lapses after about 50
  // deadline checks, i.e. a few dozen SIRT iterations into the solve.
  const SteppingClock clock(std::chrono::milliseconds(1));
  serve::Server server(options, clock);

  // A fixed-iteration solve the deadline cannot cover; the estimate is cold
  // so admission lets it through at rung 0, and the deadline interrupts the
  // solve mid-flight.
  core::Config longrun = f.config;
  longrun.solver = core::SolverKind::SIRT;
  longrun.iterations = 50'000'000;
  const auto r = server.wait(
      server.submit(f.geom, longrun, f.sino, {.deadline_seconds = 0.05}));
  EXPECT_EQ(r.status, serve::RequestStatus::Degraded) << r.error;
  EXPECT_TRUE(r.salvaged);
  EXPECT_TRUE(r.solve.cancelled);
  EXPECT_GE(r.solve.iterations, 1);
  EXPECT_LT(r.solve.iterations, 50'000'000);
  EXPECT_FALSE(r.image.empty()) << "the best-so-far iterate is the payload";
  const auto m = server.snapshot();
  EXPECT_EQ(m.degraded, 1);
  EXPECT_EQ(m.salvaged, 1);
}

TEST(Chaos, LadderAdmissionWalksDownRungs) {
  serve::RequestScheduler scheduler(
      {.queue_capacity = 8,
       .degrade = {.enabled = true, .rungs = serve::default_ladder()}});
  scheduler.observe_service_seconds(1.0);  // full-quality estimate: 1 s

  const auto admit_with_deadline = [&](double deadline_s, int requested = 0) {
    auto s = std::make_shared<serve::RequestState>();
    s->options.deadline_seconds = deadline_s;
    s->options.rung = requested;
    scheduler.admit(s);
    return s;
  };

  // Plenty of budget: full quality.
  EXPECT_EQ(admit_with_deadline(2.0)->rung, 0);
  // Between full (1.0) and rung 1 (0.5): degrade one step.
  const auto one = admit_with_deadline(0.6);
  EXPECT_EQ(one->rung, 1);
  EXPECT_TRUE(one->degraded_admission);
  // Between rung 1 (0.5) and rung 2 (0.25): degrade two steps.
  EXPECT_EQ(admit_with_deadline(0.4)->rung, 2);
  // Explicitly requested rung 1 that is still infeasible walks further down
  // (never up).
  EXPECT_EQ(admit_with_deadline(0.3, 1)->rung, 2);
  EXPECT_EQ(scheduler.degraded_admissions(), 3);

  // Below even the cheapest rung: typed rejection naming it.
  try {
    (void)admit_with_deadline(0.1);
    FAIL() << "expected DeadlineInfeasibleError";
  } catch (const serve::DeadlineInfeasibleError& e) {
    EXPECT_NE(std::string(e.what()).find("cheapest rung"), std::string::npos)
        << e.what();
  }

  // A rung request without the ladder enabled is a caller bug.
  serve::RequestScheduler no_ladder({.queue_capacity = 2});
  auto s = std::make_shared<serve::RequestState>();
  s->options.rung = 1;
  EXPECT_THROW(no_ladder.admit(s), InvalidArgument);

  // Malformed ladders are rejected at construction.
  serve::DegradeRung bad;
  bad.iteration_fraction = 0.0;
  EXPECT_THROW(serve::Server({.degrade = {.enabled = true, .rungs = {bad}}}),
               InvalidArgument);
}

// --- Retry / backoff --------------------------------------------------------

TEST(Chaos, RetryRecoversTransientFaultsAndKeepsPermanentOnes) {
  const auto f = make_fixture();
  // First attempt of every request throws TransientError; the retry must
  // recover it. Request 5 is permanently broken on every attempt.
  serve::ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.retry = {.max_attempts = 3, .backoff_ms = 1.0};
  options.fault_hook = [](std::int64_t id, int attempt) {
    if (id == 5) throw IoError("permanently broken");
    if (attempt == 1) throw TransientError("first attempt always fails");
  };
  serve::Server server(options);

  std::vector<std::int64_t> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(server.submit(f.geom, f.config, f.sino));
  for (const auto id : ids) {
    const auto r = server.wait(id);
    if (id == 5) {
      EXPECT_EQ(r.status, serve::RequestStatus::Failed);
      EXPECT_NE(r.error.find("permanently broken"), std::string::npos);
      EXPECT_EQ(r.attempts, 1) << "permanent faults must not be retried";
    } else {
      EXPECT_EQ(r.status, serve::RequestStatus::Ok) << r.error;
      EXPECT_EQ(r.attempts, 2);
      EXPECT_GT(r.backoff_seconds, 0.0);
    }
  }
  const auto m = server.snapshot();
  EXPECT_EQ(m.retries, 7);
  EXPECT_EQ(m.retry_exhausted, 0);
  EXPECT_EQ(m.retry_backoff.count(), 7);
}

TEST(Chaos, RetryExhaustionFailsWithTypedMessage) {
  const auto f = make_fixture();
  serve::ServerOptions options;
  options.workers = 1;
  options.retry = {.max_attempts = 2, .backoff_ms = 1.0};
  options.fault_hook = [](std::int64_t, int) {
    throw TransientError("injected transient fault");
  };
  serve::Server server(options);
  const auto r = server.wait(server.submit(f.geom, f.config, f.sino));
  EXPECT_EQ(r.status, serve::RequestStatus::Failed);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.error.find("failed after 2 attempts"), std::string::npos)
      << r.error;
  EXPECT_EQ(server.snapshot().retry_exhausted, 1);
}

TEST(Chaos, RetryBackoffIsChargedAgainstTheDeadline) {
  const auto f = make_fixture();
  serve::ServerOptions options;
  options.workers = 1;
  // Backoff far beyond the deadline: the worker must abandon instead of
  // sleeping past it.
  options.retry = {.max_attempts = 10, .backoff_ms = 60'000.0};
  options.fault_hook = [](std::int64_t, int) {
    throw TransientError("flaky");
  };
  serve::Server server(options);
  const auto r = server.wait(
      server.submit(f.geom, f.config, f.sino, {.deadline_seconds = 5.0}));
  EXPECT_EQ(r.status, serve::RequestStatus::Failed);
  EXPECT_NE(r.error.find("retry abandoned"), std::string::npos) << r.error;
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.backoff_seconds, 0.0) << "no sleep may be spent";
  EXPECT_EQ(server.snapshot().retry_abandoned, 1);
}

TEST(Chaos, RetryJitterIsDeterministicAndBounded) {
  const serve::RetryPolicy a({.max_attempts = 5, .backoff_ms = 10.0,
                              .multiplier = 2.0, .jitter_fraction = 0.5,
                              .seed = 123});
  const serve::RetryPolicy b({.max_attempts = 5, .backoff_ms = 10.0,
                              .multiplier = 2.0, .jitter_fraction = 0.5,
                              .seed = 123});
  for (std::int64_t id = 0; id < 4; ++id) {
    for (int attempt = 1; attempt <= 4; ++attempt) {
      const double base = 10e-3 * std::pow(2.0, attempt - 1);
      const double d = a.delay_seconds(id, attempt);
      EXPECT_EQ(d, b.delay_seconds(id, attempt))
          << "same (seed, id, attempt) must draw the same jitter";
      EXPECT_GE(d, base);
      EXPECT_LE(d, base * 1.5);
    }
  }
  // Different seed, different draws (overwhelmingly likely across 16 cells).
  const serve::RetryPolicy c({.max_attempts = 5, .backoff_ms = 10.0,
                              .multiplier = 2.0, .jitter_fraction = 0.5,
                              .seed = 124});
  int diffs = 0;
  for (std::int64_t id = 0; id < 4; ++id)
    for (int attempt = 1; attempt <= 4; ++attempt)
      if (a.delay_seconds(id, attempt) != c.delay_seconds(id, attempt))
        ++diffs;
  EXPECT_GT(diffs, 0);
}

// --- Watchdog ---------------------------------------------------------------

TEST(Chaos, WatchdogCancelsStalledWorkerAndServerSurvives) {
  const auto f = make_fixture();
  serve::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.watchdog_ms = 50.0;
  // Request 0 wedges for far longer than the stall threshold; everything
  // else runs clean.
  options.fault_hook = [](std::int64_t id, int) {
    if (id == 0) resil::FaultInjector::inject_delay(300.0);
  };
  serve::Server server(options);

  const auto stalled = server.submit(f.geom, f.config, f.sino);
  const auto r = server.wait(stalled);
  EXPECT_EQ(r.status, serve::RequestStatus::Failed);
  EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
  EXPECT_EQ(server.snapshot().watchdog_cancelled, 1);

  // The server keeps serving after a watchdog kill.
  const auto healthy = server.wait(server.submit(f.geom, f.config, f.sino));
  EXPECT_EQ(healthy.status, serve::RequestStatus::Ok) << healthy.error;
}

// --- Circuit breaker over the disk-cache tier -------------------------------

TEST(Chaos, BreakerOpensBypassesDiskTierAndRecloses) {
  const TempDir tmp("memxct_chaos_breaker");
  const auto f = make_fixture();
  resil::FaultInjector injector(31);
  std::atomic<bool> corrupt{false};
  const auto corrupt_cache_files = [&] {
    for (const auto& entry : fs::directory_iterator(tmp.path))
      injector.flip_byte_at(entry.path().string(), 8);
  };

  // byte_budget 1: nothing is retained in memory, so every acquire builds
  // and consults the disk tier — the breaker sees every tier outcome.
  serve::OperatorRegistry registry(
      {.byte_budget = 1,
       .disk_cache_dir = tmp.path.string(),
       .breaker = {.failure_threshold = 2, .cooldown_seconds = 0.05},
       .pre_build_hook = [&](const std::string&) {
         if (corrupt.load()) corrupt_cache_files();
       }});

  // Build 1: cold trace, cache written, tier success.
  (void)registry.acquire(f.geom, f.config);
  EXPECT_EQ(registry.breaker().state(), serve::CircuitBreaker::State::Closed);

  // Builds 2 and 3 load a freshly corrupted cache each time: two
  // consecutive tier failures trip the breaker.
  corrupt.store(true);
  (void)registry.acquire(f.geom, f.config);
  EXPECT_EQ(registry.breaker().state(), serve::CircuitBreaker::State::Closed);
  (void)registry.acquire(f.geom, f.config);
  EXPECT_EQ(registry.breaker().state(), serve::CircuitBreaker::State::Open);
  EXPECT_EQ(registry.stats().cache_corrupt_loads, 2);
  EXPECT_EQ(registry.stats().breaker_opens, 1);

  // Build 4: breaker open — the disk tier is bypassed entirely (straight to
  // re-trace, no doomed load-and-verify), and still serves correctly. The
  // corruption stops here so build 3's rewritten cache file stays valid for
  // the probe below.
  corrupt.store(false);
  const auto bypassed = registry.acquire(f.geom, f.config);
  EXPECT_FALSE(bypassed.disk_hit);
  ASSERT_NE(bypassed.recon, nullptr);
  EXPECT_EQ(registry.stats().breaker_bypassed_builds, 1);
  EXPECT_EQ(registry.stats().cache_corrupt_loads, 2)
      << "an open breaker must not rack up further tier failures";

  // After the cooldown, with the corruption gone (build 3 rewrote a valid
  // cache file), the half-open probe succeeds and the breaker recloses.
  corrupt.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const auto probe = registry.acquire(f.geom, f.config);
  EXPECT_TRUE(probe.disk_hit) << "the probe build goes through the tier";
  EXPECT_EQ(registry.breaker().state(), serve::CircuitBreaker::State::Closed);
  EXPECT_EQ(registry.stats().breaker_probes, 1);

  // And the tier stays healthy afterwards.
  EXPECT_TRUE(registry.acquire(f.geom, f.config).disk_hit);
}

TEST(Chaos, BreakerStateMachineUnit) {
  serve::CircuitBreaker breaker({.failure_threshold = 2,
                                 .cooldown_seconds = 0.02});
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_failure();
  EXPECT_TRUE(breaker.allow_request()) << "one failure below threshold";
  breaker.record_success();
  breaker.record_failure();
  EXPECT_TRUE(breaker.allow_request())
      << "success resets the consecutive count";
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow_request()) << "cooldown not elapsed";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow_request()) << "half-open probe admitted";
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(breaker.allow_request()) << "one probe in flight at a time";
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::Open)
      << "failed probe reopens with a fresh cooldown";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), serve::CircuitBreaker::State::Closed);
  const auto s = breaker.stats();
  EXPECT_EQ(s.opens, 2);
  EXPECT_EQ(s.probes, 2);
}

// --- Cancellation corners ---------------------------------------------------

TEST(Chaos, CancelMidSolveLeavesCheckpointAbsentOrValid) {
  const TempDir tmp("memxct_chaos_checkpoint");
  auto f = make_fixture();
  f.config.iterations = 1'000'000;
  f.config.checkpoint_path = (tmp.path / "cp.bin").string();
  f.config.checkpoint_interval = 1;  // snapshot every iteration

  const core::Reconstructor recon(f.geom, f.config);
  solve::CancelToken token;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.request_cancel();
  });
  const auto res = core::reconstruct_slice(
      recon.op(), f.geom, f.config, recon.sinogram_ordering(),
      recon.tomogram_ordering(), f.sino, nullptr, &token);
  killer.join();
  ASSERT_TRUE(res.solve.cancelled);

  // The checked atomic write protocol (temp file + rename) means a cancel —
  // however it lands — can never expose a torn checkpoint: the file is
  // either absent or fully valid, and no temp litter remains.
  if (fs::exists(f.config.checkpoint_path)) {
    EXPECT_NO_THROW((void)resil::load_checkpoint(f.config.checkpoint_path));
  }
  for (const auto& entry : fs::directory_iterator(tmp.path))
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "stray temp file: " << entry.path();
}

TEST(Chaos, FailedSingleFlightBuildGivesTypedErrorToEveryWaiter) {
  const auto f = make_fixture();
  serve::OperatorRegistry registry(
      {.pre_build_hook = [](const std::string&) {
        throw TransientError("build always fails");
      }});
  constexpr int kThreads = 6;
  std::atomic<int> typed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        (void)registry.acquire(f.geom, f.config);
      } catch (const TransientError&) {
        typed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();  // completing at all proves no hang
  EXPECT_EQ(typed.load(), kThreads)
      << "every waiter must surface the typed build error";
}

TEST(Chaos, PreCancelledTokenStopsEverySolverAtIterationZero) {
  auto f = make_fixture();
  solve::CancelToken token;
  token.request_cancel();
  for (const auto solver :
       {core::SolverKind::CGLS, core::SolverKind::SIRT,
        core::SolverKind::GradientDescent}) {
    core::Config config = f.config;
    config.solver = solver;
    const core::Reconstructor recon(f.geom, config);
    const auto res = core::reconstruct_slice(
        recon.op(), f.geom, config, recon.sinogram_ordering(),
        recon.tomogram_ordering(), f.sino, nullptr, &token);
    EXPECT_TRUE(res.solve.cancelled) << to_string(solver);
    EXPECT_EQ(res.solve.iterations, 0) << to_string(solver);
  }
}

TEST(Chaos, QueueFullBurstLosesNoRequest) {
  auto f = make_fixture();
  serve::Server server({.workers = 1, .queue_capacity = 2});
  // Occupy the worker so the burst piles onto the bounded queue.
  core::Config blocker = f.config;
  blocker.solver = core::SolverKind::SIRT;
  blocker.iterations = 3000;
  std::vector<std::int64_t> admitted;
  admitted.push_back(server.submit(f.geom, blocker, f.sino));
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      admitted.push_back(server.submit(f.geom, f.config, f.sino));
    } catch (const serve::QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "the bounded queue must push back";
  for (const auto id : admitted) {
    const auto r = server.wait(id);
    EXPECT_TRUE(is_terminal(r.status));
    EXPECT_EQ(r.status, serve::RequestStatus::Ok) << r.error;
  }
  EXPECT_EQ(static_cast<int>(admitted.size()) + rejected, 11)
      << "every request is either admitted-and-finished or typed-rejected";
}

}  // namespace
