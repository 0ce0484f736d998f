// serve::Server + OperatorRegistry + RequestScheduler: LRU semantics,
// single-flight dedup, hard byte budget, disk-tier fallback, bitwise parity
// with the single-slice Reconstructor, typed overload rejection, deadlines,
// and cancellation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/opkey.hpp"
#include "core/reconstructor.hpp"
#include "phantom/phantom.hpp"
#include "serve/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace memxct;

struct ServeFixture {
  std::vector<geometry::Geometry> geoms;
  std::vector<AlignedVector<real>> sinos;
  core::Config config;
};

// Small phantom geometries that key distinct operators (different angle
// counts over the same 16x16 tomogram), one exact sinogram each.
ServeFixture make_fixture(int num_geometries, core::Config config = {}) {
  ServeFixture f;
  config.iterations = 6;
  f.config = config;
  const auto image = phantom::shepp_logan(16);
  for (int g = 0; g < num_geometries; ++g) {
    const auto geom =
        geometry::make_geometry(static_cast<idx_t>(24 + 8 * g), 16);
    f.sinos.push_back(phantom::forward_project(geom, image));
    f.geoms.push_back(geom);
  }
  return f;
}

// Per-operator footprint as the registry will charge it.
std::int64_t op_bytes(const geometry::Geometry& g,
                      const core::Config& config) {
  const core::Reconstructor recon(g, config);
  return recon.serial_op()->bytes();
}

// A scratch directory that cleans up after itself.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

// --- OperatorRegistry -------------------------------------------------------

TEST(Registry, HitMissAndLruEvictionOrder) {
  const auto f = make_fixture(3);
  const std::int64_t b1 = op_bytes(f.geoms[1], f.config);
  const std::int64_t b2 = op_bytes(f.geoms[2], f.config);
  const auto key = [&](int g) {
    return core::operator_key(f.geoms[static_cast<std::size_t>(g)], f.config)
        .text;
  };

  // Budget fits any two operators together (operator bytes grow with the
  // angle count, so b1 + b2 is the largest pair); adding a third must evict
  // exactly the least recently used.
  serve::OperatorRegistry registry({.byte_budget = b1 + b2});
  const auto l0 = registry.acquire(f.geoms[0], f.config);
  const auto l1 = registry.acquire(f.geoms[1], f.config);
  EXPECT_FALSE(l0.hit);
  EXPECT_FALSE(l1.hit);
  EXPECT_GT(l0.build_seconds, 0.0);
  EXPECT_EQ(registry.resident_keys(),
            (std::vector<std::string>{key(0), key(1)}));

  // Touching 0 makes 1 the LRU victim.
  const auto l0again = registry.acquire(f.geoms[0], f.config);
  EXPECT_TRUE(l0again.hit);
  EXPECT_EQ(l0again.build_seconds, 0.0) << "a hit pays zero setup";
  EXPECT_EQ(l0again.recon.get(), l0.recon.get())
      << "hit must share the same bundle";
  EXPECT_EQ(registry.resident_keys(),
            (std::vector<std::string>{key(1), key(0)}));

  (void)registry.acquire(f.geoms[2], f.config);
  EXPECT_EQ(registry.resident_keys(),
            (std::vector<std::string>{key(0), key(2)}))
      << "operator 1 (LRU) must be the eviction victim";

  const auto s = registry.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.builds, 3);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.evicted_bytes, b1);
  EXPECT_EQ(s.resident_operators, 2);
}

TEST(Registry, SolverConfigDoesNotFragmentTheKey) {
  const auto f = make_fixture(1);
  serve::OperatorRegistry registry(serve::RegistryOptions{});
  (void)registry.acquire(f.geoms[0], f.config);
  core::Config other = f.config;
  other.solver = core::SolverKind::SIRT;
  other.iterations = 99;
  const auto lease = registry.acquire(f.geoms[0], other);
  EXPECT_TRUE(lease.hit)
      << "requests differing only in solver settings share one operator";
}

TEST(Registry, SingleFlightDedupUnderContention) {
  const auto f = make_fixture(1);
  serve::OperatorRegistry registry(serve::RegistryOptions{});
  constexpr int kThreads = 8;
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto lease = registry.acquire(f.geoms[0], f.config);
      if (lease.hit) hits.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  const auto s = registry.stats();
  EXPECT_EQ(s.builds, 1) << "concurrent misses must collapse to one build";
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
}

TEST(Registry, ByteBudgetIsNeverExceeded) {
  const auto f = make_fixture(3);
  std::int64_t largest = 0;
  for (const auto& g : f.geoms)
    largest = std::max(largest, op_bytes(g, f.config));

  // Budget holds exactly one (the largest) operator: cycling through three
  // geometries keeps evicting, and the resident total must never pass it.
  serve::OperatorRegistry registry({.byte_budget = largest});
  for (int round = 0; round < 2; ++round) {
    for (const auto& g : f.geoms) {
      (void)registry.acquire(g, f.config);
      const auto s = registry.stats();
      EXPECT_LE(s.resident_bytes, largest);
      EXPECT_LE(s.peak_resident_bytes, largest);
      EXPECT_LE(s.resident_operators, 1);
    }
  }
  EXPECT_EQ(registry.stats().uncacheable, 0);
}

TEST(Registry, OversizedOperatorIsServedButNotRetained) {
  const auto f = make_fixture(1);
  serve::OperatorRegistry registry({.byte_budget = 1});  // nothing fits
  const auto lease = registry.acquire(f.geoms[0], f.config);
  ASSERT_NE(lease.recon, nullptr) << "pass-through still serves the request";
  const auto s = registry.stats();
  EXPECT_EQ(s.uncacheable, 1);
  EXPECT_EQ(s.resident_operators, 0);
  EXPECT_EQ(s.resident_bytes, 0);
  EXPECT_TRUE(registry.resident_keys().empty());
  // The next acquire of the same key misses again (never cached).
  EXPECT_FALSE(registry.acquire(f.geoms[0], f.config).hit);
}

TEST(Registry, EvictedOperatorRebuildsFromDiskTier) {
  const TempDir tmp("memxct_serve_disk_tier");
  const auto f = make_fixture(2);
  const std::int64_t b0 = op_bytes(f.geoms[0], f.config);
  const std::int64_t b1 = op_bytes(f.geoms[1], f.config);

  // Budget holds one operator; acquiring the other evicts it from memory,
  // but its validated trace stays on disk.
  serve::OperatorRegistry registry(
      {.byte_budget = std::max(b0, b1),
       .disk_cache_dir = tmp.path.string()});
  const auto cold = registry.acquire(f.geoms[0], f.config);
  EXPECT_FALSE(cold.disk_hit) << "first build traces from scratch";
  (void)registry.acquire(f.geoms[1], f.config);  // evicts operator 0

  const auto rebuilt = registry.acquire(f.geoms[0], f.config);
  EXPECT_FALSE(rebuilt.hit) << "operator 0 was evicted from memory";
  EXPECT_TRUE(rebuilt.disk_hit)
      << "rebuild must load the traced matrix from the disk tier";
  const auto s = registry.stats();
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.disk_tier_hits, 1);
}

// --- Server -----------------------------------------------------------------

TEST(Serve, ServedImagesMatchReconstructorBitwise) {
  const auto f = make_fixture(2);
  // Ground truth: the plain single-slice path, per geometry.
  std::vector<std::vector<real>> expected;
  for (std::size_t g = 0; g < f.geoms.size(); ++g) {
    const core::Reconstructor recon(f.geoms[g], f.config);
    expected.push_back(recon.reconstruct(f.sinos[g]).image);
  }

  for (const int workers : {1, 2, 4}) {
    serve::Server server({.workers = workers, .queue_capacity = 16});
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 8; ++i) {
      const std::size_t g = static_cast<std::size_t>(i) % f.geoms.size();
      ids.push_back(server.submit(f.geoms[g], f.config, f.sinos[g]));
    }
    for (int i = 0; i < 8; ++i) {
      const std::size_t g = static_cast<std::size_t>(i) % f.geoms.size();
      const auto r = server.wait(ids[static_cast<std::size_t>(i)]);
      ASSERT_EQ(r.status, serve::RequestStatus::Ok)
          << "request " << i << " at " << workers << " workers: " << r.error;
      ASSERT_EQ(r.image.size(), expected[g].size());
      EXPECT_EQ(0, std::memcmp(r.image.data(), expected[g].data(),
                               expected[g].size() * sizeof(real)))
          << "request " << i << " at " << workers
          << " workers differs from Reconstructor::reconstruct";
      EXPECT_EQ(r.solve.iterations, 6);
    }
  }
}

TEST(Serve, RegistryAmortizesAcrossRequests) {
  const auto f = make_fixture(2);
  serve::Server server({.workers = 2, .queue_capacity = 12});
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    const std::size_t g = static_cast<std::size_t>(i) % 2;
    ids.push_back(server.submit(f.geoms[g], f.config, f.sinos[g]));
  }
  int hit_requests = 0;
  for (const auto id : ids) {
    const auto r = server.wait(id);
    ASSERT_EQ(r.status, serve::RequestStatus::Ok) << r.error;
    if (r.registry_hit) {
      ++hit_requests;
      EXPECT_EQ(r.setup_seconds, 0.0) << "registry hits skip preprocessing";
    }
  }
  EXPECT_GE(hit_requests, 10) << "only the two cold builds may miss";
  const auto m = server.snapshot();
  EXPECT_EQ(m.registry.builds, 2);
  EXPECT_GE(m.registry.hit_rate(), 10.0 / 12.0);
}

TEST(Serve, QueueFullRejectionIsTypedAndCounted) {
  serve::RequestScheduler scheduler({.queue_capacity = 1});
  auto request = [] {
    auto s = std::make_shared<serve::RequestState>();
    s->options.priority = serve::Priority::Bulk;
    return s;
  };
  scheduler.admit(request());
  EXPECT_THROW(scheduler.admit(request()), serve::QueueFullError);
  try {
    scheduler.admit(request());
  } catch (const serve::QueueFullError& e) {
    EXPECT_EQ(e.priority, serve::Priority::Bulk);
  }
  EXPECT_EQ(scheduler.rejected_queue_full(serve::Priority::Bulk), 2);
  EXPECT_EQ(scheduler.rejected_queue_full(serve::Priority::Normal), 0);
  // The admitted request still drains.
  scheduler.close();
  EXPECT_TRUE(scheduler.next().has_value());
  EXPECT_FALSE(scheduler.next().has_value());
}

TEST(Serve, InfeasibleDeadlineIsRejectedAtAdmission) {
  serve::RequestScheduler scheduler({.queue_capacity = 4});
  scheduler.observe_service_seconds(1.0);  // warmed estimate: 1 s per request
  auto s = std::make_shared<serve::RequestState>();
  s->options.deadline_seconds = 1e-6;
  try {
    scheduler.admit(s);
    FAIL() << "expected DeadlineInfeasibleError";
  } catch (const serve::DeadlineInfeasibleError& e) {
    EXPECT_DOUBLE_EQ(e.deadline_seconds, 1e-6);
    EXPECT_DOUBLE_EQ(e.estimated_seconds, 1.0);
  }
  EXPECT_EQ(scheduler.rejected_infeasible(serve::Priority::Normal), 1);
  // A generous deadline against the same estimate is admitted.
  auto ok = std::make_shared<serve::RequestState>();
  ok->options.deadline_seconds = 10.0;
  EXPECT_NO_THROW(scheduler.admit(ok));
}

TEST(Serve, ServerRejectsInfeasibleDeadlineAfterWarmup) {
  const auto f = make_fixture(1);
  serve::Server server({.workers = 1, .queue_capacity = 4});
  // Warm the service-time estimate with one completed request.
  const auto id = server.submit(f.geoms[0], f.config, f.sinos[0]);
  ASSERT_EQ(server.wait(id).status, serve::RequestStatus::Ok);
  ASSERT_GT(server.snapshot().estimated_service_seconds, 0.0);
  EXPECT_THROW((void)server.submit(f.geoms[0], f.config, f.sinos[0],
                                   {.deadline_seconds = 1e-9}),
               serve::DeadlineInfeasibleError);
}

TEST(Serve, DeadlineBurnedInQueueOrSolveIsExceededNotFailed) {
  auto f = make_fixture(1);
  serve::Server server({.workers = 1, .queue_capacity = 8});
  // Occupy the single worker so the deadline request waits in the queue
  // past its (tiny) budget.
  core::Config blocker = f.config;
  blocker.solver = core::SolverKind::SIRT;
  blocker.iterations = 2000;
  const auto blocker_id = server.submit(f.geoms[0], blocker, f.sinos[0]);
  const auto late_id = server.submit(f.geoms[0], f.config, f.sinos[0],
                                     {.deadline_seconds = 1e-6});
  EXPECT_EQ(server.wait(blocker_id).status, serve::RequestStatus::Ok);
  const auto late = server.wait(late_id);
  EXPECT_EQ(late.status, serve::RequestStatus::DeadlineExceeded);
  EXPECT_TRUE(late.image.empty());

  EXPECT_EQ(server.snapshot()
                .priority[static_cast<std::size_t>(serve::Priority::Normal)]
                .deadline_exceeded,
            1);

  // Mid-solve: a long fixed-iteration solve with a deadline it cannot make
  // stops cooperatively at an iteration boundary. A fresh server keeps the
  // feasibility estimate cold so the short deadline is admitted.
  serve::Server fresh({.workers = 1, .queue_capacity = 4});
  core::Config longrun = f.config;
  longrun.solver = core::SolverKind::SIRT;
  longrun.iterations = 50'000'000;
  const auto mid = fresh.wait(fresh.submit(f.geoms[0], longrun, f.sinos[0],
                                           {.deadline_seconds = 0.05}));
  EXPECT_EQ(mid.status, serve::RequestStatus::DeadlineExceeded);
  EXPECT_TRUE(mid.solve.cancelled);
  EXPECT_LT(mid.solve.iterations, 50'000'000);
  EXPECT_EQ(fresh.snapshot()
                .priority[static_cast<std::size_t>(serve::Priority::Normal)]
                .deadline_exceeded,
            1);
}

TEST(Serve, ExplicitCancelOfQueuedRequest) {
  auto f = make_fixture(1);
  serve::Server server({.workers = 1, .queue_capacity = 8});
  core::Config blocker = f.config;
  blocker.solver = core::SolverKind::SIRT;
  blocker.iterations = 2000;
  const auto blocker_id = server.submit(f.geoms[0], blocker, f.sinos[0]);
  const auto victim_id = server.submit(f.geoms[0], f.config, f.sinos[0]);
  EXPECT_TRUE(server.cancel(victim_id));
  EXPECT_FALSE(server.cancel(victim_id + 1000)) << "unknown id";
  EXPECT_EQ(server.wait(blocker_id).status, serve::RequestStatus::Ok);
  EXPECT_EQ(server.wait(victim_id).status, serve::RequestStatus::Cancelled);
  EXPECT_FALSE(server.cancel(victim_id)) << "terminal requests cannot cancel";
}

TEST(Serve, SubmitValidatesInput) {
  const auto f = make_fixture(1);
  serve::Server server({.workers = 1});
  AlignedVector<real> wrong(7, real{0});
  EXPECT_THROW((void)server.submit(f.geoms[0], f.config, wrong),
               InvalidArgument);
  core::Config distributed = f.config;
  distributed.num_shards = 4;
  distributed.solver = core::SolverKind::OsSirt;
  EXPECT_THROW((void)server.submit(f.geoms[0], distributed, f.sinos[0]),
               UnsupportedConfigError);
  EXPECT_THROW((void)server.submit(f.geoms[0], f.config, f.sinos[0],
                                   {.deadline_seconds = -1.0}),
               InvalidArgument);
  EXPECT_THROW(serve::Server({.workers = 0}), InvalidArgument);
}

TEST(Serve, WaitConsumesExactlyOnce) {
  const auto f = make_fixture(1);
  serve::Server server({.workers = 1});
  const auto id = server.submit(f.geoms[0], f.config, f.sinos[0]);
  EXPECT_EQ(server.wait(id).status, serve::RequestStatus::Ok);
  EXPECT_THROW((void)server.wait(id), InvalidArgument);
  EXPECT_THROW((void)server.wait(id + 7), InvalidArgument);
}

TEST(Serve, PerRequestFaultIsolation) {
  core::Config config;
  config.ingest.policy = resil::IngestPolicy::Reject;
  auto f = make_fixture(1, config);
  serve::Server server({.workers = 2, .queue_capacity = 8});
  AlignedVector<real> poisoned = f.sinos[0];
  poisoned[3] = std::numeric_limits<real>::quiet_NaN();
  const auto bad = server.submit(f.geoms[0], f.config, poisoned);
  const auto good = server.submit(f.geoms[0], f.config, f.sinos[0]);
  const auto bad_result = server.wait(bad);
  EXPECT_EQ(bad_result.status, serve::RequestStatus::IngestRejected);
  EXPECT_FALSE(bad_result.error.empty());
  const auto good_result = server.wait(good);
  EXPECT_EQ(good_result.status, serve::RequestStatus::Ok)
      << "healthy request poisoned by its neighbour";
  EXPECT_FALSE(good_result.image.empty());
}

TEST(Serve, MetricsAccountForEveryOutcome) {
  const auto f = make_fixture(2);
  serve::Server server({.workers = 2, .queue_capacity = 6});
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const std::size_t g = static_cast<std::size_t>(i) % 2;
    ids.push_back(server.submit(
        f.geoms[g], f.config, f.sinos[g],
        {.priority = static_cast<serve::Priority>(i % serve::kNumPriorities)}));
  }
  for (const auto id : ids)
    ASSERT_EQ(server.wait(id).status, serve::RequestStatus::Ok);
  const auto m = server.snapshot();
  EXPECT_EQ(m.submitted, 6);
  EXPECT_EQ(m.completed, 6);
  EXPECT_EQ(m.rejected(), 0);
  EXPECT_EQ(m.queue_depth, 0);
  EXPECT_LE(m.queue_high_water, 6);
  EXPECT_GT(m.solve_seconds_sum, 0.0);
  for (int p = 0; p < serve::kNumPriorities; ++p) {
    const auto& pm = m.priority[static_cast<std::size_t>(p)];
    EXPECT_EQ(pm.submitted, 2);
    EXPECT_EQ(pm.ok, 2);
    EXPECT_EQ(pm.latency.count(), 2);
    EXPECT_GT(pm.latency.max_seconds(), 0.0);
    EXPECT_GT(pm.latency.quantile(0.5), 0.0);
  }
  EXPECT_FALSE(m.summary().empty());
}

TEST(Serve, ShutdownDrainsAdmittedRequests) {
  const auto f = make_fixture(1);
  serve::Server server({.workers = 2, .queue_capacity = 8});
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(server.submit(f.geoms[0], f.config, f.sinos[0]));
  server.shutdown();
  EXPECT_THROW((void)server.submit(f.geoms[0], f.config, f.sinos[0]),
               InvalidArgument)
      << "a shut-down server admits nothing";
  for (const auto id : ids)
    EXPECT_EQ(server.wait(id).status, serve::RequestStatus::Ok)
        << "admitted requests must drain through shutdown";
}

}  // namespace
