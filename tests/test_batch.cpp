// BatchReconstructor: bitwise parity with the single-slice path, worker
// invariance, wave formation at submit, bounded-queue backpressure,
// per-slice fault isolation, and report accounting.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "batch/batch.hpp"
#include "common/rng.hpp"
#include "core/reconstructor.hpp"
#include "phantom/phantom.hpp"

namespace {

using namespace memxct;

struct Fixture {
  geometry::Geometry g;
  core::Config config;
  std::vector<AlignedVector<real>> slices;
};

// A small phantom geometry with S slightly different sinograms (scaled
// copies, so every slice has a distinct exact solution).
Fixture make_fixture(int num_slices, core::Config config = {}) {
  Fixture f;
  f.g = geometry::make_geometry(24, 16);
  config.iterations = 6;
  f.config = config;
  const auto image = phantom::shepp_logan(16);
  const auto base = phantom::forward_project(f.g, image);
  for (int s = 0; s < num_slices; ++s) {
    AlignedVector<real> sino(base.begin(), base.end());
    const real scale = real{1} + real(0.05) * static_cast<real>(s);
    for (auto& v : sino) v *= scale;
    f.slices.push_back(std::move(sino));
  }
  return f;
}

std::vector<batch::SliceResult> run_batch(const core::Reconstructor& recon,
                                          const Fixture& f,
                                          batch::BatchOptions opt) {
  batch::BatchReconstructor engine(recon, opt);
  for (const auto& sino : f.slices) engine.submit(sino);
  return engine.wait_all();
}

TEST(Batch, MatchesSingleSliceReconstructorBitwise) {
  const auto f = make_fixture(4);
  const core::Reconstructor recon(f.g, f.config);
  const auto results = run_batch(recon, f, {.workers = 2});
  ASSERT_EQ(results.size(), f.slices.size());
  for (std::size_t s = 0; s < f.slices.size(); ++s) {
    EXPECT_EQ(results[s].slice, static_cast<int>(s));
    ASSERT_EQ(results[s].status, batch::SliceStatus::Ok);
    const auto single = recon.reconstruct(f.slices[s]);
    ASSERT_EQ(single.image.size(), results[s].image.size());
    EXPECT_EQ(0, std::memcmp(single.image.data(), results[s].image.data(),
                             single.image.size() * sizeof(real)))
        << "slice " << s << " differs from the single-slice path";
    EXPECT_EQ(single.solve.iterations, results[s].solve.iterations);
  }
}

TEST(Batch, WorkerCountDoesNotChangeResults) {
  const auto f = make_fixture(6);
  const core::Reconstructor recon(f.g, f.config);
  const auto ref = run_batch(recon, f, {.workers = 1});
  for (const int workers : {2, 4}) {
    const auto got = run_batch(recon, f, {.workers = workers});
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t s = 0; s < ref.size(); ++s) {
      ASSERT_EQ(got[s].status, batch::SliceStatus::Ok);
      ASSERT_EQ(ref[s].image.size(), got[s].image.size());
      EXPECT_EQ(0, std::memcmp(ref[s].image.data(), got[s].image.data(),
                               ref[s].image.size() * sizeof(real)))
          << "slice " << s << " differs between K=1 and K=" << workers;
    }
  }
}

TEST(Batch, PerSliceFaultIsolation) {
  core::Config config;
  config.ingest.policy = resil::IngestPolicy::Reject;
  auto f = make_fixture(5, config);
  // Poison slice 2 with a NaN: under Reject it must fail alone.
  f.slices[2][7] = std::nanf("");
  const core::Reconstructor recon(f.g, f.config);
  const auto results = run_batch(recon, f, {.workers = 2});
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t s = 0; s < results.size(); ++s) {
    if (s == 2) {
      EXPECT_EQ(results[s].status, batch::SliceStatus::IngestRejected);
      EXPECT_FALSE(results[s].error.empty());
      EXPECT_TRUE(results[s].image.empty());
    } else {
      EXPECT_EQ(results[s].status, batch::SliceStatus::Ok)
          << "healthy slice " << s << " was poisoned by slice 2";
      EXPECT_FALSE(results[s].image.empty());
    }
  }
}

TEST(Batch, ReportCountsAndThroughput) {
  const auto f = make_fixture(6);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(recon, {.workers = 2, .queue_capacity = 3});
  for (const auto& sino : f.slices) engine.submit(sino);
  const auto results = engine.wait_all();
  ASSERT_EQ(results.size(), 6u);
  const auto& rep = engine.report();
  EXPECT_EQ(rep.slices, 6);
  EXPECT_EQ(rep.ok, 6);
  EXPECT_EQ(rep.failed + rep.diverged + rep.ingest_rejected, 0);
  EXPECT_EQ(rep.workers, 2);
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_GT(rep.slices_per_second, 0.0);
  EXPECT_GT(rep.slice_seconds_sum, 0.0);
  EXPECT_GE(rep.solve_seconds_sum, 0.0);
  EXPECT_GT(rep.queue_high_water, 0);
  EXPECT_LE(rep.queue_high_water, 3);  // bounded queue never exceeded
  EXPECT_GE(rep.preprocess_seconds, 0.0);
  EXPECT_NEAR(rep.per_slice_wall(), rep.wall_seconds / 6.0, 1e-12);
  EXPECT_FALSE(rep.summary().empty());
}

TEST(Batch, BackpressureKeepsQueueBounded) {
  const auto f = make_fixture(8);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(recon, {.workers = 1, .queue_capacity = 1});
  for (const auto& sino : f.slices) engine.submit(sino);  // blocks, not grows
  const auto results = engine.wait_all();
  ASSERT_EQ(results.size(), 8u);
  EXPECT_LE(engine.report().queue_high_water, 1);
  for (const auto& r : results) EXPECT_EQ(r.status, batch::SliceStatus::Ok);
}

TEST(Batch, KeepImagesFalseDropsPixelsButKeepsStats) {
  const auto f = make_fixture(3);
  const core::Reconstructor recon(f.g, f.config);
  const auto results =
      run_batch(recon, f, {.workers = 2, .keep_images = false});
  for (const auto& r : results) {
    EXPECT_EQ(r.status, batch::SliceStatus::Ok);
    EXPECT_TRUE(r.image.empty());
    EXPECT_EQ(r.solve.iterations, 6);
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(Batch, EngineIsReusableAcrossRounds) {
  const auto f = make_fixture(4);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(recon, {.workers = 2});
  for (const auto& sino : f.slices) engine.submit(sino);
  const auto first = engine.wait_all();
  ASSERT_EQ(first.size(), 4u);
  // Second round restarts tickets at 0 and produces a fresh report.
  engine.submit(f.slices[0]);
  engine.submit(f.slices[1]);
  const auto second = engine.wait_all();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].slice, 0);
  EXPECT_EQ(second[1].slice, 1);
  EXPECT_EQ(engine.report().slices, 2);
  EXPECT_EQ(0, std::memcmp(first[0].image.data(), second[0].image.data(),
                           first[0].image.size() * sizeof(real)));
}

bool same_images(const std::vector<batch::SliceResult>& a,
                 const std::vector<batch::SliceResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s)
    if (a[s].image.size() != b[s].image.size() ||
        std::memcmp(a[s].image.data(), b[s].image.data(),
                    a[s].image.size() * sizeof(real)) != 0)
      return false;
  return true;
}

// submit() forms the waves, so a 32-slice round at width 8 is exactly four
// full waves whatever the workers are doing, and each lane's image is the
// width-1 image.
TEST(Batch, SubmitFormsFullWaves) {
  const auto f = make_fixture(32);
  const core::Reconstructor recon(f.g, f.config);
  const auto ref = run_batch(recon, f, {.workers = 4});
  batch::BatchReconstructor engine(recon, {.workers = 4, .block_width = 8});
  for (const auto& sino : f.slices) engine.submit(sino);
  const auto got = engine.wait_all();
  EXPECT_EQ(engine.report().waves, 4);
  EXPECT_EQ(engine.report().avg_wave_width, 8.0);
  for (const auto& r : got) EXPECT_EQ(r.status, batch::SliceStatus::Ok);
  EXPECT_TRUE(same_images(ref, got));
}

TEST(Batch, WaitAllQueuesTheShortLastWave) {
  const auto f = make_fixture(3);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(recon, {.workers = 2, .block_width = 8});
  for (const auto& sino : f.slices) engine.submit(sino);
  const auto got = engine.wait_all();  // must not wait for 5 more slices
  ASSERT_EQ(got.size(), 3u);
  for (const auto& r : got) EXPECT_EQ(r.status, batch::SliceStatus::Ok);
  EXPECT_EQ(engine.report().waves, 1);
  EXPECT_EQ(engine.report().avg_wave_width, 3.0);
  EXPECT_TRUE(same_images(run_batch(recon, f, {.workers = 1}), got));
}

// The destructor queues the forming wave and drains the queue: no hang,
// and (under the sanitizer build) no leaked slice.
TEST(Batch, DestroyWithoutWaitAllDrains) {
  const auto f = make_fixture(11);  // one full wave plus three slices
  const core::Reconstructor recon(f.g, f.config);
  for (const int width : {1, 8}) {
    batch::BatchReconstructor engine(recon,
                                     {.workers = 2, .block_width = width});
    for (const auto& sino : f.slices) engine.submit(sino);
  }
}

// queue_capacity counts slices and rounds up to whole waves: 3 slices at
// width 2 is a two-wave queue, which never holds more than 4 slices.
TEST(Batch, QueueCapacityRoundsUpToWholeWaves) {
  const auto f = make_fixture(10);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(
      recon, {.workers = 1, .queue_capacity = 3, .block_width = 2});
  EXPECT_EQ(engine.queue_capacity(), 4);
  for (const auto& sino : f.slices) engine.submit(sino);
  const auto got = engine.wait_all();
  ASSERT_EQ(got.size(), 10u);
  for (const auto& r : got) EXPECT_EQ(r.status, batch::SliceStatus::Ok);
  EXPECT_EQ(engine.report().waves, 5);
  EXPECT_GT(engine.report().queue_high_water, 0);
  EXPECT_LE(engine.report().queue_high_water, 4);
}

// A wave's block solve stops each lane on the configured early-stop
// tolerance, exactly as the single-slice solve does.
TEST(Batch, WaveHonoursEarlyStopTolerance) {
  core::Config config;
  config.early_stop = true;
  config.early_stop_tol = 0.3;
  auto f = make_fixture(4, config);
  f.config.iterations = 40;
  const core::Reconstructor recon(f.g, f.config);
  const auto ref = run_batch(recon, f, {.workers = 1});
  const auto got = run_batch(recon, f, {.workers = 1, .block_width = 4});
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    EXPECT_LT(ref[s].solve.iterations, 40) << "slice " << s;
    EXPECT_EQ(ref[s].solve.iterations, got[s].solve.iterations)
        << "slice " << s;
  }
  EXPECT_TRUE(same_images(ref, got));
}

TEST(Batch, RejectsWrongSizeSinogramAtSubmit) {
  const auto f = make_fixture(1);
  const core::Reconstructor recon(f.g, f.config);
  batch::BatchReconstructor engine(recon, {.workers = 1});
  AlignedVector<real> wrong(7, real{0});
  EXPECT_THROW((void)engine.submit(wrong), InvalidArgument);
  engine.submit(f.slices[0]);
  const auto results = engine.wait_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, batch::SliceStatus::Ok);
}

TEST(Batch, RejectsNonPositiveWorkerCount) {
  const auto f = make_fixture(1);
  const core::Reconstructor recon(f.g, f.config);
  EXPECT_THROW(batch::BatchReconstructor(recon, {.workers = 0}),
               InvalidArgument);
}

// Full-pipeline determinism under OpenMP thread-count changes: the same
// sinogram reconstructed with 1, 2, and max threads must be bitwise
// identical (static plans + deterministic reductions end to end).
TEST(Batch, ReconstructionIsBitwiseThreadCountInvariant) {
  const int saved = omp_get_max_threads();
  const auto f = make_fixture(1);
  const core::Reconstructor recon(f.g, f.config);
  omp_set_num_threads(1);
  const auto ref = recon.reconstruct(f.slices[0]);
  for (const int threads : {2, saved}) {
    omp_set_num_threads(threads);
    const auto got = recon.reconstruct(f.slices[0]);
    ASSERT_EQ(ref.image.size(), got.image.size());
    EXPECT_EQ(0, std::memcmp(ref.image.data(), got.image.data(),
                             ref.image.size() * sizeof(real)))
        << "reconstruction differs at " << threads << " threads";
  }
  omp_set_num_threads(saved);
}

}  // namespace
