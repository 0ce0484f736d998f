// Autotuner tests (src/tune): candidate enumeration/pruning, winner
// sanity, `.tune` persistence (bitwise round-trip, corruption fallback),
// Cached-mode determinism, the tuned-equals-explicit bitwise contract, and
// the registry's resolved-key behavior. Also the validate_config gate the
// tuner shares with the Reconstructor and serve admission.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/error.hpp"
#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/phantom.hpp"
#include "resil/checked_io.hpp"
#include "serve/registry.hpp"
#include "tune/tune.hpp"

namespace {

namespace fs = std::filesystem;
using namespace memxct;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

geometry::Geometry small_geometry() { return geometry::make_geometry(36, 24); }

sparse::CsrMatrix small_matrix(const core::Config& config) {
  const auto g = small_geometry();
  const hilbert::Ordering sino(g.sinogram_extent(), config.ordering,
                               config.tile_size);
  const hilbert::Ordering tomo(g.tomogram_extent(), config.ordering,
                               config.tile_size);
  return geometry::build_projection_matrix(g, sino, tomo);
}

tune::TuneOptions quick_options() {
  tune::TuneOptions options;
  options.quick = true;
  options.reps = 2;
  return options;
}

std::vector<char> file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// validate_config: the single source of truth shared by the Reconstructor,
// serve admission, and the tuner's candidate pruning.

TEST(ValidateConfig, DefaultConfigPasses) {
  EXPECT_NO_THROW(core::validate_config(core::Config{}));
}

TEST(ValidateConfig, ScalarRangeChecks) {
  core::Config config;
  config.num_shards = 0;
  EXPECT_THROW(core::validate_config(config), InvalidArgument);
  config.num_shards = -1;
  EXPECT_THROW(core::validate_config(config), InvalidArgument);
}

TEST(ValidateConfig, BufferRangeChecks) {
  // 16-bit slots bound buffsize to [1, 65536]; partitions need a row. An
  // out-of-range buffer is a caller error at admission, before any build.
  for (const sparse::BufferConfig bad :
       {sparse::BufferConfig{0, 4096}, sparse::BufferConfig{-3, 4096},
        sparse::BufferConfig{128, 0}, sparse::BufferConfig{128, 65537}}) {
    core::Config config;
    config.buffer = bad;
    EXPECT_THROW(core::validate_config(config), InvalidArgument)
        << bad.partsize << "/" << bad.buffsize;
    EXPECT_THROW(core::Reconstructor(geometry::make_geometry(8, 8), config),
                 InvalidArgument);
  }
  for (const sparse::BufferConfig good :
       {sparse::BufferConfig{1, 1}, sparse::BufferConfig{128, 65536}}) {
    core::Config config;
    config.buffer = good;
    EXPECT_NO_THROW(core::validate_config(config));
  }
}

TEST(ValidateConfig, PairwiseConflictsNameTheFlags) {
  // Ordered subsets need subset views: unsharded Baseline/Buffered only.
  for (const auto solver :
       {core::SolverKind::OsSirt, core::SolverKind::OsSart}) {
    core::Config config;
    config.solver = solver;
    config.num_shards = 2;
    try {
      core::validate_config(config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& e) {
      EXPECT_EQ(e.flag_a(), "--solver");
      EXPECT_EQ(e.flag_b(), "--shards");
    }
    for (const auto kernel :
         {core::KernelKind::EllBlock, core::KernelKind::Library}) {
      config.num_shards = 1;
      config.kernel = kernel;
      try {
        core::validate_config(config);
        FAIL() << "expected UnsupportedConfigError";
      } catch (const UnsupportedConfigError& e) {
        EXPECT_EQ(e.flag_a(), "--solver");
        EXPECT_EQ(e.flag_b(), "--kernel");
      }
    }
  }
  {
    core::Config config;
    config.kernel = core::KernelKind::EllBlock;
    config.precision = sparse::ValueStorage::Fp16;
    try {
      core::validate_config(config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& e) {
      EXPECT_EQ(e.flag_a(), "--kernel");
      EXPECT_EQ(e.flag_b(), "--precision");
    }
  }
  // Reduced precision is Buffered-only: Baseline has no 16-bit storage.
  for (const auto precision :
       {sparse::ValueStorage::Bf16, sparse::ValueStorage::Fp16}) {
    core::Config config;
    config.kernel = core::KernelKind::Baseline;
    config.precision = precision;
    try {
      core::validate_config(config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& e) {
      EXPECT_EQ(e.flag_a(), "--kernel");
      EXPECT_EQ(e.flag_b(), "--precision");
    }
  }
}

// ---------------------------------------------------------------------------
// Candidate enumeration.

TEST(TuneCandidates, BaseConfigIsFirstAndUnique) {
  core::Config base;
  const auto candidates = tune::enumerate_candidates(base);
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].kernel, base.kernel);
  EXPECT_EQ(candidates[0].schedule, base.schedule);
  EXPECT_EQ(candidates[0].buffer.partsize, base.buffer.partsize);
  EXPECT_EQ(candidates[0].buffer.buffsize, base.buffer.buffsize);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    for (std::size_t j = i + 1; j < candidates.size(); ++j) {
      const bool same_kernel = candidates[i].kernel == candidates[j].kernel &&
                               candidates[i].schedule == candidates[j].schedule;
      const bool same_buffer =
          candidates[i].buffer.partsize == candidates[j].buffer.partsize &&
          candidates[i].buffer.buffsize == candidates[j].buffer.buffsize;
      EXPECT_FALSE(same_kernel &&
                   (candidates[i].kernel != core::KernelKind::Buffered ||
                    same_buffer))
          << "duplicate candidate at " << i << " and " << j;
    }
}

TEST(TuneCandidates, ReducedPrecisionPrunesEllBlock) {
  core::Config base;
  base.precision = sparse::ValueStorage::Bf16;
  const auto candidates = tune::enumerate_candidates(base);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates)
    EXPECT_EQ(c.kernel, core::KernelKind::Buffered)
        << "illegal kernel survived pruning at bf16";
}

TEST(TuneCandidates, OrderedSubsetsPruneViewlessKernels) {
  core::Config base;
  base.solver = core::SolverKind::OsSirt;
  const auto candidates = tune::enumerate_candidates(base);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates)
    EXPECT_TRUE(c.kernel == core::KernelKind::Buffered ||
                c.kernel == core::KernelKind::Baseline)
        << "kernel without subset views survived pruning for OS-SIRT";
}

TEST(TuneCandidates, QuickGridIsSmaller) {
  core::Config base;
  tune::TuneOptions quick;
  quick.quick = true;
  EXPECT_LT(tune::enumerate_candidates(base, quick).size(),
            tune::enumerate_candidates(base).size());
}

// ---------------------------------------------------------------------------
// Measurement.

TEST(TuneMeasure, WinnerIsNeverSlowerThanMeasuredBest) {
  core::Config base;
  const auto a = small_matrix(base);
  const auto choice = tune::measure_candidates(a, base, quick_options());
  ASSERT_FALSE(choice.candidates.empty());
  ASSERT_GE(choice.chosen_index, 0);
  double best = 0.0;
  for (const auto& c : choice.candidates) {
    EXPECT_GT(c.gbs, 0.0);
    EXPECT_GT(c.apply_seconds, 0.0);
    EXPECT_GT(c.transpose_seconds, 0.0);
    best = std::max(best, c.gbs);
  }
  const auto& chosen =
      choice.candidates[static_cast<std::size_t>(choice.chosen_index)];
  EXPECT_TRUE(chosen.chosen);
  // The acceptance bar: the winner is never a >5%-slower candidate than the
  // measured best (argmax makes it the best outright; the margin guards the
  // contract, not the implementation).
  EXPECT_GE(chosen.gbs, 0.95 * best);
}

// ---------------------------------------------------------------------------
// Persistence.

TEST(TunePersistence, RoundTripIsBitwiseIdempotent) {
  const TempDir tmp("memxct_tune_roundtrip");
  core::Config base;
  const auto a = small_matrix(base);
  auto choice = tune::measure_candidates(a, base, quick_options());
  choice.fingerprint = tune::tune_fingerprint(small_geometry(), base);
  choice.measure_seconds = 0.125;

  const auto p1 = (tmp.path / "a.tune").string();
  const auto p2 = (tmp.path / "b.tune").string();
  tune::save_tuned_choice(p1, choice);
  const auto loaded = tune::load_tuned_choice(p1);
  tune::save_tuned_choice(p2, loaded);

  EXPECT_EQ(loaded.fingerprint, choice.fingerprint);
  EXPECT_EQ(loaded.chosen_index, choice.chosen_index);
  EXPECT_EQ(loaded.candidates.size(), choice.candidates.size());
  const auto b1 = file_bytes(p1);
  const auto b2 = file_bytes(p2);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2) << "save(load(save(x))) must be bitwise identical";
}

TEST(TunePersistence, CorruptFileThrowsOnLoad) {
  const TempDir tmp("memxct_tune_corrupt_load");
  core::Config base;
  const auto a = small_matrix(base);
  auto choice = tune::measure_candidates(a, base, quick_options());
  choice.fingerprint = "fp";
  const auto p = (tmp.path / "c.tune").string();
  tune::save_tuned_choice(p, choice);

  auto bytes = file_bytes(p);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::ofstream(p, std::ios::binary).write(bytes.data(),
                                           static_cast<long>(bytes.size()));
  EXPECT_THROW((void)tune::load_tuned_choice(p), IoError);
}

// ---------------------------------------------------------------------------
// End-to-end policy (autotune_operator).

TEST(TuneEndToEnd, CachedMeasuresOnceThenReplays) {
  const TempDir tmp("memxct_tune_cached");
  const auto g = small_geometry();
  core::Config base;
  base.cache_dir = tmp.path.string();
  base.autotune = core::AutotuneMode::Cached;
  const auto a = small_matrix(base);

  core::Config first = base;
  const auto r1 = tune::autotune_operator(g, first, a, quick_options());
  EXPECT_TRUE(r1.tuned);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_GT(r1.measure_seconds, 0.0);
  EXPECT_EQ(first.autotune, core::AutotuneMode::Off);
  ASSERT_FALSE(r1.tune_path.empty());
  EXPECT_TRUE(resil::file_exists(r1.tune_path));

  core::Config second = base;
  const auto r2 = tune::autotune_operator(g, second, a, quick_options());
  EXPECT_TRUE(r2.tuned);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.measure_seconds, 0.0);  // pure replay: zero measurement time
  // The replay resolves to exactly the measured decision.
  EXPECT_EQ(second.kernel, first.kernel);
  EXPECT_EQ(second.schedule, first.schedule);
  EXPECT_EQ(second.buffer.partsize, first.buffer.partsize);
  EXPECT_EQ(second.buffer.buffsize, first.buffer.buffsize);
}

TEST(TuneEndToEnd, CorruptCacheFallsBackToMeasurement) {
  const TempDir tmp("memxct_tune_corrupt_e2e");
  const auto g = small_geometry();
  core::Config base;
  base.cache_dir = tmp.path.string();
  base.autotune = core::AutotuneMode::Cached;
  const auto a = small_matrix(base);

  core::Config first = base;
  const auto r1 = tune::autotune_operator(g, first, a, quick_options());
  ASSERT_TRUE(resil::file_exists(r1.tune_path));

  // Flip a payload byte: the CRC must reject it and the tuner re-measure.
  auto bytes = file_bytes(r1.tune_path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  std::ofstream(r1.tune_path, std::ios::binary)
      .write(bytes.data(), static_cast<long>(bytes.size()));

  core::Config second = base;
  const auto r2 = tune::autotune_operator(g, second, a, quick_options());
  EXPECT_TRUE(r2.tuned);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(r2.cache_corrupt);
  EXPECT_GT(r2.measure_seconds, 0.0);

  // The re-measurement rewrote the record; the next run replays cleanly.
  core::Config third = base;
  const auto r3 = tune::autotune_operator(g, third, a, quick_options());
  EXPECT_TRUE(r3.cache_hit);
  EXPECT_FALSE(r3.cache_corrupt);
}

TEST(TuneEndToEnd, StaleVersionRecordIsRemeasuredAndOverwritten) {
  const TempDir tmp("memxct_tune_stale_version");
  const auto g = small_geometry();
  core::Config base;
  base.cache_dir = tmp.path.string();
  base.autotune = core::AutotuneMode::Cached;
  const auto a = small_matrix(base);

  core::Config first = base;
  const auto r1 = tune::autotune_operator(g, first, a, quick_options());
  ASSERT_TRUE(resil::file_exists(r1.tune_path));

  // Rewrite the record as version 1, the layout measured on the kernels
  // before the buffered stream prefetch: valid CRC, stale decision.
  auto payload = resil::read_checked(r1.tune_path,
                                     resil::BlobKind::TunedChoice, 1u << 20);
  const std::uint32_t stale = 1;
  ASSERT_GE(payload.size(), sizeof(stale));
  std::memcpy(payload.data(), &stale, sizeof(stale));
  resil::write_checked(r1.tune_path, resil::BlobKind::TunedChoice, payload);
  EXPECT_THROW((void)tune::load_tuned_choice(r1.tune_path), IoError);

  core::Config second = base;
  const auto r2 = tune::autotune_operator(g, second, a, quick_options());
  EXPECT_TRUE(r2.tuned);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(r2.cache_corrupt);
  EXPECT_GT(r2.measure_seconds, 0.0);

  // The fresh measurement overwrote the record at the current version.
  EXPECT_NO_THROW((void)tune::load_tuned_choice(r1.tune_path));
  core::Config third = base;
  const auto r3 = tune::autotune_operator(g, third, a, quick_options());
  EXPECT_TRUE(r3.cache_hit);
  EXPECT_FALSE(r3.cache_corrupt);
}

TEST(TuneEndToEnd, ForceRemeasuresDespiteCache) {
  const TempDir tmp("memxct_tune_force");
  const auto g = small_geometry();
  core::Config base;
  base.cache_dir = tmp.path.string();
  base.autotune = core::AutotuneMode::Cached;
  const auto a = small_matrix(base);

  core::Config first = base;
  (void)tune::autotune_operator(g, first, a, quick_options());

  core::Config forced = base;
  forced.autotune = core::AutotuneMode::Force;
  const auto r = tune::autotune_operator(g, forced, a, quick_options());
  EXPECT_TRUE(r.tuned);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(r.measure_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// The determinism contract: a tuned reconstruction is bitwise identical to
// an untuned run forced to the same resolved config.

TEST(TuneDeterminism, TunedEqualsExplicitResolvedConfig) {
  const TempDir tmp("memxct_tune_bitwise");
  const auto g = small_geometry();
  const auto image = phantom::shepp_logan(24);
  const auto sino = phantom::forward_project(g, image);

  core::Config tuned_config;
  tuned_config.iterations = 8;
  tuned_config.cache_dir = tmp.path.string();
  tuned_config.autotune = core::AutotuneMode::Cached;
  const core::Reconstructor tuned(g, tuned_config);
  EXPECT_TRUE(tuned.tune_report().tuned);
  EXPECT_GT(tuned.preprocess_report().tune_seconds, 0.0);

  // The resolved config IS the public contract: run it explicitly.
  core::Config explicit_config = tuned.config();
  EXPECT_EQ(explicit_config.autotune, core::AutotuneMode::Off);
  explicit_config.cache_dir.clear();  // no cache: forces a fresh trace too
  const core::Reconstructor untuned(g, explicit_config);
  EXPECT_FALSE(untuned.tune_report().tuned);

  const auto r1 = tuned.reconstruct(sino);
  const auto r2 = untuned.reconstruct(sino);
  ASSERT_EQ(r1.image.size(), r2.image.size());
  EXPECT_EQ(std::memcmp(r1.image.data(), r2.image.data(),
                        r1.image.size() * sizeof(real)),
            0)
      << "measurement must pick the config, never the arithmetic";
}

TEST(TuneDeterminism, BlockWidthTunedEqualsExplicitResolvedConfig) {
  // At block width 4 the tuner times the block kernels at that width; it
  // still picks only the config, so the tuned block solve is bitwise the
  // explicitly configured one.
  const TempDir tmp("memxct_tune_block_bitwise");
  const auto g = small_geometry();
  const auto clean = phantom::forward_project(g, phantom::shepp_logan(24));
  const idx_t k = 4;
  std::vector<AlignedVector<real>> sinos;
  for (idx_t s = 0; s < k; ++s) {
    AlignedVector<real> sino = clean;
    for (real& v : sino) v *= 0.5f + 0.25f * static_cast<real>(s);
    sinos.push_back(std::move(sino));
  }
  std::vector<std::span<const real>> views(sinos.begin(), sinos.end());

  core::Config tuned_config;
  tuned_config.iterations = 8;
  tuned_config.block_width = k;
  tuned_config.cache_dir = tmp.path.string();
  tuned_config.autotune = core::AutotuneMode::Cached;
  const core::Reconstructor tuned(g, tuned_config);
  EXPECT_TRUE(tuned.tune_report().tuned);

  core::Config explicit_config = tuned.config();
  EXPECT_EQ(explicit_config.autotune, core::AutotuneMode::Off);
  EXPECT_EQ(explicit_config.block_width, k);
  explicit_config.cache_dir.clear();
  const core::Reconstructor untuned(g, explicit_config);
  EXPECT_FALSE(untuned.tune_report().tuned);

  const auto r1 = core::reconstruct_block(
      tuned.op(), g, tuned.config(), tuned.sinogram_ordering(),
      tuned.tomogram_ordering(), views);
  const auto r2 = core::reconstruct_block(
      untuned.op(), g, untuned.config(), untuned.sinogram_ordering(),
      untuned.tomogram_ordering(), views);
  ASSERT_EQ(r1.size(), static_cast<std::size_t>(k));
  ASSERT_EQ(r2.size(), static_cast<std::size_t>(k));
  for (idx_t s = 0; s < k; ++s) {
    const auto& a = r1[static_cast<std::size_t>(s)].image;
    const auto& b = r2[static_cast<std::size_t>(s)].image;
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real)), 0)
        << "slice " << s;
  }
}

TEST(TuneDeterminism, PinnedTuneFileIsDeterministicEndToEnd) {
  const TempDir tmp("memxct_tune_pinned");
  const auto g = small_geometry();
  const auto image = phantom::shepp_logan(24);
  const auto sino = phantom::forward_project(g, image);

  core::Config config;
  config.iterations = 6;
  config.cache_dir = tmp.path.string();
  config.autotune = core::AutotuneMode::Cached;

  // First build measures and pins the .tune file.
  const core::Reconstructor first(g, config);
  const auto image1 = first.reconstruct(sino).image;

  // Every later Cached build replays the pinned decision: same resolved
  // config, zero measurement, bitwise-identical output.
  for (int run = 0; run < 2; ++run) {
    const core::Reconstructor replay(g, config);
    EXPECT_TRUE(replay.tune_report().cache_hit);
    EXPECT_EQ(replay.tune_report().measure_seconds, 0.0);
    EXPECT_EQ(replay.config().kernel, first.config().kernel);
    EXPECT_EQ(replay.config().schedule, first.config().schedule);
    EXPECT_EQ(replay.config().buffer.partsize,
              first.config().buffer.partsize);
    EXPECT_EQ(replay.config().buffer.buffsize,
              first.config().buffer.buffsize);
    const auto image2 = replay.reconstruct(sino).image;
    ASSERT_EQ(image1.size(), image2.size());
    EXPECT_EQ(std::memcmp(image1.data(), image2.data(),
                          image1.size() * sizeof(real)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Registry integration: tuned acquires key by the RESOLVED config.

TEST(TuneRegistry, TunedAcquiresShareOneResolvedEntry) {
  const TempDir tmp("memxct_tune_registry");
  const auto g = small_geometry();
  serve::RegistryOptions opt;
  opt.disk_cache_dir = tmp.path.string();
  serve::OperatorRegistry registry(opt);

  core::Config config;
  config.autotune = core::AutotuneMode::Cached;

  const auto first = registry.acquire(g, config);
  EXPECT_TRUE(first.tuned);
  EXPECT_FALSE(first.hit);
  auto stats = registry.stats();
  EXPECT_EQ(stats.tuned_builds, 1);
  EXPECT_EQ(stats.builds, 1);

  // Second tuned acquire: the in-process resolution maps it straight onto
  // the resolved key — a memory hit, no build, no measurement.
  const auto second = registry.acquire(g, config);
  EXPECT_TRUE(second.tuned);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.key.text, first.key.text);
  stats = registry.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_GE(stats.tune_cache_hits, 1);

  // An EXPLICIT request for the resolved config lands on the same entry.
  core::Config resolved = first.recon->config();
  resolved.cache_dir.clear();
  const auto explicit_lease = registry.acquire(g, resolved);
  EXPECT_TRUE(explicit_lease.hit);
  EXPECT_EQ(explicit_lease.key.text, first.key.text);
  stats = registry.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_GT(stats.tune_measure_ms, 0.0);
}

}  // namespace
