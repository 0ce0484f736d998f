// Tests for the ordered-subsets pipeline: subset row-range views of the
// memoized operator (core/subset.hpp), the OS-SIRT / OS-SART solvers
// (solve/os.hpp), and the streaming-angle ingest path (core/stream.hpp,
// serve/stream.hpp).
//
// The load-bearing contracts pinned here:
//   * a subset view is a true row-range view — concatenated subset applies
//     are bitwise equal to the full apply, for every supported kernel
//     family and schedule;
//   * K = 1 OS-SIRT is bitwise identical to plain SIRT (same fused vector
//     ops, full-range view bitwise equal to the full operator);
//   * the OS recursion state is the iterate alone, so warm-start chaining
//     reproduces a contiguous run bitwise (what bench_os_convergence and
//     checkpoint/restart both rely on);
//   * OS-SIRT reaches the SIRT reference residual in at least 2x fewer
//     full-matrix passes (the PR's acceptance criterion);
//   * streaming previews improve monotonically and a transiently failed
//     chunk, retried, yields a bitwise-identical stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/operator.hpp"
#include "core/reconstructor.hpp"
#include "core/stream.hpp"
#include "core/subset.hpp"
#include "geometry/geometry.hpp"
#include "phantom/phantom.hpp"
#include "resil/fault.hpp"
#include "serve/server.hpp"
#include "serve/stream.hpp"
#include "solve/os.hpp"
#include "solve/sirt.hpp"
#include "solve/vector_ops.hpp"
#include "test_util.hpp"

namespace {

namespace fs = std::filesystem;
using namespace memxct;

void expect_bitwise_eq(std::span<const real> a, std::span<const real> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(real)), 0)
      << what;
}

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

/// Phantom + preprocessed operator + ordered measurement vector, the shared
/// setup for every solver-level test below.
struct OsFixture {
  geometry::Geometry geom;
  std::vector<real> image;     ///< Ground-truth phantom.
  AlignedVector<real> sino;    ///< Natural angles-major sinogram.
  std::unique_ptr<core::Reconstructor> recon;
  AlignedVector<real> y;       ///< Ordered-space measurements.
};

OsFixture make_fixture(core::Config config = {}, idx_t size = 32) {
  OsFixture f;
  f.geom = geometry::make_geometry(size * 3 / 2, size);
  f.image = phantom::shepp_logan(size);
  f.sino = phantom::forward_project(f.geom, f.image);
  f.recon = std::make_unique<core::Reconstructor>(f.geom, config);
  const auto& grid = f.recon->sinogram_ordering().to_grid();
  f.y.resize(f.sino.size());
  for (std::size_t i = 0; i < f.y.size(); ++i)
    f.y[i] = f.sino[static_cast<std::size_t>(grid[i])];
  return f;
}

std::vector<solve::OsSubset> as_subsets(
    const std::vector<std::unique_ptr<core::SubsetOperatorView>>& views) {
  std::vector<solve::OsSubset> subs;
  subs.reserve(views.size());
  for (const auto& v : views) subs.push_back({v.get(), v->first_row()});
  return subs;
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

// --- Subset view properties -------------------------------------------------

// Every supported kernel family x schedule: the views must behave
// identically (the OS solvers do not know which family they run on).
// Buffered storage with 16-bit values takes the same windows, with the
// walkers' value decoder swapped.
std::vector<core::Config> view_configs() {
  std::vector<core::Config> configs;
  for (const core::KernelKind kernel :
       {core::KernelKind::Baseline, core::KernelKind::Buffered}) {
    for (const core::ScheduleKind schedule :
         {core::ScheduleKind::Dynamic, core::ScheduleKind::StaticPlan}) {
      core::Config c;
      c.kernel = kernel;
      c.schedule = schedule;
      configs.push_back(c);
    }
  }
  for (const sparse::ValueStorage precision :
       {sparse::ValueStorage::Bf16, sparse::ValueStorage::Fp16})
    for (const core::ScheduleKind schedule :
         {core::ScheduleKind::Dynamic, core::ScheduleKind::StaticPlan}) {
      core::Config c;
      c.precision = precision;
      c.schedule = schedule;
      configs.push_back(c);
    }
  return configs;
}

TEST(SubsetViews, RangesTileRowsExactlyOnce) {
  const auto f = make_fixture();
  const core::MemXCTOperator& op = *f.recon->serial_op();
  for (const int k : {1, 2, 3, 5, 8, 1 << 20}) {
    const auto views = core::make_subset_views(op, k);
    ASSERT_FALSE(views.empty());
    EXPECT_LE(static_cast<int>(views.size()), k);
    idx_t next = 0;
    nnz_t nnz_total = 0;
    for (const auto& v : views) {
      EXPECT_EQ(v->first_row(), next) << "ranges must tile contiguously";
      EXPECT_GT(v->num_rows(), 0);
      EXPECT_EQ(v->num_rows() % op.row_partition_size(), 0);
      EXPECT_EQ(v->num_cols(), op.num_cols());
      next += v->num_rows();
      nnz_total += v->nnz();
    }
    EXPECT_EQ(next, op.num_rows()) << "union must cover every row";
    EXPECT_EQ(nnz_total, op.nnz()) << "every nonzero in exactly one subset";
  }
}

TEST(SubsetViews, ForwardConcatBitwiseEqualsFullApply) {
  for (const core::Config& config : view_configs()) {
    const auto f = make_fixture(config);
    const core::MemXCTOperator& op = *f.recon->serial_op();
    const auto x = testutil::random_vector(op.num_cols(), 11);
    AlignedVector<real> full(static_cast<std::size_t>(op.num_rows()));
    op.apply(x, full);
    for (const int k : {2, 4, 7}) {
      const auto views = core::make_subset_views(op, k);
      AlignedVector<real> concat(full.size(), real{-1});
      for (const auto& v : views)
        v->apply(x, std::span<real>(
                        concat.data() + static_cast<std::size_t>(v->first_row()),
                        static_cast<std::size_t>(v->num_rows())));
      expect_bitwise_eq(concat, full, "subset forward concat vs full apply");
    }
  }
}

TEST(SubsetViews, TransposeBitwiseEqualsZeroPaddedFullTranspose) {
  // With nonnegative weights and nonnegative y, zero-padded rows contribute
  // exact +0.0 terms, which never perturb a nonnegative accumulator — so
  // the filtered subset transpose must be bitwise equal to a full
  // transpose of the padded vector.
  for (const core::Config& config : view_configs()) {
    const auto f = make_fixture(config);
    const core::MemXCTOperator& op = *f.recon->serial_op();
    auto y = testutil::random_vector(op.num_rows(), 13);
    for (auto& v : y) v = std::abs(v);
    const auto views = core::make_subset_views(op, 4);
    AlignedVector<real> padded(y.size());
    AlignedVector<real> xt_full(static_cast<std::size_t>(op.num_cols()));
    AlignedVector<real> xt_view(xt_full.size());
    for (const auto& v : views) {
      const auto first = static_cast<std::size_t>(v->first_row());
      const auto count = static_cast<std::size_t>(v->num_rows());
      std::fill(padded.begin(), padded.end(), real{0});
      std::copy_n(y.begin() + static_cast<std::ptrdiff_t>(first), count,
                  padded.begin() + static_cast<std::ptrdiff_t>(first));
      op.apply_transpose(padded, xt_full);
      v->apply_transpose(std::span<const real>(y.data() + first, count),
                         xt_view);
      expect_bitwise_eq(xt_view, xt_full,
                        "subset transpose vs padded full transpose");
    }
  }
}

TEST(SubsetViews, AdjointConsistencyPerSubset) {
  for (const sparse::ValueStorage precision :
       {sparse::ValueStorage::Fp32, sparse::ValueStorage::Bf16,
        sparse::ValueStorage::Fp16}) {
    core::Config config;
    config.precision = precision;
    const auto f = make_fixture(config);
    const core::MemXCTOperator& op = *f.recon->serial_op();
    const auto x = testutil::random_vector(op.num_cols(), 17);
    const auto views = core::make_subset_views(op, 8);
    for (const auto& v : views) {
      const auto count = static_cast<std::size_t>(v->num_rows());
      AlignedVector<real> ax(count);
      v->apply(x, ax);
      auto y = testutil::random_vector(v->num_rows(),
                                       19 + static_cast<std::uint64_t>(
                                                v->first_row()));
      AlignedVector<real> aty(static_cast<std::size_t>(v->num_cols()));
      v->apply_transpose(y, aty);
      const double lhs = solve::dot(ax, y);
      const double rhs = solve::dot(x, aty);
      const double scale = std::max({std::abs(lhs), std::abs(rhs), 1.0});
      EXPECT_NEAR(lhs / scale, rhs / scale, 1e-5)
          << "<A_s x, y> != <x, A_s^T y> for subset at row "
          << v->first_row() << " (" << sparse::to_string(precision) << ")";
    }
  }
}

TEST(SubsetViews, UnsupportedFamiliesThrow) {
  core::Config ell;
  ell.kernel = core::KernelKind::EllBlock;
  const auto f_ell = make_fixture(ell);
  EXPECT_THROW((void)core::make_subset_views(*f_ell.recon->serial_op(), 4),
               InvalidArgument);

  // Baseline × bf16 has no operator at all: construction rejects it.
  core::Config bf16;
  bf16.kernel = core::KernelKind::Baseline;
  bf16.precision = sparse::ValueStorage::Bf16;
  EXPECT_THROW((void)make_fixture(bf16), UnsupportedConfigError);
}

TEST(SubsetViews, MisalignedRangeThrows) {
  const auto f = make_fixture();
  const core::MemXCTOperator& op = *f.recon->serial_op();
  const idx_t part = op.row_partition_size();
  EXPECT_THROW((void)op.subset_view(1, part), InvalidArgument);
  EXPECT_THROW((void)op.subset_view(0, part / 2), InvalidArgument);
  EXPECT_THROW((void)op.subset_view(part, op.num_rows()), InvalidArgument);
  EXPECT_NO_THROW((void)op.subset_view(part, part));
}

// --- os_solve ---------------------------------------------------------------

TEST(OsSolve, BitReversedOrderIsPermutation) {
  const auto order8 = solve::bit_reversed_order(8);
  EXPECT_EQ(order8, (std::vector<int>{0, 4, 2, 6, 1, 5, 3, 7}));
  for (int count = 1; count <= 17; ++count) {
    auto order = solve::bit_reversed_order(count);
    ASSERT_EQ(static_cast<int>(order.size()), count);
    std::sort(order.begin(), order.end());
    for (int i = 0; i < count; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(OsSolve, SingleSubsetSirtIsBitwiseSirt) {
  // K = 1 degenerates the sweep to exactly the SIRT recursion: same fused
  // vector ops, and the full-range view is bitwise equal to the operator.
  const auto f = make_fixture();
  const core::MemXCTOperator& op = *f.recon->serial_op();
  const auto views = core::make_subset_views(op, 1);
  ASSERT_EQ(views.size(), 1u);
  const auto subs = as_subsets(views);

  solve::OsOptions os_opt;
  os_opt.kind = solve::OsKind::Sirt;
  os_opt.max_sweeps = 8;
  const auto os = solve::os_solve(subs, f.y, os_opt);

  const auto reference = solve::sirt(op, f.y, {.max_iterations = 8});
  expect_bitwise_eq(os.x, reference.x, "K=1 OS-SIRT vs SIRT iterate");
  ASSERT_EQ(os.history.size(), reference.history.size());
  for (std::size_t i = 0; i < os.history.size(); ++i)
    EXPECT_EQ(os.history[i].residual_norm, reference.history[i].residual_norm);
}

TEST(OsSolve, WarmStartChainIsBitwiseContiguousRun) {
  // The OS recursion state is the iterate alone, so chaining max_sweeps=1
  // calls through x0 must reproduce a contiguous run bitwise. The
  // convergence bench and checkpoint restart both stand on this.
  const auto f = make_fixture();
  const auto views = core::make_subset_views(*f.recon->serial_op(), 8);
  const auto subs = as_subsets(views);

  for (const solve::OsKind kind : {solve::OsKind::Sirt, solve::OsKind::Sart}) {
    solve::OsOptions contiguous;
    contiguous.kind = kind;
    contiguous.max_sweeps = 5;
    const auto whole = solve::os_solve(subs, f.y, contiguous);

    AlignedVector<real> x;
    for (int s = 0; s < 5; ++s) {
      solve::OsOptions step;
      step.kind = kind;
      step.max_sweeps = 1;
      step.record_history = false;
      if (!x.empty()) step.x0 = x;
      x = solve::os_solve(subs, f.y, step).x;
    }
    expect_bitwise_eq(x, whole.x, "warm-start chain vs contiguous sweeps");
  }
}

TEST(OsSolve, RerunsAreBitwiseIdentical) {
  // StaticPlan default: two identical runs must agree bit for bit (subset
  // sweep order, plans, and accumulation order are all deterministic).
  const auto f = make_fixture();
  const auto views = core::make_subset_views(*f.recon->serial_op(), 8);
  const auto subs = as_subsets(views);
  solve::OsOptions opt;
  opt.max_sweeps = 6;
  const auto a = solve::os_solve(subs, f.y, opt);
  const auto b = solve::os_solve(subs, f.y, opt);
  expect_bitwise_eq(a.x, b.x, "same-config reruns");
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_EQ(a.history[i].residual_norm, b.history[i].residual_norm);
}

TEST(OsSolve, ReachesSirtResidualInHalfThePasses) {
  // The PR's acceptance criterion: OS-SIRT must reach the residual SIRT
  // needs `ref_sweeps` full passes for in at most half as many sweeps.
  // Measured on the TRUE residual ||y - A.x|| of sweep-end iterates
  // (recomputed with a full apply), not the solver's cheap proxy.
  const auto f = make_fixture();
  const core::MemXCTOperator& op = *f.recon->serial_op();
  const int ref_sweeps = 16;
  const auto sirt_ref = solve::sirt(op, f.y, {.max_iterations = ref_sweeps});
  const double target = sirt_ref.history.back().residual_norm;

  AlignedVector<real> forward(f.y.size());
  const auto true_residual = [&](std::span<const real> x) {
    op.apply(x, forward);
    double r2 = 0.0;
    for (std::size_t i = 0; i < f.y.size(); ++i) {
      const double d = static_cast<double>(f.y[i]) - forward[i];
      r2 += d * d;
    }
    return std::sqrt(r2);
  };

  const auto views = core::make_subset_views(op, 8);
  const auto subs = as_subsets(views);
  for (const solve::OsKind kind : {solve::OsKind::Sirt, solve::OsKind::Sart}) {
    AlignedVector<real> x;
    int sweeps_to_target = -1;
    for (int s = 1; s <= ref_sweeps; ++s) {
      solve::OsOptions opt;
      opt.kind = kind;
      opt.max_sweeps = 1;
      opt.record_history = false;
      if (!x.empty()) opt.x0 = x;
      x = solve::os_solve(subs, f.y, opt).x;
      if (true_residual(x) <= target) {
        sweeps_to_target = s;
        break;
      }
    }
    ASSERT_GT(sweeps_to_target, 0) << "never reached the SIRT residual";
    EXPECT_LE(sweeps_to_target, ref_sweeps / 2)
        << (kind == solve::OsKind::Sirt ? "os-sirt" : "os-sart")
        << " must reach the SIRT reference in >= 2x fewer passes";
  }
}

TEST(OsSolve, CheckpointRestartResumesBitwise) {
  const TempDir dir("memxct_test_os_ckpt");
  const auto f = make_fixture();
  const auto views = core::make_subset_views(*f.recon->serial_op(), 4);
  const auto subs = as_subsets(views);

  solve::OsOptions opt;
  opt.max_sweeps = 8;
  opt.checkpoint.path = (dir.path / "os.ckpt").string();
  opt.checkpoint.interval = 4;
  const auto first = solve::os_solve(subs, f.y, opt);
  EXPECT_EQ(first.iterations, 8);
  EXPECT_EQ(first.resumed_from, 0);

  // Same options again: the snapshot holds sweep 8, so the rerun resumes
  // past the loop and returns the identical iterate without solving.
  const auto resumed = solve::os_solve(subs, f.y, opt);
  EXPECT_EQ(resumed.resumed_from, 8);
  EXPECT_EQ(resumed.iterations, 8);
  expect_bitwise_eq(resumed.x, first.x, "checkpoint resume");

  // A different subset structure must reject the snapshot and start cold
  // (resuming the iterate into a different sweep structure would silently
  // change the meaning of `iteration`).
  const auto views2 = core::make_subset_views(*f.recon->serial_op(), 8);
  const auto subs2 = as_subsets(views2);
  const auto cold = solve::os_solve(subs2, f.y, opt);
  EXPECT_EQ(cold.resumed_from, 0);
  EXPECT_EQ(cold.iterations, 8);
}

TEST(OsSolve, ReconstructorPathRecoversPhantom) {
  for (const sparse::ValueStorage precision :
       {sparse::ValueStorage::Fp32, sparse::ValueStorage::Bf16})
    for (const core::SolverKind solver :
         {core::SolverKind::OsSirt, core::SolverKind::OsSart}) {
      core::Config config;
      config.precision = precision;
      config.solver = solver;
      config.num_subsets = 8;
      config.iterations = 10;
      const auto f = make_fixture(config);
      const auto result = f.recon->reconstruct(f.sino);
      EXPECT_EQ(result.solve.iterations, 10);
      const double db = psnr(result.image, f.image);
      EXPECT_GT(db, 17.0) << core::to_string(solver) << " "
                          << sparse::to_string(precision)
                          << " reconstruction quality regressed";
    }
}

TEST(OsSolve, ExtrasRequireOsSolver) {
  core::Config cgls;  // default solver: CGLS
  const auto f = make_fixture(cgls);
  const std::vector<real> mask(static_cast<std::size_t>(f.geom.num_angles),
                               real{1});
  core::SolveExtras extras;
  extras.angle_mask = mask;
  EXPECT_THROW(
      (void)core::reconstruct_slice(f.recon->op(), f.geom, f.recon->config(),
                                    f.recon->sinogram_ordering(),
                                    f.recon->tomogram_ordering(), f.sino,
                                    nullptr, nullptr, nullptr, &extras),
      InvalidArgument);
  EXPECT_THROW(core::StreamingReconstructor session(*f.recon),
               InvalidArgument);
}

// --- Streaming ingest -------------------------------------------------------

core::Config streaming_config() {
  core::Config config;
  config.solver = core::SolverKind::OsSirt;
  config.num_subsets = 8;
  config.iterations = 10;
  return config;
}

TEST(Streaming, PreviewsImproveMonotonically) {
  const auto f = make_fixture(streaming_config());
  const int chunk = (static_cast<int>(f.geom.num_angles) + 3) / 4;
  const auto previews = core::reconstruct_stream(*f.recon, f.sino, chunk);
  ASSERT_EQ(previews.size(), 4u);
  double last_db = -1e9;
  for (const auto& p : previews) {
    const double db = psnr(p.image, f.image);
    EXPECT_GT(db, last_db) << "preview PSNR must improve with each chunk";
    last_db = db;
  }
  EXPECT_GT(last_db, 17.0) << "final streamed preview quality regressed";
}

TEST(Streaming, FinalPreviewNearBatchReconstruction) {
  // The final chunk solves over all angles, warm-started from the previous
  // preview; it lands near (not bitwise at — different start) the
  // all-at-once reconstruction at the same sweep budget.
  const auto f = make_fixture(streaming_config());
  const auto batch = f.recon->reconstruct(f.sino);
  const int chunk = (static_cast<int>(f.geom.num_angles) + 3) / 4;
  const auto previews = core::reconstruct_stream(*f.recon, f.sino, chunk);
  const auto& final_image = previews.back().image;
  EXPECT_LT(testutil::rel_error(final_image, batch.image), 0.2);
  EXPECT_GT(psnr(final_image, f.image), psnr(batch.image, f.image) - 1.0)
      << "warm-started final must not trail the batch solve by over 1 dB";
}

TEST(Streaming, SingleChunkDegeneratesToMaskedBatch) {
  const auto f = make_fixture(streaming_config());
  const auto previews = core::reconstruct_stream(*f.recon, f.sino, 0);
  ASSERT_EQ(previews.size(), 1u);
  core::StreamingReconstructor session(*f.recon);
  EXPECT_FALSE(session.complete());
  const auto all = session.push_chunk(0, static_cast<int>(f.geom.num_angles),
                                      f.sino);
  EXPECT_TRUE(session.complete());
  expect_bitwise_eq(all.image, previews[0].image,
                    "chunk_angles<=0 vs one full push");
}

TEST(Streaming, BadChunksAreTypedInputErrors) {
  // A chunk outside the angle range, an empty one and rows of the wrong
  // size are caller input, rejected as InvalidArgument before any angle is
  // marked arrived.
  const auto f = make_fixture(streaming_config());
  const auto angles = static_cast<int>(f.geom.num_angles);
  const auto chan = static_cast<std::size_t>(f.geom.num_channels);
  const std::span<const real> sino(f.sino);
  core::StreamingReconstructor session(*f.recon);
  EXPECT_THROW((void)session.push_chunk(angles - 1, 2, sino.first(2 * chan)),
               InvalidArgument);
  EXPECT_THROW((void)session.push_chunk(-1, 1, sino.first(chan)),
               InvalidArgument);
  EXPECT_THROW((void)session.push_chunk(0, 0, {}), InvalidArgument);
  EXPECT_THROW((void)session.push_chunk(0, 2, sino.first(chan)),
               InvalidArgument);
  EXPECT_THROW((void)core::reconstruct_stream(*f.recon, sino.first(chan), 4),
               InvalidArgument);
  EXPECT_FALSE(session.complete());
  EXPECT_TRUE(session.preview().empty());
}

TEST(Streaming, RepushAfterRejectedChunkIsBitwiseIdentical) {
  // Determinism contract (core/stream.hpp): a chunk that fails ingest
  // leaves the preview untouched; re-pushing the pristine data yields the
  // same stream bit for bit. The fault is a NaN zinger with the Reject
  // ingest policy — the push throws before any solve runs.
  auto config = streaming_config();
  config.ingest.policy = resil::IngestPolicy::Reject;
  const auto f = make_fixture(config);
  const int num_angles = static_cast<int>(f.geom.num_angles);
  const int chunk = (num_angles + 3) / 4;
  const auto chan = static_cast<std::size_t>(f.geom.num_channels);

  const auto chunk_span = [&](int c) {
    const int first = c * chunk;
    const int count = std::min(chunk, num_angles - first);
    return std::span<const real>(
        f.sino.data() + static_cast<std::size_t>(first) * chan,
        static_cast<std::size_t>(count) * chan);
  };

  core::StreamingReconstructor clean(*f.recon);
  std::vector<std::vector<real>> clean_previews;
  for (int c = 0; c * chunk < num_angles; ++c) {
    const int first = c * chunk;
    const int count = std::min(chunk, num_angles - first);
    clean_previews.push_back(
        clean.push_chunk(first, count, chunk_span(c)).image);
  }

  core::StreamingReconstructor faulty(*f.recon);
  faulty.push_chunk(0, chunk, chunk_span(0));
  // Chunk 1 arrives corrupted: one NaN sample. Reject throws at ingest.
  {
    AlignedVector<real> corrupt(chunk_span(1).begin(), chunk_span(1).end());
    corrupt[corrupt.size() / 2] = std::numeric_limits<real>::quiet_NaN();
    const auto before = faulty.preview();
    EXPECT_THROW((void)faulty.push_chunk(chunk, chunk, corrupt),
                 InvalidArgument);
    expect_bitwise_eq(faulty.preview(), before,
                      "failed chunk must not advance the preview");
  }
  // Retry with the pristine data, then finish the stream.
  std::vector<std::vector<real>> previews{faulty.preview()};
  previews.push_back(faulty.push_chunk(chunk, chunk, chunk_span(1)).image);
  for (int c = 2; c * chunk < num_angles; ++c) {
    const int first = c * chunk;
    const int count = std::min(chunk, num_angles - first);
    previews.push_back(faulty.push_chunk(first, count, chunk_span(c)).image);
  }
  ASSERT_EQ(previews.size(), clean_previews.size());
  for (std::size_t c = 0; c < previews.size(); ++c)
    expect_bitwise_eq(previews[c], clean_previews[c],
                      "retried stream vs clean stream");
}

// --- Serve-layer streaming --------------------------------------------------

struct ServeFixture {
  geometry::Geometry geom = geometry::make_geometry(24, 16);
  AlignedVector<real> sino;
  core::Config config = streaming_config();
};

ServeFixture make_serve_fixture() {
  ServeFixture f;
  f.config.iterations = 8;
  f.config.num_subsets = 4;
  const auto image = phantom::shepp_logan(16);
  f.sino = phantom::forward_project(f.geom, image);
  return f;
}

std::vector<std::vector<real>> run_serve_stream(serve::StreamSession& session,
                                                const ServeFixture& f,
                                                int chunk) {
  std::vector<std::vector<real>> previews;
  const auto chan = static_cast<std::size_t>(f.geom.num_channels);
  for (int first = 0; first < f.geom.num_angles; first += chunk) {
    const int count =
        std::min(chunk, static_cast<int>(f.geom.num_angles) - first);
    const auto r = session.push_chunk(
        first, count,
        std::span<const real>(
            f.sino.data() + static_cast<std::size_t>(first) * chan,
            static_cast<std::size_t>(count) * chan));
    EXPECT_EQ(r.status, serve::RequestStatus::Ok);
    previews.push_back(session.preview());
  }
  EXPECT_TRUE(session.complete());
  return previews;
}

TEST(StreamServe, SessionMatchesCoreStreamBitwise) {
  // The serve session is the core session behind the scheduler: same
  // accumulate-then-solve order, same extras — the previews must agree bit
  // for bit with the inline core path.
  const auto f = make_serve_fixture();
  const int chunk = 6;

  core::Reconstructor recon(f.geom, f.config);
  const auto core_previews = core::reconstruct_stream(recon, f.sino, chunk);

  serve::Server server({.workers = 1});
  serve::StreamSession session(server, f.geom, f.config);
  const auto serve_previews = run_serve_stream(session, f, chunk);
  ASSERT_EQ(serve_previews.size(), core_previews.size());
  for (std::size_t c = 0; c < serve_previews.size(); ++c)
    expect_bitwise_eq(serve_previews[c], core_previews[c].image,
                      "serve stream vs core stream");
}

TEST(StreamServe, FailedChunkLeavesSessionRetryable) {
  // A transient fault with retry disabled fails the request; the preview
  // must not advance, and re-pushing the chunk produces the stream a
  // fault-free session would have produced, bit for bit.
  const auto f = make_serve_fixture();
  const int chunk = 6;

  serve::Server clean_server({.workers = 1});
  serve::StreamSession clean(clean_server, f.geom, f.config);
  const auto clean_previews = run_serve_stream(clean, f, chunk);

  std::atomic<int> submissions{0};
  serve::ServerOptions options;
  options.workers = 1;
  options.retry = {.max_attempts = 1, .backoff_ms = 1.0};
  options.fault_hook = [&submissions](std::int64_t, int) {
    if (++submissions == 3) throw TransientError("injected chunk fault");
  };
  serve::Server server(options);
  serve::StreamSession session(server, f.geom, f.config);

  const auto chan = static_cast<std::size_t>(f.geom.num_channels);
  const auto push = [&](int first) {
    return session.push_chunk(
        first, chunk,
        std::span<const real>(
            f.sino.data() + static_cast<std::size_t>(first) * chan,
            static_cast<std::size_t>(chunk) * chan));
  };
  std::vector<std::vector<real>> previews;
  EXPECT_EQ(push(0).status, serve::RequestStatus::Ok);
  previews.push_back(session.preview());
  EXPECT_EQ(push(chunk).status, serve::RequestStatus::Ok);
  previews.push_back(session.preview());
  // Third submission faults; no retry budget, so the request fails.
  const auto failed = push(2 * chunk);
  EXPECT_EQ(failed.status, serve::RequestStatus::Failed);
  expect_bitwise_eq(session.preview(), previews.back(),
                    "failed chunk must not advance the preview");
  // Retry the same chunk, then finish.
  EXPECT_EQ(push(2 * chunk).status, serve::RequestStatus::Ok);
  previews.push_back(session.preview());
  EXPECT_EQ(push(3 * chunk).status, serve::RequestStatus::Ok);
  previews.push_back(session.preview());

  ASSERT_EQ(previews.size(), clean_previews.size());
  for (std::size_t c = 0; c < previews.size(); ++c)
    expect_bitwise_eq(previews[c], clean_previews[c],
                      "post-retry stream vs clean stream");
}

TEST(StreamServe, SeededFaultStormIsTransparentUnderRetry) {
  // With retry enabled, a seeded transient storm is invisible: every chunk
  // lands Ok (after hidden attempts) and the previews are bitwise equal to
  // the fault-free session's.
  const auto f = make_serve_fixture();
  const int chunk = 6;

  serve::Server clean_server({.workers = 1});
  serve::StreamSession clean(clean_server, f.geom, f.config);
  const auto clean_previews = run_serve_stream(clean, f, chunk);

  const resil::FaultInjector injector(42);
  resil::FaultInjector::WorkerFaultOptions faults;
  faults.transient_probability = 0.5;
  serve::ServerOptions options;
  options.workers = 1;
  options.retry = {.max_attempts = 6, .backoff_ms = 1.0, .seed = 42};
  options.fault_hook = injector.worker_fault_hook(faults);
  serve::Server server(options);
  serve::StreamSession session(server, f.geom, f.config);
  const auto stormy_previews = run_serve_stream(session, f, chunk);

  ASSERT_EQ(stormy_previews.size(), clean_previews.size());
  for (std::size_t c = 0; c < stormy_previews.size(); ++c)
    expect_bitwise_eq(stormy_previews[c], clean_previews[c],
                      "storm stream vs clean stream");
}

TEST(StreamServe, CglsWarmStartMatchesCoreReconstruction) {
  // A warm start is a CGLS extra too: admitted at submit, and the served
  // image equals Reconstructor::reconstruct with the same extras bit for bit.
  const auto f = make_serve_fixture();
  core::Config cgls = f.config;
  cgls.solver = core::SolverKind::CGLS;
  const core::Reconstructor recon(f.geom, cgls);
  const auto cold = recon.reconstruct(f.sino);
  core::SolveExtras extras;
  extras.warm_start_image = cold.image;
  const auto local = recon.reconstruct(f.sino, &extras);

  serve::Server server({.workers = 1});
  serve::RequestOptions warm;
  warm.warm_start_image = cold.image;
  const auto served = server.wait(server.submit(f.geom, cgls, f.sino, warm));
  ASSERT_EQ(served.status, serve::RequestStatus::Ok);
  expect_bitwise_eq(served.image, local.image, "served vs core warm CGLS");
}

TEST(StreamServe, ExtrasValidationAtSubmit) {
  const auto f = make_serve_fixture();
  serve::Server server({.workers = 1});

  // Extras with a non-OS solver are rejected at submit.
  core::Config cgls = f.config;
  cgls.solver = core::SolverKind::CGLS;
  const std::vector<real> mask(static_cast<std::size_t>(f.geom.num_angles),
                               real{1});
  serve::RequestOptions with_mask;
  with_mask.angle_mask = mask;
  EXPECT_THROW((void)server.submit(f.geom, cgls, f.sino, with_mask),
               InvalidArgument);
  EXPECT_THROW(serve::StreamSession(server, f.geom, cgls), InvalidArgument);

  // Wrong-sized extras are rejected before they can corrupt a solve.
  const std::vector<real> short_mask(3, real{1});
  serve::RequestOptions bad_mask;
  bad_mask.angle_mask = short_mask;
  EXPECT_THROW((void)server.submit(f.geom, f.config, f.sino, bad_mask),
               InvalidArgument);
  const std::vector<real> bad_warm(7, real{0});
  serve::RequestOptions warm;
  warm.warm_start_image = bad_warm;
  EXPECT_THROW((void)server.submit(f.geom, f.config, f.sino, warm),
               InvalidArgument);
}

}  // namespace
