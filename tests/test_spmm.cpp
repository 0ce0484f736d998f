// Multi-RHS (SpMM) kernels and the lockstep block solver: the bitwise
// parity contract. Lane s of any block operation must equal the single-RHS
// operation on slice s bit for bit — for every kernel family, schedule,
// thread count, and width tested.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "batch/batch.hpp"
#include "common/interleave.hpp"
#include "core/reconstructor.hpp"
#include "phantom/phantom.hpp"
#include "solve/block.hpp"
#include "sparse/buffered.hpp"
#include "sparse/ell.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace {

using namespace memxct;

template <class F>
void with_threads(int n, F&& fn) {
  const int before = omp_get_max_threads();
  omp_set_num_threads(n);
  fn();
  omp_set_num_threads(before);
}

using SingleFn = std::function<void(std::span<const real>, std::span<real>)>;
using BlockFn =
    std::function<void(idx_t, std::span<const real>, std::span<real>)>;

/// Runs the single kernel on k independent lanes, the block kernel on their
/// interleaving, and requires bitwise equality per lane.
void expect_lane_parity(const SingleFn& single, const BlockFn& block,
                        idx_t n_in, idx_t n_out, idx_t k,
                        std::uint64_t seed) {
  std::vector<AlignedVector<real>> xs, refs;
  for (idx_t lane = 0; lane < k; ++lane) {
    xs.push_back(testutil::random_vector(n_in, seed + static_cast<std::uint64_t>(lane)));
    AlignedVector<real> y(static_cast<std::size_t>(n_out), 0.0f);
    single(xs.back(), y);
    refs.push_back(std::move(y));
  }

  AlignedVector<real> xi(static_cast<std::size_t>(n_in) * static_cast<std::size_t>(k));
  AlignedVector<real> yi(static_cast<std::size_t>(n_out) * static_cast<std::size_t>(k));
  for (idx_t lane = 0; lane < k; ++lane)
    common::interleave_slice(xs[static_cast<std::size_t>(lane)], k, lane, xi);
  block(k, xi, yi);

  AlignedVector<real> out(static_cast<std::size_t>(n_out));
  for (idx_t lane = 0; lane < k; ++lane) {
    common::deinterleave_slice(yi, k, lane, out);
    EXPECT_EQ(0, std::memcmp(out.data(),
                             refs[static_cast<std::size_t>(lane)].data(),
                             static_cast<std::size_t>(n_out) * sizeof(real)))
        << "lane " << lane << " of " << k << " differs";
  }
}

/// All kernel families built from one CSR matrix, single and block forms.
struct KernelSet {
  std::string name;
  SingleFn single;
  BlockFn block;
};

std::vector<KernelSet> make_kernels(const sparse::CsrMatrix& a,
                                    const sparse::BufferedMatrix& buf,
                                    const sparse::EllBlockMatrix& ell,
                                    const sparse::ApplyPlan& csr_plan,
                                    const sparse::ApplyPlan& buf_plan,
                                    const sparse::ApplyPlan& ell_plan,
                                    sparse::Workspace& buf_ws,
                                    sparse::Workspace& ell_ws) {
  std::vector<KernelSet> out;
  out.push_back({"csr",
                 [&](auto x, auto y) { sparse::spmv_csr(a, x, y); },
                 [&](idx_t k, auto x, auto y) { sparse::spmm_csr(a, k, x, y); }});
  out.push_back({"library",
                 [&](auto x, auto y) { sparse::spmv_library(a, x, y); },
                 [&](idx_t k, auto x, auto y) { sparse::spmm_library(a, k, x, y); }});
  out.push_back({"ell",
                 [&](auto x, auto y) { sparse::spmv_ell(ell, x, y); },
                 [&](idx_t k, auto x, auto y) { sparse::spmm_ell(ell, k, x, y); }});
  out.push_back({"buffered",
                 [&](auto x, auto y) { sparse::spmv_buffered(buf, x, y); },
                 [&](idx_t k, auto x, auto y) { sparse::spmm_buffered(buf, k, x, y); }});
  out.push_back({"csr-planned",
                 [&](auto x, auto y) {
                   sparse::spmv_csr_planned(a, sparse::kCsrPartsize, csr_plan, x, y);
                 },
                 [&](idx_t k, auto x, auto y) {
                   sparse::spmm_csr_planned(a, sparse::kCsrPartsize, csr_plan, k, x, y);
                 }});
  out.push_back({"ell-planned",
                 [&](auto x, auto y) {
                   sparse::spmv_ell_planned(ell, ell_plan, ell_ws, x, y);
                 },
                 [&](idx_t k, auto x, auto y) {
                   sparse::spmm_ell_planned(ell, ell_plan, ell_ws, k, x, y);
                 }});
  out.push_back({"buffered-planned",
                 [&](auto x, auto y) {
                   sparse::spmv_buffered_planned(buf, buf_plan, buf_ws, x, y);
                 },
                 [&](idx_t k, auto x, auto y) {
                   sparse::spmm_buffered_planned(buf, buf_plan, buf_ws, k, x, y);
                 }});
  return out;
}

void run_kernel_parity(const sparse::CsrMatrix& a, std::uint64_t seed) {
  const int slots = 4;  // fixed plan slots, independent of thread count
  const auto buf = sparse::build_buffered(a, {64, 512});
  const auto ell = sparse::to_ell_block(a, 32);
  const auto csr_plan = sparse::ApplyPlan::build(
      sparse::partition_nnz(a, sparse::kCsrPartsize), slots);
  const auto buf_plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(buf), slots);
  const auto ell_plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(ell), slots);
  // Sized for the widest block: the buffered kernels stage at the padded
  // lane count block_lanes(k), the ELL kernel at k itself.
  const idx_t max_lanes = sparse::block_lanes(sparse::kMaxBlockWidth);
  sparse::Workspace buf_ws(slots, buf.config.buffsize * max_lanes,
                           buf.config.partsize * max_lanes);
  sparse::Workspace ell_ws(slots, 0, ell.block_rows * max_lanes);

  const auto kernels = make_kernels(a, buf, ell, csr_plan, buf_plan,
                                    ell_plan, buf_ws, ell_ws);
  for (const auto& kernel : kernels)
    // One width per lane-padding class plus its edges: exact powers of two
    // (no padding), k = L - 1 and k = L/2 + 1 (most padding), and 64.
    for (const idx_t k : {1, 2, 3, 5, 7, 8, 9, 16, 17, 33, 64})
      for (const int threads : {1, 2, 3})
        with_threads(threads, [&] {
          SCOPED_TRACE(kernel.name + " k=" + std::to_string(k) +
                       " threads=" + std::to_string(threads));
          expect_lane_parity(kernel.single, kernel.block, a.num_cols,
                             a.num_rows, k, seed);
        });
}

TEST(Spmm, LaneParityRandomMatrix) {
  // Awkward (non-round, non-multiple-of-anything) shape.
  run_kernel_parity(testutil::random_csr(173, 131, 0.07, 42), 1001);
}

TEST(Spmm, LaneParityBandedMatrix) {
  run_kernel_parity(testutil::banded_csr(257, 191, 9, 7), 2002);
}

// ---------------------------------------------------------------------------
// Independent arithmetic anchor: the lane-parity tests above compare kernels
// with each other, which would still pass if every kernel drifted together.
// Here every family, direction, schedule, thread count, spelling and lane is
// held against the plain serial reference apply of test_util.hpp instead.

/// One storage family: its width-1 and width-k spellings, dynamic or
/// planned, and the serial reference of its arithmetic.
struct AnchoredFamily {
  std::string name;
  std::function<void(bool, std::span<const real>, std::span<real>)> single;
  std::function<void(bool, idx_t, std::span<const real>, std::span<real>)>
      block;
  std::function<void(std::span<const real>, std::span<real>)> reference;
};

void expect_matches_reference(const AnchoredFamily& fam, bool planned,
                              idx_t n_in, idx_t n_out, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(n_out);
  AlignedVector<real> want(n), got(n, -1.0f);
  const auto x = testutil::random_vector(n_in, seed);
  fam.reference(x, want);
  fam.single(planned, x, got);
  EXPECT_TRUE(testutil::same_bytes(got, want)) << "width-1 apply";
  for (const idx_t k : {1, 3, 8}) {
    const auto kk = static_cast<std::size_t>(k);
    AlignedVector<real> xi(static_cast<std::size_t>(n_in) * kk);
    AlignedVector<real> yi(n * kk, -1.0f);
    std::vector<AlignedVector<real>> xs;
    for (idx_t lane = 0; lane < k; ++lane) {
      xs.push_back(testutil::random_vector(
          n_in, seed + 100 + static_cast<std::uint64_t>(lane)));
      common::interleave_slice(xs.back(), k, lane, xi);
    }
    fam.block(planned, k, xi, yi);
    for (idx_t lane = 0; lane < k; ++lane) {
      fam.reference(xs[static_cast<std::size_t>(lane)], want);
      common::deinterleave_slice(yi, k, lane, got);
      EXPECT_TRUE(testutil::same_bytes(got, want))
          << "lane " << lane << " of k=" << k;
    }
  }
}

TEST(Spmm, EveryFamilyMatchesSerialReference) {
  using sparse::ValueStorage;
  const int slots = 4;
  const auto a = testutil::random_csr(173, 131, 0.07, 42);
  for (const bool transpose : {false, true}) {
    const sparse::CsrMatrix m = transpose ? sparse::transpose(a) : a;
    // Small buffers give every partition several stages, so the per-stage
    // partial sums the staged kernels add up are exercised.
    const auto buf = sparse::build_buffered(m, {16, 32});
    const auto csr_plan = sparse::ApplyPlan::build(
        sparse::partition_nnz(m, sparse::kCsrPartsize), slots);
    const auto buf_plan =
        sparse::ApplyPlan::build(sparse::partition_nnz(buf), slots);
    const idx_t lanes = sparse::block_lanes(8);
    sparse::Workspace ws(slots, buf.config.buffsize * lanes,
                         buf.config.partsize * lanes);

    std::vector<AnchoredFamily> families;
    families.push_back(
        {"csr",
         [&](bool planned, auto x, auto y) {
           if (planned)
             sparse::spmv_csr_planned(m, sparse::kCsrPartsize, csr_plan, x, y);
           else
             sparse::spmv_csr(m, x, y);
         },
         [&](bool planned, idx_t k, auto x, auto y) {
           if (planned)
             sparse::spmm_csr_planned(m, sparse::kCsrPartsize, csr_plan, k, x,
                                      y);
           else
             sparse::spmm_csr(m, k, x, y);
         },
         [&](auto x, auto y) { testutil::reference_apply(m, x, y); }});
    families.push_back(
        {"buffered",
         [&](bool planned, auto x, auto y) {
           if (planned)
             sparse::spmv_buffered_planned(buf, buf_plan, ws, x, y);
           else
             sparse::spmv_buffered(buf, x, y);
         },
         [&](bool planned, idx_t k, auto x, auto y) {
           if (planned)
             sparse::spmm_buffered_planned(buf, buf_plan, ws, k, x, y);
           else
             sparse::spmm_buffered(buf, k, x, y);
         },
         [&](auto x, auto y) { testutil::reference_apply(buf, x, y); }});
    std::vector<sparse::BufferedMatrix> cbuf;
    const std::vector<ValueStorage> storages = {ValueStorage::Bf16,
                                                ValueStorage::Fp16};
    for (const ValueStorage storage : storages)
      cbuf.push_back(sparse::compress_buffered(buf, storage));
    for (std::size_t i = 0; i < storages.size(); ++i) {
      const ValueStorage storage = storages[i];
      const sparse::BufferedMatrix& cb = cbuf[i];
      families.push_back(
          {std::string("buffered-") + sparse::to_string(storage),
           [&](bool planned, auto x, auto y) {
             if (planned)
               sparse::spmv_buffered_planned(cb, buf_plan, ws, x, y);
             else
               sparse::spmv_buffered(cb, x, y);
           },
           [&](bool planned, idx_t k, auto x, auto y) {
             if (planned)
               sparse::spmm_buffered_planned(cb, buf_plan, ws, k, x, y);
             else
               sparse::spmm_buffered(cb, k, x, y);
           },
           [&buf, storage](auto x, auto y) {
             testutil::reference_apply(buf, x, y, storage);
           }});
    }

    for (const auto& fam : families)
      for (const bool planned : {false, true})
        for (const int threads : {1, 4})
          with_threads(threads, [&] {
            SCOPED_TRACE(fam.name + (transpose ? " transpose" : " forward") +
                         (planned ? " planned" : " dynamic") +
                         " threads=" + std::to_string(threads));
            expect_matches_reference(fam, planned, m.num_cols, m.num_rows,
                                     transpose ? 7000 : 9000);
          });
  }
}

TEST(Spmm, RejectsOversizedWidth) {
  const auto a = testutil::random_csr(16, 12, 0.3, 5);
  AlignedVector<real> x(12 * (sparse::kMaxBlockWidth + 1));
  AlignedVector<real> y(16 * (sparse::kMaxBlockWidth + 1));
  EXPECT_THROW(sparse::spmm_csr(a, sparse::kMaxBlockWidth + 1, x, y),
               InvariantError);
}

// ---------------------------------------------------------------------------
// Operator level: MemXCTOperator::apply_block / apply_transpose_block.

class SpmmOperatorTest
    : public ::testing::TestWithParam<
          std::tuple<core::KernelKind, core::ScheduleKind>> {};

TEST_P(SpmmOperatorTest, BlockApplyMatchesPerSlice) {
  const auto [kernel, schedule] = GetParam();
  core::Config config;
  config.kernel = kernel;
  config.schedule = schedule;
  config.buffer = {64, 512};
  config.ell_block_rows = 32;
  const auto g = geometry::make_geometry(36, 24);
  const core::Reconstructor recon(g, config);
  const core::MemXCTOperator& op = *recon.serial_op();

  const auto n = static_cast<std::size_t>(op.num_cols());
  const auto m = static_cast<std::size_t>(op.num_rows());
  const idx_t k = 4;

  // Forward: per-slice slabs through the virtual block path.
  AlignedVector<real> x_slab(n * static_cast<std::size_t>(k));
  AlignedVector<real> y_slab(m * static_cast<std::size_t>(k));
  for (idx_t s = 0; s < k; ++s) {
    const auto xs = testutil::random_vector(static_cast<idx_t>(n),
                                            77 + static_cast<std::uint64_t>(s));
    std::copy(xs.begin(), xs.end(),
              x_slab.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(s) * n));
  }
  op.apply_block(x_slab, y_slab, k);

  AlignedVector<real> y_ref(m);
  for (idx_t s = 0; s < k; ++s) {
    const std::span<const real> xs(
        x_slab.data() + static_cast<std::size_t>(s) * n, n);
    op.apply(xs, y_ref);
    EXPECT_EQ(0, std::memcmp(y_slab.data() + static_cast<std::size_t>(s) * m,
                             y_ref.data(), m * sizeof(real)))
        << "forward lane " << s;
  }

  // Transpose: same contract the other way.
  AlignedVector<real> yt_slab(m * static_cast<std::size_t>(k));
  AlignedVector<real> xt_slab(n * static_cast<std::size_t>(k));
  for (idx_t s = 0; s < k; ++s) {
    const auto ys = testutil::random_vector(static_cast<idx_t>(m),
                                            177 + static_cast<std::uint64_t>(s));
    std::copy(ys.begin(), ys.end(),
              yt_slab.begin() + static_cast<std::ptrdiff_t>(
                                    static_cast<std::size_t>(s) * m));
  }
  op.apply_transpose_block(yt_slab, xt_slab, k);
  AlignedVector<real> x_ref(n);
  for (idx_t s = 0; s < k; ++s) {
    const std::span<const real> ys(
        yt_slab.data() + static_cast<std::size_t>(s) * m, m);
    op.apply_transpose(ys, x_ref);
    EXPECT_EQ(0, std::memcmp(xt_slab.data() + static_cast<std::size_t>(s) * n,
                             x_ref.data(), n * sizeof(real)))
        << "transpose lane " << s;
  }

  // Adjoint identity per lane: <A x, y> == <x, A^T y> (float-accumulated
  // by independent code paths, so tolerance not bitwise).
  for (idx_t s = 0; s < k; ++s) {
    double axy = 0.0, xaty = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      axy += static_cast<double>(y_slab[static_cast<std::size_t>(s) * m + i]) *
             yt_slab[static_cast<std::size_t>(s) * m + i];
    for (std::size_t i = 0; i < n; ++i)
      xaty += static_cast<double>(x_slab[static_cast<std::size_t>(s) * n + i]) *
              xt_slab[static_cast<std::size_t>(s) * n + i];
    EXPECT_NEAR(axy, xaty, 1e-3 * (std::abs(axy) + 1.0)) << "lane " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndSchedules, SpmmOperatorTest,
    ::testing::Combine(::testing::Values(core::KernelKind::Baseline,
                                         core::KernelKind::EllBlock,
                                         core::KernelKind::Buffered,
                                         core::KernelKind::Library),
                       ::testing::Values(core::ScheduleKind::Dynamic,
                                         core::ScheduleKind::StaticPlan)));

TEST(SpmmOperator, BlockWorkspaceSizedAtPaddedLanes) {
  // The planned buffered block kernels stage and accumulate at
  // block_lanes(k) lanes, so the workspace holds exactly that many per slot.
  core::Config config;
  config.kernel = core::KernelKind::Buffered;
  config.schedule = core::ScheduleKind::StaticPlan;
  config.buffer = {64, 512};
  const core::Reconstructor recon(geometry::make_geometry(36, 24), config);
  const core::MemXCTOperator& op = *recon.serial_op();
  for (const idx_t k : {1, 3, 8, 9, 64}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const idx_t lanes = sparse::block_lanes(k);
    const auto ws = op.make_block_workspace(k);
    for (const sparse::Workspace* dir :
         {&ws.forward_buffers(), &ws.transpose_buffers()}) {
      ASSERT_GE(dir->num_slots(), 1);
      for (int s = 0; s < dir->num_slots(); ++s) {
        EXPECT_EQ(dir->input(s).size(),
                  static_cast<std::size_t>(config.buffer.buffsize * lanes));
        EXPECT_EQ(dir->output(s).size(),
                  static_cast<std::size_t>(config.buffer.partsize * lanes));
      }
    }
  }
}

TEST(Spmm, BlockLanesIsSmallestCoveringPowerOfTwo) {
  EXPECT_EQ(sparse::block_lanes(1), 1);
  EXPECT_EQ(sparse::block_lanes(2), 2);
  EXPECT_EQ(sparse::block_lanes(3), 4);
  EXPECT_EQ(sparse::block_lanes(7), 8);
  EXPECT_EQ(sparse::block_lanes(8), 8);
  EXPECT_EQ(sparse::block_lanes(9), 16);
  EXPECT_EQ(sparse::block_lanes(33), 64);
  EXPECT_EQ(sparse::block_lanes(sparse::kMaxBlockWidth),
            sparse::kMaxBlockWidth);
}

// ---------------------------------------------------------------------------
// Solver level: lockstep block CGLS vs independent per-slice solves.

TEST(SpmmSolver, BlockSolveMatchesPerSliceBitwise) {
  core::Config config;
  config.iterations = 40;
  // Lanes must converge at DIFFERENT iterations — the masking path (freeze
  // one lane, keep iterating the others) must not perturb the still-live
  // lanes. Lane 0 is an all-zero sinogram: its residual is zero so CGLS
  // freezes it immediately (gamma == 0), the most aggressive mask case.
  config.early_stop = true;
  const auto g = geometry::make_geometry(48, 32);
  const core::Reconstructor recon(g, config);

  const auto image = phantom::shepp_logan(32);
  const auto clean = phantom::forward_project(g, image);
  const idx_t k = 3;
  std::vector<AlignedVector<real>> sinos;
  sinos.emplace_back(clean.size(), 0.0f);
  for (idx_t s = 1; s < k; ++s) {
    AlignedVector<real> sino = clean;
    Rng rng(100 + static_cast<std::uint64_t>(s));
    // Different noise per lane => different convergence trajectories.
    phantom::add_poisson_noise(sino, 200.0 * s * s, rng);
    sinos.push_back(std::move(sino));
  }

  std::vector<core::ReconstructionResult> refs;
  for (idx_t s = 0; s < k; ++s)
    refs.push_back(core::reconstruct_slice(
        recon.op(), g, config, recon.sinogram_ordering(),
        recon.tomogram_ordering(), sinos[static_cast<std::size_t>(s)]));

  std::vector<std::span<const real>> views;
  for (const auto& sino : sinos) views.emplace_back(sino);
  const auto block = core::reconstruct_block(
      recon.op(), g, config, recon.sinogram_ordering(),
      recon.tomogram_ordering(), views);

  ASSERT_EQ(block.size(), static_cast<std::size_t>(k));
  bool mixed_iterations = false;
  for (idx_t s = 0; s < k; ++s) {
    const auto& ref = refs[static_cast<std::size_t>(s)];
    const auto& got = block[static_cast<std::size_t>(s)];
    SCOPED_TRACE("lane " + std::to_string(s));
    EXPECT_EQ(ref.solve.iterations, got.solve.iterations);
    EXPECT_EQ(ref.solve.diverged, got.solve.diverged);
    EXPECT_EQ(ref.solve.cancelled, got.solve.cancelled);
    ASSERT_EQ(ref.image.size(), got.image.size());
    EXPECT_EQ(0, std::memcmp(ref.image.data(), got.image.data(),
                             ref.image.size() * sizeof(real)));
    ASSERT_EQ(ref.solve.history.size(), got.solve.history.size());
    for (std::size_t i = 0; i < ref.solve.history.size(); ++i) {
      EXPECT_EQ(ref.solve.history[i].residual_norm,
                got.solve.history[i].residual_norm);
      EXPECT_EQ(ref.solve.history[i].solution_norm,
                got.solve.history[i].solution_norm);
    }
    if (got.solve.iterations != block[0].solve.iterations)
      mixed_iterations = true;
  }
  // The scenario is constructed to exercise masking; if every lane stopped
  // at the same iteration the test would silently lose its point.
  EXPECT_TRUE(mixed_iterations)
      << "expected lanes to converge at different iterations";
}

TEST(SpmmSolver, BlockSolverRequiresCgls) {
  core::Config config;
  config.solver = core::SolverKind::SIRT;
  const auto g = geometry::make_geometry(24, 16);
  const core::Reconstructor recon(g, config);
  const auto sino = phantom::forward_project(g, phantom::shepp_logan(16));
  const std::vector<std::span<const real>> views{std::span<const real>(sino)};
  EXPECT_THROW(core::reconstruct_block(recon.op(), g, config,
                                       recon.sinogram_ordering(),
                                       recon.tomogram_ordering(), views),
               InvalidArgument);
}

TEST(SpmmSolver, WarmLanesMatchPerSliceWarmBitwise) {
  // A k-lane solve from an x0 slab equals k one-lane warm starts, with the
  // damped warm-start term (s -= λ²·x0) exercised and lanes stopping early
  // at different iterations.
  const auto g = geometry::make_geometry(48, 32);
  const core::Reconstructor recon(g, core::Config{});
  const auto& op = recon.op();
  const auto m = static_cast<std::size_t>(op.num_rows());
  const auto n = static_cast<std::size_t>(op.num_cols());
  const idx_t k = 3;
  const auto clean = phantom::forward_project(g, phantom::shepp_logan(32));
  AlignedVector<real> y_slab(m * k), x0_slab(n * k);
  core::SliceWorkspace ws;
  for (idx_t s = 0; s < k; ++s) {
    AlignedVector<real> sino = clean;
    Rng rng(300 + static_cast<std::uint64_t>(s));
    phantom::add_poisson_noise(sino, 300.0 * (s + 1), rng);
    (void)core::ingest_and_order(g, core::Config{}, recon.sinogram_ordering(),
                                 sino, ws);
    std::copy(ws.ordered.begin(), ws.ordered.end(),
              y_slab.begin() + static_cast<std::ptrdiff_t>(s * m));
    const auto x0 = testutil::random_vector(
        static_cast<idx_t>(n), 400 + static_cast<std::uint64_t>(s));
    std::copy(x0.begin(), x0.end(),
              x0_slab.begin() + static_cast<std::ptrdiff_t>(s * n));
  }
  solve::CglsOptions opt;
  opt.max_iterations = 40;
  opt.early_stop = true;
  opt.tikhonov_lambda = 0.5;
  const auto lanes = solve::cgls_lanes(op, y_slab, x0_slab, k, opt);
  ASSERT_EQ(lanes.slices.size(), static_cast<std::size_t>(k));
  for (idx_t s = 0; s < k; ++s) {
    SCOPED_TRACE("lane " + std::to_string(s));
    const auto lane = static_cast<std::size_t>(s);
    const auto ref = solve::cgls_warm(
        op, std::span<const real>(y_slab).subspan(lane * m, m),
        std::span<const real>(x0_slab).subspan(lane * n, n), opt);
    const auto& got = lanes.slices[lane];
    EXPECT_EQ(ref.iterations, got.iterations);
    ASSERT_EQ(ref.x.size(), got.x.size());
    EXPECT_EQ(0, std::memcmp(ref.x.data(), got.x.data(),
                             ref.x.size() * sizeof(real)));
    ASSERT_EQ(ref.history.size(), got.history.size());
    for (std::size_t i = 0; i < ref.history.size(); ++i)
      EXPECT_EQ(ref.history[i].residual_norm, got.history[i].residual_norm);
  }
}

TEST(SpmmSolver, CheckpointFileNeedsOneLane) {
  // One checkpoint file holds one lane's recursion; k > 1 lanes sharing it
  // would corrupt it, so the path is a typed rejection there.
  const auto g = geometry::make_geometry(24, 16);
  const core::Reconstructor recon(g, core::Config{});
  const AlignedVector<real> y_slab(
      2 * static_cast<std::size_t>(recon.op().num_rows()), real{1});
  solve::BlockCglsOptions opt;
  opt.max_iterations = 2;
  opt.checkpoint.path = "unused.ckpt";
  EXPECT_THROW((void)solve::cgls_block(recon.op(), y_slab, 2, opt),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Batch level: block_width waves vs width-1 workers.

TEST(SpmmBatch, BlockWidthMatchesWidthOneBitwise) {
  core::Config config;
  config.iterations = 8;
  config.early_stop = true;
  const auto g = geometry::make_geometry(36, 24);
  const core::Reconstructor recon(g, config);

  const auto clean = phantom::forward_project(g, phantom::shepp_logan(24));
  const int slices = 5;  // not a multiple of the width: final wave is short
  std::vector<AlignedVector<real>> sinos;
  for (int s = 0; s < slices; ++s) {
    AlignedVector<real> sino = clean;
    Rng rng(300 + static_cast<std::uint64_t>(s));
    phantom::add_poisson_noise(sino, 1500.0 * (1 + s), rng);
    sinos.push_back(std::move(sino));
  }

  const auto run = [&](int width) {
    batch::BatchOptions opt;
    opt.workers = 1;
    opt.block_width = width;
    batch::BatchReconstructor engine(recon, opt);
    for (const auto& sino : sinos) engine.submit(sino);
    return engine.wait_all();
  };
  const auto ref = run(1);
  const auto got = run(4);

  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    SCOPED_TRACE("slice " + std::to_string(s));
    EXPECT_EQ(ref[s].slice, got[s].slice);
    EXPECT_EQ(ref[s].status, got[s].status);
    EXPECT_EQ(ref[s].solve.iterations, got[s].solve.iterations);
    ASSERT_EQ(ref[s].image.size(), got[s].image.size());
    EXPECT_EQ(0, std::memcmp(ref[s].image.data(), got[s].image.data(),
                             ref[s].image.size() * sizeof(real)));
  }
}

TEST(SpmmBatch, BlockWaveIsolatesRejectedSlices) {
  core::Config config;
  config.iterations = 4;
  config.ingest.policy = resil::IngestPolicy::Reject;
  const auto g = geometry::make_geometry(24, 16);
  const core::Reconstructor recon(g, config);
  const auto clean = phantom::forward_project(g, phantom::shepp_logan(16));

  batch::BatchOptions opt;
  opt.workers = 1;
  opt.block_width = 4;
  batch::BatchReconstructor engine(recon, opt);
  AlignedVector<real> poisoned = clean;
  poisoned[3] = std::numeric_limits<real>::quiet_NaN();
  engine.submit(clean);
  engine.submit(poisoned);  // rejected inside the wave
  engine.submit(clean);
  const auto results = engine.wait_all();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, batch::SliceStatus::Ok);
  EXPECT_EQ(results[1].status, batch::SliceStatus::IngestRejected);
  EXPECT_EQ(results[2].status, batch::SliceStatus::Ok);
  // The survivors' images match a clean width-1 run (the reject did not
  // shift or poison their lanes).
  const auto ref = core::reconstruct_slice(
      recon.op(), g, config, recon.sinogram_ordering(),
      recon.tomogram_ordering(), clean);
  EXPECT_EQ(0, std::memcmp(results[0].image.data(), ref.image.data(),
                           ref.image.size() * sizeof(real)));
  EXPECT_EQ(0, std::memcmp(results[2].image.data(), ref.image.data(),
                           ref.image.size() * sizeof(real)));
  EXPECT_EQ(engine.report().block_width, 4);
  EXPECT_GE(engine.report().waves, 1);
  EXPECT_GT(engine.report().matrix_bytes_per_slice, 0.0);
}

TEST(SpmmBatch, RejectsNonCglsBlockWidth) {
  core::Config config;
  config.solver = core::SolverKind::SIRT;
  const auto g = geometry::make_geometry(24, 16);
  const core::Reconstructor recon(g, config);
  batch::BatchOptions opt;
  opt.block_width = 2;
  EXPECT_THROW(batch::BatchReconstructor(recon, opt), InvalidArgument);
}

}  // namespace
