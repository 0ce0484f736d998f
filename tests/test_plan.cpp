// Tests for the static nnz-balanced apply plans, persistent workspaces,
// fused solver kernels, and the zero-allocation / determinism contracts of
// the static-plan operator.
#include <gtest/gtest.h>

#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>

#include "common/error.hpp"
#include "core/operator.hpp"
#include "solve/cgls.hpp"
#include "solve/vector_ops.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

// ---------------------------------------------------------------------------
// Global operator new/delete instrumentation: counts every heap allocation
// that goes through the default allocator, so the zero-allocation contract
// of the static-plan apply path can be asserted. AlignedAllocator traffic is
// counted separately via memxct::aligned_alloc_count().
namespace {
std::atomic<std::int64_t> g_new_count{0};
}  // namespace

// The replacement operator new below routes through malloc, so pairing its
// pointers with free() is correct; GCC's heuristic cannot see through a
// replaced allocator and flags every delete in this TU otherwise.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_new_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_new_count.fetch_add(1, std::memory_order_relaxed);
  const auto al = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(al, (size + al - 1) / al * al);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace memxct {
namespace {

/// ulp distance between two doubles (0 = bitwise equal).
std::int64_t ulp_diff(double a, double b) {
  if (a == b) return 0;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return std::abs(ia - ib);
}

/// Runs an omp-thread-count-sensitive body with a temporary setting.
template <class F>
auto with_threads(int nthreads, F&& fn) {
  const int before = omp_get_max_threads();
  omp_set_num_threads(nthreads);
  auto result = fn();
  omp_set_num_threads(before);
  return result;
}

// --- ApplyPlan construction ------------------------------------------------

TEST(ApplyPlan, CoversAllPartitionsExactlyOnce) {
  for (const int nparts : {1, 3, 7, 64, 1000}) {
    for (const int nslots : {1, 2, 5, 8, 64, 100}) {
      std::vector<nnz_t> weights(static_cast<std::size_t>(nparts));
      for (int p = 0; p < nparts; ++p)
        weights[static_cast<std::size_t>(p)] = 1 + (p * 37) % 91;
      const auto plan = sparse::ApplyPlan::build(weights, nslots);
      ASSERT_EQ(plan.num_slots(), nslots);
      ASSERT_EQ(plan.num_partitions(), nparts);
      // Slot ranges are contiguous, disjoint, and cover [0, nparts).
      EXPECT_EQ(plan.slot_begin(0), 0);
      EXPECT_EQ(plan.slot_end(nslots - 1), nparts);
      nnz_t total = 0;
      for (int s = 0; s < nslots; ++s) {
        EXPECT_LE(plan.slot_begin(s), plan.slot_end(s));
        if (s > 0) {
          EXPECT_EQ(plan.slot_begin(s), plan.slot_end(s - 1));
        }
        nnz_t slot_weight = 0;
        for (idx_t p = plan.slot_begin(s); p < plan.slot_end(s); ++p)
          slot_weight += weights[static_cast<std::size_t>(p)];
        EXPECT_EQ(slot_weight, plan.slot_nnz(s));
        total += slot_weight;
      }
      EXPECT_EQ(total, std::accumulate(weights.begin(), weights.end(),
                                       nnz_t{0}));
    }
  }
}

TEST(ApplyPlan, BalancesSkewedNnzWithinContiguousBound) {
  // Heavily skewed weights: partition p carries ~p² work plus a few spikes.
  std::vector<nnz_t> weights(512);
  nnz_t max_part = 0;
  for (std::size_t p = 0; p < weights.size(); ++p) {
    weights[p] = static_cast<nnz_t>(p * p % 977 + 1);
    if (p % 97 == 0) weights[p] += 5000;
    max_part = std::max(max_part, weights[p]);
  }
  for (const int nslots : {2, 4, 8, 16}) {
    const auto plan = sparse::ApplyPlan::build(weights, nslots);
    const auto stats = plan.stats();
    EXPECT_EQ(stats.num_slots, nslots);
    const nnz_t ideal = stats.total_nnz / nslots;
    // Cutting a contiguous prefix sum at ideal targets can overshoot each
    // boundary by at most one partition, so no slot exceeds the ideal share
    // by more than the largest single partition.
    EXPECT_LE(stats.max_slot_nnz, ideal + max_part);
    EXPECT_GE(stats.imbalance(), 1.0);
    EXPECT_LE(stats.imbalance(),
              1.0 + static_cast<double>(max_part * nslots) /
                        static_cast<double>(stats.total_nnz));
  }
}

TEST(ApplyPlan, HandlesEmptyAndDegenerateWeights) {
  // All-zero weights: still a valid full cover.
  const std::vector<nnz_t> zeros(8, 0);
  const auto plan = sparse::ApplyPlan::build(zeros, 4);
  EXPECT_EQ(plan.num_partitions(), 8);
  EXPECT_EQ(plan.slot_end(3), 8);
  EXPECT_EQ(plan.stats().total_nnz, 0);
  EXPECT_DOUBLE_EQ(plan.stats().imbalance(), 1.0);
  // More slots than partitions: trailing slots are empty but valid.
  const std::vector<nnz_t> two{5, 7};
  const auto wide = sparse::ApplyPlan::build(two, 8);
  nnz_t total = 0;
  for (int s = 0; s < 8; ++s) total += wide.slot_nnz(s);
  EXPECT_EQ(total, 12);
  EXPECT_THROW(sparse::ApplyPlan::build(two, 0), InvariantError);
}

// --- Planned kernels match their dynamic-schedule counterparts ------------

struct PlannedCase {
  idx_t rows, cols;
  double density;
  int nslots;
};

class PlannedKernels : public ::testing::TestWithParam<PlannedCase> {};

TEST_P(PlannedKernels, CsrPlannedBitwiseMatchesDynamic) {
  const auto& param = GetParam();
  const auto a =
      testutil::random_csr(param.rows, param.cols, param.density, 61);
  const auto x = testutil::random_vector(param.cols, 62);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -1.0f);
  sparse::spmv_csr(a, x, expected);
  const auto plan = sparse::ApplyPlan::build(
      sparse::partition_nnz(a, sparse::kCsrPartsize), param.nslots);
  sparse::spmv_csr_planned(a, sparse::kCsrPartsize, plan, x, actual);
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                           actual.size() * sizeof(real)));
}

TEST_P(PlannedKernels, EllPlannedBitwiseMatchesDynamic) {
  const auto& param = GetParam();
  const auto a =
      testutil::random_csr(param.rows, param.cols, param.density, 63);
  const auto ell = sparse::to_ell_block(a, 16);
  const auto x = testutil::random_vector(param.cols, 64);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -1.0f);
  sparse::spmv_ell(ell, x, expected);
  const auto plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(ell), param.nslots);
  sparse::Workspace ws(param.nslots, 0, ell.block_rows);
  sparse::spmv_ell_planned(ell, plan, ws, x, actual);
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                           actual.size() * sizeof(real)));
}

TEST_P(PlannedKernels, BufferedPlannedBitwiseMatchesDynamic) {
  const auto& param = GetParam();
  const auto a =
      testutil::random_csr(param.rows, param.cols, param.density, 65);
  const sparse::BufferConfig config{16, 64};
  const auto bm = sparse::build_buffered(a, config);
  const auto x = testutil::random_vector(param.cols, 66);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -1.0f);
  sparse::spmv_buffered(bm, x, expected);
  const auto plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(bm), param.nslots);
  sparse::Workspace ws(param.nslots, config.buffsize, config.partsize);
  sparse::spmv_buffered_planned(bm, plan, ws, x, actual);
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                           actual.size() * sizeof(real)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlannedKernels,
    ::testing::Values(PlannedCase{1, 1, 1.0, 1}, PlannedCase{16, 16, 0.5, 2},
                      PlannedCase{100, 80, 0.1, 4},
                      PlannedCase{257, 129, 0.05, 8},
                      PlannedCase{512, 300, 0.02, 3},
                      PlannedCase{13, 30, 0.4, 16},  // more slots than parts
                      PlannedCase{40, 40, 0.0, 4}));

TEST(PlannedKernels, RejectsMismatchedPlan) {
  const auto a = testutil::random_csr(100, 80, 0.1, 67);
  const auto x = testutil::random_vector(80, 68);
  AlignedVector<real> y(100);
  // Plan built for a different partition granularity.
  const auto plan = sparse::ApplyPlan::build(sparse::partition_nnz(a, 8), 2);
  EXPECT_THROW(sparse::spmv_csr_planned(a, sparse::kCsrPartsize, plan, x, y),
               InvariantError);
}

TEST(PlannedKernels, UndersizedWorkspaceThrows) {
  // The capacity check runs before the parallel region, so an undersized
  // workspace surfaces as an exception instead of terminating the process.
  const auto a = testutil::random_csr(600, 500, 0.05, 71);
  const auto bm = sparse::build_buffered(a, {128, 4096});
  const auto cbuf = sparse::compress_buffered(bm, sparse::ValueStorage::Bf16);
  const auto plan = sparse::ApplyPlan::build(sparse::partition_nnz(bm), 2);
  sparse::Workspace small(2, 16, 16);
  const idx_t k = 8;
  const auto x = testutil::random_vector(a.num_cols * k, 72);
  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows) * k);
  const auto x1 = std::span<const real>(x).first(
      static_cast<std::size_t>(a.num_cols));
  const auto y1 = std::span<real>(y).first(static_cast<std::size_t>(a.num_rows));
  EXPECT_THROW(sparse::spmv_buffered_planned(bm, plan, small, x1, y1),
               InvariantError);
  EXPECT_THROW(sparse::spmm_buffered_planned(bm, plan, small, k, x, y),
               InvariantError);
  EXPECT_THROW(sparse::spmv_buffered_planned(cbuf, plan, small, x1, y1),
               InvariantError);
  EXPECT_THROW(sparse::spmm_buffered_planned(cbuf, plan, small, k, x, y),
               InvariantError);
}

TEST(PlannedKernels, BufferedPartitionWeightsMatchCsr) {
  // The buffered layout reorders entries stage-major but each partition's
  // nnz must equal the CSR rows it covers.
  const auto a = testutil::banded_csr(200, 180, 9, 69);
  const sparse::BufferConfig config{32, 64};
  const auto bm = sparse::build_buffered(a, config);
  const auto csr_weights = sparse::partition_nnz(a, config.partsize);
  const auto buf_weights = sparse::partition_nnz(bm);
  ASSERT_EQ(csr_weights.size(), buf_weights.size());
  for (std::size_t p = 0; p < csr_weights.size(); ++p)
    EXPECT_EQ(csr_weights[p], buf_weights[p]) << "partition " << p;
}

// --- Workspace -------------------------------------------------------------

TEST(Workspace, ProvidesRequestedCapacities) {
  sparse::Workspace ws(3, 64, 16);
  EXPECT_EQ(ws.num_slots(), 3);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(ws.input(s).size(), 64u);
    EXPECT_EQ(ws.output(s).size(), 16u);
    for (const real v : ws.input(s)) EXPECT_EQ(v, real{0});
  }
}

// --- Operator integration --------------------------------------------------

TEST(StaticPlanOperator, MatchesDynamicScheduleForAllKernels) {
  using core::KernelKind;
  using core::ScheduleKind;
  for (const auto kind : {KernelKind::Baseline, KernelKind::EllBlock,
                          KernelKind::Buffered, KernelKind::Library}) {
    const auto a = testutil::banded_csr(300, 280, 10, 71);
    const core::MemXCTOperator dynamic_op(a, kind, {16, 64}, 8,
                                          ScheduleKind::Dynamic);
    const core::MemXCTOperator planned_op(a, kind, {16, 64}, 8,
                                          ScheduleKind::StaticPlan);
    const auto x = testutil::random_vector(280, 72);
    const auto y = testutil::random_vector(300, 73);
    AlignedVector<real> fwd_dyn(300), fwd_plan(300), bwd_dyn(280),
        bwd_plan(280);
    dynamic_op.apply(x, fwd_dyn);
    planned_op.apply(x, fwd_plan);
    dynamic_op.apply_transpose(y, bwd_dyn);
    planned_op.apply_transpose(y, bwd_plan);
    EXPECT_EQ(0, std::memcmp(fwd_dyn.data(), fwd_plan.data(),
                             fwd_dyn.size() * sizeof(real)))
        << core::to_string(kind);
    EXPECT_EQ(0, std::memcmp(bwd_dyn.data(), bwd_plan.data(),
                             bwd_dyn.size() * sizeof(real)))
        << core::to_string(kind);
  }
}

TEST(StaticPlanOperator, ReportsPlanStats) {
  const auto a = testutil::banded_csr(400, 360, 12, 75);
  const auto op = with_threads(4, [&] {
    return core::MemXCTOperator(a, core::KernelKind::Buffered, {16, 64});
  });
  const auto fwd = op.forward_plan_stats();
  const auto bwd = op.transpose_plan_stats();
  EXPECT_EQ(fwd.num_slots, 4);
  EXPECT_EQ(fwd.total_nnz, a.nnz());
  EXPECT_EQ(bwd.total_nnz, a.nnz());
  EXPECT_GE(fwd.imbalance(), 1.0);
  // Banded matrices have near-uniform partitions; the static split must be
  // close to perfect.
  EXPECT_LT(fwd.imbalance(), 1.5);
}

TEST(StaticPlanOperator, ApplyIsAllocationFree) {
  using core::KernelKind;
  for (const auto kind : {KernelKind::Baseline, KernelKind::EllBlock,
                          KernelKind::Buffered, KernelKind::Library}) {
    const auto a = testutil::banded_csr(512, 480, 14, 77);
    const core::MemXCTOperator op(a, kind, {32, 128}, 16);
    const auto x = testutil::random_vector(480, 78);
    const auto y = testutil::random_vector(512, 79);
    AlignedVector<real> fwd(512), bwd(480);
    // Warm-up: OpenMP team startup may allocate on the first region.
    op.apply(x, fwd);
    op.apply_transpose(y, bwd);
    const std::int64_t new_before = g_new_count.load();
    const std::int64_t aligned_before = aligned_alloc_count().load();
    for (int rep = 0; rep < 5; ++rep) {
      op.apply(x, fwd);
      op.apply_transpose(y, bwd);
    }
    EXPECT_EQ(g_new_count.load() - new_before, 0)
        << "operator new called during apply: " << core::to_string(kind);
    EXPECT_EQ(aligned_alloc_count().load() - aligned_before, 0)
        << "AlignedAllocator used during apply: " << core::to_string(kind);
  }
}

// --- Determinism across thread counts --------------------------------------

TEST(Determinism, CglsBitwiseIdenticalAcrossThreadCounts) {
  const auto a = testutil::banded_csr(320, 260, 11, 81);
  AlignedVector<real> y(320);
  {
    const auto x_true = testutil::random_vector(260, 82);
    sparse::spmv_reference(a, x_true, y);
  }
  const auto solve_with = [&](int nthreads) {
    return with_threads(nthreads, [&] {
      const core::MemXCTOperator op(a, core::KernelKind::Buffered, {16, 64});
      solve::CglsOptions opt;
      opt.max_iterations = 25;
      return solve::cgls(op, y, opt);
    });
  };
  const auto r1 = solve_with(1);
  const auto r2 = solve_with(2);
  const auto r8 = solve_with(8);
  ASSERT_EQ(r1.x.size(), r2.x.size());
  ASSERT_EQ(r1.x.size(), r8.x.size());
  EXPECT_EQ(0, std::memcmp(r1.x.data(), r2.x.data(),
                           r1.x.size() * sizeof(real)));
  EXPECT_EQ(0, std::memcmp(r1.x.data(), r8.x.data(),
                           r1.x.size() * sizeof(real)));
  ASSERT_EQ(r1.history.size(), r8.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].residual_norm, r8.history[i].residual_norm);
    EXPECT_EQ(r1.history[i].solution_norm, r8.history[i].solution_norm);
  }
}

TEST(Determinism, DotIsThreadCountInvariant) {
  const auto a = testutil::random_vector(100000, 83);
  const auto b = testutil::random_vector(100000, 84);
  const double d1 = with_threads(1, [&] { return solve::dot(a, b); });
  const double d3 = with_threads(3, [&] { return solve::dot(a, b); });
  const double d8 = with_threads(8, [&] { return solve::dot(a, b); });
  EXPECT_EQ(d1, d3);
  EXPECT_EQ(d1, d8);
}

// --- Fused kernels match unfused references --------------------------------

TEST(FusedKernels, Axpy2MatchesTwoAxpys) {
  const auto p = testutil::random_vector(10000, 85);
  const auto q = testutil::random_vector(7000, 86);
  auto x = testutil::random_vector(10000, 87);
  auto r = testutil::random_vector(7000, 88);
  auto x_ref = x;
  auto r_ref = r;
  solve::axpy(0.75f, p, x_ref);
  solve::axpy(-0.25f, q, r_ref);
  solve::axpy2(0.75f, p, x, -0.25f, q, r);
  EXPECT_EQ(0, std::memcmp(x.data(), x_ref.data(), x.size() * sizeof(real)));
  EXPECT_EQ(0, std::memcmp(r.data(), r_ref.data(), r.size() * sizeof(real)));
}

TEST(FusedKernels, XpbyNormMatchesXpbyPlusNorm) {
  const auto s = testutil::random_vector(9000, 89);
  const auto r = testutil::random_vector(5000, 90);
  auto p = testutil::random_vector(9000, 91);
  auto p_ref = p;
  solve::xpby(s, 0.4f, p_ref);
  const double rnorm_ref = solve::norm2(r);
  const double rnorm = solve::xpby_norm(s, 0.4f, p, r);
  EXPECT_EQ(0, std::memcmp(p.data(), p_ref.data(), p.size() * sizeof(real)));
  EXPECT_LE(ulp_diff(rnorm, rnorm_ref), 1);
}

TEST(FusedKernels, AxpyDotMatchesAxpyPlusDot) {
  const auto x = testutil::random_vector(12000, 92);
  auto y = testutil::random_vector(12000, 93);
  auto y_ref = y;
  solve::axpy(-0.3f, x, y_ref);
  const double dot_ref = solve::dot(y_ref, y_ref);
  const double dot_fused = solve::axpy_dot(-0.3f, x, y);
  EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(real)));
  EXPECT_LE(ulp_diff(dot_fused, dot_ref), 1);
}

TEST(FusedKernels, SubtractNormMatchesSubtractPlusNorm) {
  const auto a = testutil::random_vector(11000, 94);
  const auto b = testutil::random_vector(11000, 95);
  AlignedVector<real> y(11000), y_ref(11000);
  solve::subtract(a, b, y_ref);
  const double norm_ref = solve::norm2(y_ref);
  const double norm_fused = solve::subtract_norm(a, b, y);
  EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(real)));
  EXPECT_LE(ulp_diff(norm_fused, norm_ref), 1);
}

TEST(FusedKernels, SirtKernelsMatchUnfusedReference) {
  const auto a = testutil::random_vector(8000, 96);
  const auto b = testutil::random_vector(8000, 97);
  auto w = testutil::random_vector(8000, 98);
  for (auto& v : w) v = std::abs(v) + 0.1f;  // positive diagonal weights
  AlignedVector<real> y(8000), y_ref(8000);
  solve::subtract(a, b, y_ref);
  const double norm_ref = solve::norm2(y_ref);
  for (std::size_t i = 0; i < y_ref.size(); ++i) y_ref[i] *= w[i];
  const double norm_fused = solve::sub_scale_norm(a, b, w, y);
  EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(real)));
  EXPECT_LE(ulp_diff(norm_fused, norm_ref), 1);

  const auto g = testutil::random_vector(8000, 99);
  auto x = testutil::random_vector(8000, 100);
  auto x_ref = x;
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    x_ref[i] += 0.9f * w[i] * g[i];
  const double xx_ref = solve::dot(x_ref, x_ref);
  const double xx = solve::diag_axpy_dot(0.9f, w, g, x);
  EXPECT_EQ(0, std::memcmp(x.data(), x_ref.data(), x.size() * sizeof(real)));
  EXPECT_LE(ulp_diff(xx, xx_ref), 1);
}

// --- EarlyStop ring buffer --------------------------------------------------

TEST(EarlyStopRing, LongRunBehavesLikeUnboundedHistory) {
  // Reference semantics: stop when the improvement over the last `window`
  // entries drops below tolerance. Feed a long geometric decay (never
  // triggers) followed by a plateau (triggers after `window` entries).
  solve::EarlyStop stop(1e-3, 3);
  double r = 1e6;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(stop.should_stop(r)) << "iteration " << i;
    r *= 0.998;  // 0.6% improvement over a 3-window, above tolerance
  }
  EXPECT_FALSE(stop.should_stop(r));
  EXPECT_FALSE(stop.should_stop(r));
  EXPECT_FALSE(stop.should_stop(r));
  EXPECT_TRUE(stop.should_stop(r));  // window_ entries with ~0 improvement
}

TEST(EarlyStopRing, ZeroResidualStopsImmediatelyAfterWindow) {
  solve::EarlyStop stop(1e-3, 2);
  EXPECT_FALSE(stop.should_stop(0.0));
  EXPECT_FALSE(stop.should_stop(0.0));
  EXPECT_TRUE(stop.should_stop(0.0));  // prev <= 0 → converged
}

}  // namespace
}  // namespace memxct
