// Tests for the partitioned projection: the paper's reduce-direction
// traffic counts (shard::reduce_traffic), the sharded operator across rank
// counts, and Trace's compute-centric distribution (DistCompXctOperator).
#include <gtest/gtest.h>

#include <cstring>

#include "dist/dist_compxct.hpp"
#include "dist/partition.hpp"
#include "geometry/projector.hpp"
#include "shard/plan.hpp"
#include "shard/sharded_operator.hpp"
#include "solve/sirt.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::dist {
namespace {

struct DistSetup {
  sparse::CsrMatrix a;
  DomainPartition sino;
  DomainPartition tomo;
};

DistSetup make_setup(int ranks) {
  const auto g = geometry::make_geometry(20, 24);
  const hilbert::Ordering sino_ord(g.sinogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo_ord(g.tomogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  auto a = geometry::build_projection_matrix(g, sino_ord, tomo_ord);
  auto sino = partition_by_tiles(sino_ord, ranks);
  auto tomo = partition_by_tiles(tomo_ord, ranks);
  return {std::move(a), std::move(sino), std::move(tomo)};
}

shard::ReduceTraffic count_traffic(const DistSetup& s) {
  return shard::reduce_traffic(s.a, s.sino, s.tomo);
}

// The sharded operator at rank counts past the shard suite's {1..4},
// including P = 16 on this 480-row matrix, where some shards own no rows.
shard::ShardedOperator make_sharded(const sparse::CsrMatrix& a, int ranks) {
  shard::ShardedOperator::Options opt;
  opt.num_shards = ranks;
  opt.kernel = shard::LocalKernel::BaselineCsr;
  return shard::ShardedOperator(a, opt);
}

bool bitwise_equal(std::span<const real> a, std::span<const real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, ForwardMatchesSerial) {
  const auto setup = make_setup(GetParam());
  const auto op = make_sharded(setup.a, GetParam());
  const auto x = testutil::random_vector(setup.a.num_cols, 71);
  AlignedVector<real> y_dist(static_cast<std::size_t>(setup.a.num_rows));
  AlignedVector<real> y_serial(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y_dist);
  sparse::spmv_csr(setup.a, x, y_serial);
  EXPECT_TRUE(bitwise_equal(y_dist, y_serial));
}

TEST_P(RankSweep, TransposeMatchesSerial) {
  const auto setup = make_setup(GetParam());
  const auto op = make_sharded(setup.a, GetParam());
  const auto at = sparse::transpose(setup.a);
  const auto y = testutil::random_vector(setup.a.num_rows, 72);
  AlignedVector<real> x_dist(static_cast<std::size_t>(setup.a.num_cols));
  AlignedVector<real> x_serial(static_cast<std::size_t>(setup.a.num_cols));
  op.apply_transpose(y, x_dist);
  sparse::spmv_csr(at, y, x_serial);
  EXPECT_TRUE(bitwise_equal(x_dist, x_serial));
}

TEST_P(RankSweep, ApplyStatsAreRecorded) {
  const auto setup = make_setup(GetParam());
  const auto op = make_sharded(setup.a, GetParam());
  const auto x = testutil::random_vector(setup.a.num_cols, 73);
  AlignedVector<real> y(static_cast<std::size_t>(setup.a.num_rows));
  op.apply(x, y);
  op.apply(x, y);
  const auto& stats = op.stats();
  EXPECT_EQ(stats.applies, 2);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GE(stats.compute_sum_seconds, stats.compute_seconds);
  EXPECT_GE(stats.comm_seconds, 0.0);
  if (GetParam() > 1) {
    EXPECT_GT(stats.comm_modeled_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 4, 7, 16));

TEST(ReduceTraffic, SingleRankPartialRowsAreTheNonEmptyRows) {
  // One rank owns every column, so each non-empty row of A is exactly one
  // partial row, kept on the rank: C moves nothing.
  const auto s1 = make_setup(1);
  std::int64_t non_empty = 0;
  for (idx_t r = 0; r < s1.a.num_rows; ++r)
    non_empty += s1.a.displ[r + 1] > s1.a.displ[r] ? 1 : 0;
  const auto t1 = count_traffic(s1);
  EXPECT_EQ(t1.total_partial_rows(), non_empty);
  EXPECT_EQ(t1.rank_nnz[0], s1.a.nnz());
  EXPECT_EQ(t1.rank_stats(0).bytes_sent, 0);
  EXPECT_EQ(t1.rank_stats(0).messages_received, 0);
}

TEST(ReduceTraffic, PartialRowsGrowWithRanks) {
  // Table 1: nnz(C) = total partial rows grows ~ sqrt(P); must be
  // monotone in P and exceed the serial row count for P > 1.
  const auto s1 = make_setup(1);
  const auto t1 = count_traffic(s1);
  const auto t4 = count_traffic(make_setup(4));
  const auto t16 = count_traffic(make_setup(16));
  EXPECT_LE(t1.total_partial_rows(),
            static_cast<std::int64_t>(s1.a.num_rows));
  EXPECT_GT(t4.total_partial_rows(), t1.total_partial_rows());
  EXPECT_GT(t16.total_partial_rows(), t4.total_partial_rows());
}

TEST(ReduceTraffic, PerRankMemoryShrinksWithRanks) {
  // The memory-scaling headline: per-rank footprint decreases with P.
  const auto t1 = count_traffic(make_setup(1));
  const auto t8 = count_traffic(make_setup(8));
  std::int64_t max8 = 0;
  for (int r = 0; r < 8; ++r)
    max8 = std::max(max8, t8.rank_memory_bytes[static_cast<std::size_t>(r)]);
  EXPECT_LT(max8, t1.rank_memory_bytes[0]);
}

TEST(ReduceTraffic, TrafficMatrixConservation) {
  // Forward exchange: total sent elements == total partial rows, every
  // rank's A_p nonzeros add up to A's, and off-rank bytes sent equal bytes
  // received across ranks.
  const auto setup = make_setup(4);
  const auto t = count_traffic(setup);
  std::int64_t total = 0;
  for (const auto v : t.traffic) total += v;
  EXPECT_EQ(total, t.total_partial_rows());
  std::int64_t nnz = 0, sent = 0, received = 0;
  for (int r = 0; r < 4; ++r) {
    nnz += t.rank_nnz[static_cast<std::size_t>(r)];
    sent += t.rank_stats(r).bytes_sent;
    received += t.rank_stats(r).bytes_received;
  }
  EXPECT_EQ(nnz, setup.a.nnz());
  EXPECT_EQ(sent, received);
  EXPECT_GT(sent, 0);
}

class CompXctRankSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompXctRankSweep, DistributedCompXctMatchesSerialMatrix) {
  // Trace's parallelization (ray blocks + replicas + ring allreduce) must
  // compute the same forward/backprojection as the memoized serial matrix.
  const auto g = geometry::make_geometry(14, 16);
  const auto a = geometry::build_projection_matrix_natural(g);
  const auto at = sparse::transpose(a);
  const DistCompXctOperator op(g, GetParam());
  const auto x = testutil::random_vector(a.num_cols, 95);
  const auto y = testutil::random_vector(a.num_rows, 96);

  AlignedVector<real> y_dist(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y_ref(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y_dist);
  sparse::spmv_reference(a, x, y_ref);
  EXPECT_LT(testutil::rel_error(y_dist, y_ref), 1e-5);

  AlignedVector<real> x_dist(static_cast<std::size_t>(a.num_cols));
  AlignedVector<real> x_ref(static_cast<std::size_t>(a.num_cols));
  op.apply_transpose(y, x_dist);
  sparse::spmv_reference(at, y, x_ref);
  EXPECT_LT(testutil::rel_error(x_dist, x_ref), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Ranks, CompXctRankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8));

TEST(DistCompXct, AllreduceBytesIndependentOfRanks) {
  // Table 1's contrast: Trace's per-rank allreduce traffic stays O(N²)
  // regardless of P (it is the whole duplicated domain), while MemXCT's
  // per-rank traffic shrinks with P.
  const auto g = geometry::make_geometry(12, 16);
  const auto y = testutil::random_vector(
      static_cast<idx_t>(g.sinogram_extent().size()), 97);
  AlignedVector<real> x(static_cast<std::size_t>(g.tomogram_extent().size()));
  std::int64_t bytes4 = 0, bytes8 = 0;
  {
    const DistCompXctOperator op(g, 4);
    op.apply_transpose(y, x);
    bytes4 = op.rank_bytes_sent(0);
  }
  {
    const DistCompXctOperator op(g, 8);
    op.apply_transpose(y, x);
    bytes8 = op.rank_bytes_sent(0);
  }
  const auto domain_bytes =
      static_cast<std::int64_t>(g.tomogram_extent().size()) * 4;
  // Ring allreduce: 2·(P-1)/P·N²·4 B per rank — within 2x of 2·N²·4 for
  // both P, i.e. NOT shrinking with P.
  EXPECT_GT(bytes4, domain_bytes);
  EXPECT_GT(bytes8, domain_bytes);
  EXPECT_LT(std::abs(bytes8 - bytes4), domain_bytes / 2);
  EXPECT_GT(DistCompXctOperator(g, 4).replica_bytes(), 0);
}

TEST(DistCompXct, SolverPlugAndPlay) {
  // SIRT through the distributed compute-centric operator equals SIRT
  // through the serial matrix (end-to-end, including the allreduce).
  const auto g = geometry::make_geometry(10, 12);
  const auto a = geometry::build_projection_matrix_natural(g);

  class SerialOp final : public solve::LinearOperator {
   public:
    explicit SerialOp(const sparse::CsrMatrix& m)
        : a_(m), at_(sparse::transpose(m)) {}
    idx_t num_rows() const override { return a_.num_rows; }
    idx_t num_cols() const override { return a_.num_cols; }
    void apply(std::span<const real> x, std::span<real> y) const override {
      sparse::spmv_csr(a_, x, y);
    }
    void apply_transpose(std::span<const real> y,
                         std::span<real> x) const override {
      sparse::spmv_csr(at_, y, x);
    }

   private:
    const sparse::CsrMatrix& a_;
    sparse::CsrMatrix at_;
  } serial(a);

  const DistCompXctOperator dist(g, 3);
  const auto y = testutil::random_vector(a.num_rows, 98);
  const auto r_dist = solve::sirt(dist, y, {.max_iterations = 6});
  const auto r_serial = solve::sirt(serial, y, {.max_iterations = 6});
  EXPECT_LT(testutil::rel_error(r_dist.x, r_serial.x), 1e-3);
}

}  // namespace
}  // namespace memxct::dist
