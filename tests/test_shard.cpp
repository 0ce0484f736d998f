// Tests for the sharded serving subsystem: partition-aligned row cuts,
// precomputed exchange plans, and the ShardedOperator's headline contract —
// bitwise parity with the serial P=1 path for any shard count, kernel
// family, SpMM width, group size, and pipeline depth.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>

#include "common/aligned.hpp"
#include "common/grid.hpp"
#include "core/opkey.hpp"
#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/phantom.hpp"
#include "serve/server.hpp"
#include "shard/partition.hpp"
#include "shard/plan.hpp"
#include "shard/sharded_operator.hpp"
#include "solve/cgls.hpp"
#include "sparse/footprint.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::shard {
namespace {

sparse::CsrMatrix make_matrix() {
  const auto g = geometry::make_geometry(20, 24);
  const hilbert::Ordering sino_ord(g.sinogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo_ord(g.tomogram_extent(),
                                   hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino_ord, tomo_ord);
}

bool bitwise_equal(std::span<const real> a, std::span<const real> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

// ---------------------------------------------------------------------------
// Partition-aligned row cuts.

TEST(PartitionAligned, CutsSnapToPartsizeAndCoverAllRows) {
  const auto a = make_matrix();
  const idx_t partsize = 32;
  for (const int shards : {1, 2, 3, 4, 7}) {
    const auto part = partition_rows_aligned(a, shards, partsize);
    EXPECT_EQ(part.num_ranks(), shards);
    EXPECT_EQ(part.begin(0), 0);
    EXPECT_EQ(part.end(shards - 1), a.num_rows);
    for (int p = 0; p + 1 < shards; ++p) {
      EXPECT_EQ(part.end(p) % partsize, 0)
          << "interior cut " << p << " not partition-aligned";
      EXPECT_LE(part.begin(p), part.end(p));
    }
  }
}

TEST(PartitionAligned, BalancesNnzAcrossShards) {
  const auto a = make_matrix();
  const auto part = partition_rows_aligned(a, 4, 32);
  // nnz-greedy alignment on a dense-ish projection matrix should stay well
  // under 2x imbalance.
  std::int64_t max_nnz = 0;
  for (int p = 0; p < 4; ++p)
    max_nnz = std::max<std::int64_t>(
        max_nnz, a.displ[static_cast<std::size_t>(part.end(p))] -
                     a.displ[static_cast<std::size_t>(part.begin(p))]);
  EXPECT_LT(static_cast<double>(max_nnz) * 4.0,
            2.0 * static_cast<double>(a.nnz()));
}

// ---------------------------------------------------------------------------
// Exchange-plan construction (synthetic footprints, no operator involved).

struct PlanFixture {
  dist::DomainPartition owner{4, {0, 10, 20, 30, 40}};
  std::vector<std::vector<idx_t>> footprint;
  std::vector<std::vector<int>> first_tile;

  PlanFixture() {
    // Shard 0 needs its own range plus a halo from shards 1 and 3; shard 1
    // is self-contained; shard 2 needs entries from everyone; shard 3 needs
    // shard 2's tail.
    footprint = {{0, 3, 9, 12, 15, 31},
                 {10, 11, 19},
                 {2, 8, 14, 21, 25, 33, 39},
                 {26, 29, 30, 35}};
    for (const auto& f : footprint)
      first_tile.emplace_back(f.size(), 0);
  }
};

// Every non-self footprint position receives exactly one scattered element;
// every self position is gathered locally exactly once. Nothing is delivered
// twice and nothing is missed.
void expect_exactly_once(const ExchangePlan& plan,
                         const std::vector<std::vector<idx_t>>& footprint) {
  for (int q = 0; q < plan.num_shards; ++q) {
    std::multiset<idx_t> covered(plan.self_pos[static_cast<std::size_t>(q)].begin(),
                                 plan.self_pos[static_cast<std::size_t>(q)].end());
    for (int t = 0; t < plan.tiles; ++t)
      for (int r = 0; r < plan.rounds_per_tile; ++r) {
        const Round& round = plan.round(t, r);
        if (round.to_staging) continue;  // staging hop, not a delivery
        for (const idx_t pos : round.scatter_pos[static_cast<std::size_t>(q)])
          covered.insert(pos);
      }
    ASSERT_EQ(covered.size(), footprint[static_cast<std::size_t>(q)].size())
        << "shard " << q;
    idx_t expect = 0;
    for (const idx_t pos : covered)
      EXPECT_EQ(pos, expect++) << "shard " << q << ": position delivered "
                                  "zero or multiple times";
  }
}

TEST(ExchangePlan, FlatPlanDeliversEachHaloEntryExactlyOnce) {
  const PlanFixture f;
  const auto plan =
      build_exchange_plan(f.owner, f.footprint, f.first_tile, 1, 1);
  EXPECT_EQ(plan.rounds_per_tile, 1);
  expect_exactly_once(plan, f.footprint);
}

TEST(ExchangePlan, TwoLevelPlanDeliversEachHaloEntryExactlyOnce) {
  const PlanFixture f;
  const auto plan =
      build_exchange_plan(f.owner, f.footprint, f.first_tile, 1, 2);
  EXPECT_EQ(plan.rounds_per_tile, 2);
  expect_exactly_once(plan, f.footprint);
}

TEST(ExchangePlan, TiledPlanDeliversEachHaloEntryExactlyOnceAcrossTiles) {
  PlanFixture f;
  // Spread first-need across three tiles round-robin.
  for (auto& ft : f.first_tile)
    for (std::size_t i = 0; i < ft.size(); ++i)
      ft[i] = static_cast<int>(i % 3);
  const auto plan =
      build_exchange_plan(f.owner, f.footprint, f.first_tile, 3, 1);
  EXPECT_EQ(plan.tiles, 3);
  expect_exactly_once(plan, f.footprint);
}

TEST(ExchangePlan, EmptyOverlapPairsGetZeroByteEntries) {
  // Block-diagonal needs: every shard's footprint lies inside its own range,
  // so every rank pair's plan entry must be zero bytes and the halo empty.
  const dist::DomainPartition owner(3, {0, 10, 20, 30});
  const std::vector<std::vector<idx_t>> footprint = {
      {0, 4, 9}, {10, 15}, {22, 29}};
  std::vector<std::vector<int>> first_tile;
  for (const auto& fp : footprint) first_tile.emplace_back(fp.size(), 0);
  const auto plan = build_exchange_plan(owner, footprint, first_tile, 1, 1);
  EXPECT_EQ(plan.halo_elements(), 0);
  const Round& round = plan.round(0, 0);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(round.pack_index[static_cast<std::size_t>(p)].empty());
    for (int q = 0; q < 3; ++q)
      EXPECT_EQ(round.send_displ[static_cast<std::size_t>(p)]
                               [static_cast<std::size_t>(q + 1)],
                round.send_displ[static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(q)])
          << "pair (" << p << "," << q << ") should be a zero-byte entry";
  }
  // Self entries still resolve locally.
  for (int q = 0; q < 3; ++q)
    EXPECT_EQ(plan.self_index[static_cast<std::size_t>(q)].size(),
              footprint[static_cast<std::size_t>(q)].size());
}

TEST(ExchangePlan, RebuildsAreByteIdentical) {
  const PlanFixture f;
  for (const int group : {1, 2}) {
    const auto p1 =
        build_exchange_plan(f.owner, f.footprint, f.first_tile, 2, group);
    const auto p2 =
        build_exchange_plan(f.owner, f.footprint, f.first_tile, 2, group);
    EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
    EXPECT_FALSE(p1.fingerprint().empty());
  }
}

TEST(ExchangePlan, OperatorPlansAreDeterministicAcrossRebuilds) {
  // Same matrix + same options (the opkey's shard fields) => byte-identical
  // plans: the property the registry's single-flight builds rely on.
  const auto a = make_matrix();
  const ShardedOperator::Options opt{.num_shards = 3};
  const ShardedOperator op1(a, opt);
  const ShardedOperator op2(a, opt);
  EXPECT_EQ(op1.forward_plan().fingerprint(),
            op2.forward_plan().fingerprint());
  EXPECT_EQ(op1.transpose_plan().fingerprint(),
            op2.transpose_plan().fingerprint());
}

// ---------------------------------------------------------------------------
// Operator-level bitwise parity with the serial kernels.

struct ShardCase {
  int shards;
  LocalKernel kernel;
};

class ShardSweep : public ::testing::TestWithParam<ShardCase> {};

ShardedOperator::Options case_options(const ShardCase& c) {
  ShardedOperator::Options opt;
  opt.num_shards = c.shards;
  opt.kernel = c.kernel;
  opt.buffer = {32, 256};  // small partitions so P=4 still has several
  return opt;
}

// Serial reference: the exact kernels the P=1 operator family runs.
void serial_reference(const sparse::CsrMatrix& a, const ShardCase& c,
                      std::span<const real> x, std::span<real> y) {
  if (c.kernel == LocalKernel::Buffered) {
    const auto buffered = sparse::build_buffered(a, {32, 256});
    sparse::spmv_buffered(buffered, x, y);
  } else {
    sparse::spmv_csr(a, x, y);
  }
}

TEST_P(ShardSweep, ForwardIsBitwiseEqualToSerial) {
  const auto a = make_matrix();
  const ShardedOperator op(a, case_options(GetParam()));
  const auto x = testutil::random_vector(a.num_cols, 71);
  AlignedVector<real> y_shard(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y_serial(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y_shard);
  serial_reference(a, GetParam(), x, y_serial);
  EXPECT_TRUE(bitwise_equal(y_shard, y_serial));
}

TEST_P(ShardSweep, TransposeIsBitwiseEqualToSerial) {
  const auto a = make_matrix();
  const auto at = sparse::transpose(a);
  const ShardedOperator op(a, case_options(GetParam()));
  const auto y = testutil::random_vector(a.num_rows, 72);
  AlignedVector<real> x_shard(static_cast<std::size_t>(a.num_cols));
  AlignedVector<real> x_serial(static_cast<std::size_t>(a.num_cols));
  op.apply_transpose(y, x_shard);
  serial_reference(at, GetParam(), y, x_serial);
  EXPECT_TRUE(bitwise_equal(x_shard, x_serial));
}

TEST_P(ShardSweep, BlockApplyLanesAreBitwiseEqualToSingleApplies) {
  const auto a = make_matrix();
  const ShardedOperator op(a, case_options(GetParam()));
  const idx_t k = 3;
  const auto n = a.num_cols;
  const auto m = a.num_rows;
  AlignedVector<real> x(static_cast<std::size_t>(n * k));
  for (idx_t s = 0; s < k; ++s) {
    const auto slice = testutil::random_vector(n, 80 + s);
    std::copy(slice.begin(), slice.end(),
              x.begin() + static_cast<std::ptrdiff_t>(s * n));
  }
  AlignedVector<real> y_block(static_cast<std::size_t>(m * k));
  op.apply_block(x, y_block, k);
  AlignedVector<real> y_single(static_cast<std::size_t>(m));
  for (idx_t s = 0; s < k; ++s) {
    op.apply(std::span<const real>(x).subspan(
                 static_cast<std::size_t>(s * n), static_cast<std::size_t>(n)),
             y_single);
    EXPECT_TRUE(bitwise_equal(
        std::span<const real>(y_block).subspan(
            static_cast<std::size_t>(s * m), static_cast<std::size_t>(m)),
        y_single))
        << "lane " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ShardSweep,
    ::testing::Values(ShardCase{1, LocalKernel::BaselineCsr},
                      ShardCase{2, LocalKernel::BaselineCsr},
                      ShardCase{3, LocalKernel::BaselineCsr},
                      ShardCase{4, LocalKernel::BaselineCsr},
                      ShardCase{1, LocalKernel::Buffered},
                      ShardCase{2, LocalKernel::Buffered},
                      ShardCase{3, LocalKernel::Buffered},
                      ShardCase{4, LocalKernel::Buffered}));

TEST(ShardedOperator, TwoLevelExchangeKeepsBitwiseParity) {
  const auto a = make_matrix();
  ShardedOperator::Options flat;
  flat.num_shards = 4;
  ShardedOperator::Options grouped = flat;
  grouped.group_size = 2;
  const ShardedOperator op_flat(a, flat);
  const ShardedOperator op_grouped(a, grouped);
  EXPECT_EQ(op_grouped.forward_plan().rounds_per_tile, 2);
  const auto x = testutil::random_vector(a.num_cols, 81);
  AlignedVector<real> y1(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y2(static_cast<std::size_t>(a.num_rows));
  op_flat.apply(x, y1);
  op_grouped.apply(x, y2);
  EXPECT_TRUE(bitwise_equal(y1, y2));
}

TEST(ShardedOperator, PipelineDepthDoesNotChangeBits) {
  const auto a = make_matrix();
  AlignedVector<real> reference;
  const auto x = testutil::random_vector(a.num_cols, 82);
  for (const int tiles : {1, 2, 4}) {
    ShardedOperator::Options opt;
    opt.num_shards = 3;
    opt.pipeline_tiles = tiles;
    const ShardedOperator op(a, opt);
    AlignedVector<real> y(static_cast<std::size_t>(a.num_rows));
    op.apply(x, y);
    if (reference.empty()) reference = y;
    EXPECT_TRUE(bitwise_equal(reference, y)) << "tiles=" << tiles;
  }
}

TEST(ShardedOperator, PerRankBytesShrinkWithShardCount) {
  const auto a = make_matrix();
  auto max_rank_bytes = [&](int shards) {
    ShardedOperator::Options opt;
    opt.num_shards = shards;
    const ShardedOperator op(a, opt);
    std::int64_t max_bytes = 0;
    for (int p = 0; p < shards; ++p)
      max_bytes = std::max(max_bytes, op.rank_bytes(p));
    return max_bytes;
  };
  const auto b1 = max_rank_bytes(1);
  const auto b2 = max_rank_bytes(2);
  const auto b4 = max_rank_bytes(4);
  EXPECT_LT(b2, b1);
  EXPECT_LT(b4, b2);
}

TEST(ShardedOperator, StatsAccumulateAndReset) {
  const auto a = make_matrix();
  ShardedOperator::Options opt;
  opt.num_shards = 2;
  const ShardedOperator op(a, opt);
  const auto x = testutil::random_vector(a.num_cols, 83);
  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y);
  op.apply(x, y);
  EXPECT_EQ(op.stats().applies, 2);
  EXPECT_GT(op.stats().compute_seconds, 0.0);
  EXPECT_GT(op.stats().comm_seconds, 0.0);
  EXPECT_GT(op.rank_comm_stats(0).bytes_sent, 0);
  op.reset_stats();
  EXPECT_EQ(op.stats().applies, 0);
  EXPECT_EQ(op.stats().comm_seconds, 0.0);
  EXPECT_EQ(op.rank_comm_stats(0).bytes_sent, 0);
}

TEST(ShardedOperator, CancelTokenDepipelinesButOutputStaysCorrect) {
  const auto a = make_matrix();
  ShardedOperator::Options opt;
  opt.num_shards = 2;
  opt.pipeline_tiles = 4;
  ShardedOperator op(a, opt);
  const auto x = testutil::random_vector(a.num_cols, 84);
  AlignedVector<real> y_plain(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y_plain);

  solve::CancelToken token;
  token.request_cancel();  // fires at the first between-tile poll
  op.set_cancel_token(&token);
  AlignedVector<real> y_cancelled(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y_cancelled);
  op.set_cancel_token(nullptr);

  // Correctness is unconditional; the pipeline just stops prefetching.
  EXPECT_TRUE(bitwise_equal(y_plain, y_cancelled));
  EXPECT_GT(op.stats().cancel_polls, 0);
  EXPECT_GT(op.stats().depipelined_tiles, 0);
}

TEST(ShardedOperator, ViewsShareStorageButNotCounters) {
  const auto a = make_matrix();
  ShardedOperator::Options opt;
  opt.num_shards = 2;
  const ShardedOperator op(a, opt);
  const auto view = op.make_view();
  const auto x = testutil::random_vector(a.num_cols, 85);
  AlignedVector<real> y1(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y2(static_cast<std::size_t>(a.num_rows));
  op.apply(x, y1);
  view->apply(x, y2);
  EXPECT_TRUE(bitwise_equal(y1, y2));
  EXPECT_EQ(op.stats().applies, 1);
  EXPECT_EQ(view->stats().applies, 1);  // not 2: counters are per view
  EXPECT_EQ(op.bytes(), view->bytes());
}

// ---------------------------------------------------------------------------
// The shard build runs its blocks in parallel; what it stores must not
// depend on the thread count or on being nested inside a worker's region.

struct BuildSnapshot {
  std::string fwd_plan, bwd_plan;
  std::vector<idx_t> sino_cuts, tomo_cuts;
  std::vector<std::int64_t> rank_bytes;
  int tiles = 0;
  AlignedVector<real> y, x, y_block;
};

BuildSnapshot snapshot(const sparse::CsrMatrix& a,
                       const ShardedOperator::Options& opt) {
  const ShardedOperator op(a, opt);
  BuildSnapshot s;
  s.fwd_plan = op.forward_plan().fingerprint();
  s.bwd_plan = op.transpose_plan().fingerprint();
  for (int p = 0; p <= opt.num_shards; ++p) {
    s.sino_cuts.push_back(p < opt.num_shards ? op.sino_partition().begin(p)
                                             : op.sino_partition().total());
    s.tomo_cuts.push_back(p < opt.num_shards ? op.tomo_partition().begin(p)
                                             : op.tomo_partition().total());
  }
  for (int p = 0; p < opt.num_shards; ++p)
    s.rank_bytes.push_back(op.rank_bytes(p));
  s.tiles = op.pipeline_tiles();
  const idx_t k = 3;
  const auto x = testutil::random_vector(a.num_cols, 91);
  const auto y = testutil::random_vector(a.num_rows, 92);
  const auto xk = testutil::random_vector(a.num_cols * k, 93);
  s.y.resize(static_cast<std::size_t>(a.num_rows));
  s.x.resize(static_cast<std::size_t>(a.num_cols));
  s.y_block.resize(static_cast<std::size_t>(a.num_rows * k));
  op.apply(x, s.y);
  op.apply_transpose(y, s.x);
  op.apply_block(xk, s.y_block, k);
  return s;
}

void expect_same_build(const BuildSnapshot& want, const BuildSnapshot& got) {
  EXPECT_EQ(got.fwd_plan, want.fwd_plan);
  EXPECT_EQ(got.bwd_plan, want.bwd_plan);
  EXPECT_EQ(got.sino_cuts, want.sino_cuts);
  EXPECT_EQ(got.tomo_cuts, want.tomo_cuts);
  EXPECT_EQ(got.rank_bytes, want.rank_bytes);
  EXPECT_EQ(got.tiles, want.tiles);
  EXPECT_TRUE(bitwise_equal(got.y, want.y));
  EXPECT_TRUE(bitwise_equal(got.x, want.x));
  EXPECT_TRUE(bitwise_equal(got.y_block, want.y_block));
}

TEST(ShardBuild, StorageDoesNotDependOnThreadCount) {
  const auto a = make_matrix();
  const int saved = omp_get_max_threads();
  bool saw_empty_shard = false;
  bool saw_empty_tail_tile = false;
  for (const LocalKernel kernel :
       {LocalKernel::BaselineCsr, LocalKernel::Buffered})
    for (const idx_t partsize : {32, 128, 256})
      for (const int shards : {1, 2, 3, 4})
        for (const int tiles : {1, 4})
          for (const int group : {1, 2}) {
            if (kernel == LocalKernel::BaselineCsr && partsize != 32)
              continue;  // the CSR kernel ignores the buffer config
            ShardedOperator::Options opt;
            opt.num_shards = shards;
            opt.kernel = kernel;
            opt.buffer = {partsize, 256};
            opt.pipeline_tiles = tiles;
            opt.group_size = group;
            SCOPED_TRACE(testing::Message()
                         << (kernel == LocalKernel::Buffered ? "buffered"
                                                             : "csr")
                         << " partsize " << partsize << " P " << shards
                         << " tiles " << tiles << " group " << group);
            omp_set_num_threads(1);
            const BuildSnapshot want = snapshot(a, opt);
            for (const int threads : {3, 4}) {
              omp_set_num_threads(threads);
              SCOPED_TRACE(testing::Message() << threads << " threads");
              expect_same_build(want, snapshot(a, opt));
            }
            // A batch or serve worker builds from inside its own region.
            omp_set_num_threads(4);
            std::optional<BuildSnapshot> nested;
#pragma omp parallel num_threads(2)
            {
#pragma omp single
              nested = snapshot(a, opt);
            }
            SCOPED_TRACE("nested in a parallel region");
            expect_same_build(want, *nested);

            // Coverage: empty shards and empty tail tiles occur.
            const idx_t ps = kernel == LocalKernel::Buffered
                                 ? partsize
                                 : sparse::kCsrPartsize;
            for (const auto* cuts : {&want.sino_cuts, &want.tomo_cuts})
              for (int p = 0; p < shards; ++p) {
                const idx_t rows = (*cuts)[static_cast<std::size_t>(p) + 1] -
                                   (*cuts)[static_cast<std::size_t>(p)];
                saw_empty_shard |= rows == 0;
                saw_empty_tail_tile |= (rows + ps - 1) / ps < want.tiles;
              }
          }
  omp_set_num_threads(saved);
  EXPECT_TRUE(saw_empty_shard);
  EXPECT_TRUE(saw_empty_tail_tile);
}

TEST(ShardBuild, BlockFailureThrowsOutOfTheParallelBuild) {
  // A buffer too wide for 16-bit slots fails in the serial staged build of
  // A, before any tile is cut; the block loop's guard still carries a
  // failure inside a block out of the parallel region. The failure reaches
  // the caller as an exception, at any thread count.
  const auto a = make_matrix();
  ShardedOperator::Options opt;
  opt.num_shards = 3;
  opt.buffer = {32, 65537};
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    EXPECT_THROW(ShardedOperator(a, opt), InvariantError) << threads;
  }
  omp_set_num_threads(saved);
}

TEST(ShardBuild, CutTilesMatchBuildBufferedOfCompactedSlices) {
  // A Buffered tile is a range of the serial staged matrix's partitions,
  // cut with its map compacted to the shard's footprint. It must equal, on
  // every array, the buffered build of the footprint-compacted CSR slice
  // the tile was staged from before, in fp32 and in bf16.
  const auto a = make_matrix();
  const auto at = sparse::transpose(a);
  const int tiles = 4;
  bool saw_multistage = false, saw_ragged = false;
  bool saw_empty_shard = false, saw_empty_tail_tile = false;
  for (const idx_t partsize : {32, 128, 256})
    for (const idx_t buffsize : {16, 4096})
      for (const sparse::CsrMatrix* m : {&a, &at}) {
        const sparse::BufferConfig config{partsize, buffsize};
        const auto b = sparse::build_buffered(*m, config);
        const auto b16 =
            sparse::compress_buffered(b, sparse::ValueStorage::Bf16);
        saw_multistage |= b.num_stages() > b.num_partitions();
        saw_ragged |= m->num_rows % partsize != 0;
        sparse::FootprintIndex index(m->num_cols);
        for (const int shards : {1, 3, 4, 7}) {
          const auto cuts = partition_rows_aligned(b, shards);
          const auto csr_cuts = partition_rows_aligned(*m, shards, partsize);
          for (int p = 0; p < shards; ++p) {
            EXPECT_EQ(cuts.begin(p), csr_cuts.begin(p));
            EXPECT_EQ(cuts.end(p), csr_cuts.end(p));
            const auto fp =
                index.collect(m->row_columns(cuts.begin(p), cuts.end(p)));
            index.index(fp);
            const idx_t q0 = ceil_div(cuts.begin(p), partsize);
            const idx_t q1 = ceil_div(cuts.end(p), partsize);
            saw_empty_shard |= q0 == q1;
            for (int t = 0; t < tiles; ++t) {
              const idx_t t0 = q0 + (q1 - q0) * t / tiles;
              const idx_t t1 = q0 + (q1 - q0) * (t + 1) / tiles;
              saw_empty_tail_tile |= q0 < q1 && t0 == t1;
              SCOPED_TRACE(testing::Message()
                           << (m == &a ? "A" : "A^T") << " partsize "
                           << partsize << " buffsize " << buffsize << " P "
                           << shards << " shard " << p << " tile " << t);
              const auto slice = testutil::compacted_slice(
                  *m, std::min(t0 * partsize, m->num_rows),
                  std::min(t1 * partsize, m->num_rows), fp);
              const auto want = sparse::build_buffered(slice, config);
              const auto cols = static_cast<idx_t>(fp.size());
              const auto cut = sparse::cut_partitions(b, t0, t1, index, cols);
              testutil::expect_same_buffered(cut, want);
              testutil::expect_same_buffered(
                  cut, testutil::reference_build_buffered(slice, config));
              testutil::expect_same_buffered(
                  sparse::cut_partitions(b16, t0, t1, index, cols),
                  sparse::compress_buffered(want, sparse::ValueStorage::Bf16));
            }
          }
        }
      }
  EXPECT_TRUE(saw_multistage);
  EXPECT_TRUE(saw_ragged);
  EXPECT_TRUE(saw_empty_shard);
  EXPECT_TRUE(saw_empty_tail_tile);
}

/// Bytes matrix_byte_counter() counts for the Buffered tile cut from rows
/// [r0, r1) of `m`.
std::int64_t tile_bytes(const sparse::BufferedMatrix& m, idx_t r0, idx_t r1) {
  const idx_t ps = m.config.partsize;
  const auto s0 = static_cast<std::size_t>(
      m.partdispl[static_cast<std::size_t>(ceil_div(r0, ps))]);
  const auto s1 = static_cast<std::size_t>(
      m.partdispl[static_cast<std::size_t>(ceil_div(r1, ps))]);
  const auto cells = static_cast<std::int64_t>(s1 - s0) * ps;
  const nnz_t n = m.displ[s1 * static_cast<std::size_t>(ps)] -
                  m.displ[s0 * static_cast<std::size_t>(ps)];
  return (m.stagedispl[s1] - m.stagedispl[s0]) *
             static_cast<std::int64_t>(sizeof(idx_t)) +
         (cells + 1) * static_cast<std::int64_t>(sizeof(nnz_t)) +
         n * static_cast<std::int64_t>(sizeof(buf_idx_t) + sizeof(real));
}

/// The widest tile of one side: each shard of `rows` split into `tiles`
/// blocks of whole partitions, as the build splits it.
std::int64_t widest_tile(const sparse::BufferedMatrix& m,
                         const dist::DomainPartition& rows, int tiles) {
  const idx_t ps = m.config.partsize;
  std::int64_t widest = 0;
  for (int p = 0; p < rows.num_ranks(); ++p) {
    const idx_t rb = rows.begin(p);
    const idx_t local = rows.end(p) - rb;
    const idx_t np = std::max<idx_t>(1, ceil_div(local, ps));
    for (int t = 0; t < tiles; ++t) {
      const idx_t off0 = std::min<idx_t>(local, np * t / tiles * ps);
      const idx_t off1 = std::min<idx_t>(local, np * (t + 1) / tiles * ps);
      if (off1 > off0)
        widest = std::max(widest, tile_bytes(m, rb + off0, rb + off1));
    }
  }
  return widest;
}

/// Bytes of `m`'s arrays under kMatrixMapFloorBytes: heap storage, which
/// release_consumed keeps.
std::int64_t heap_bytes(const sparse::BufferedMatrix& m) {
  std::int64_t b = 0;
  const auto add = [&b](const auto& v) {
    const auto bytes = static_cast<std::int64_t>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
    if (bytes < static_cast<std::int64_t>(kMatrixMapFloorBytes)) b += bytes;
  };
  add(m.map);
  add(m.displ);
  add(m.ind);
  add(m.val);
  add(m.val16);
  return b;
}

TEST(ShardBuild, BufferedBuildHoldsNoCsrMatrix) {
  // A sharded Buffered Reconstructor cuts its tiles from the staged pair:
  // its matrix-byte high-water lies between forward + backward and
  // forward + backward + one side's tiles (a side's tiles hold its
  // source's entries plus one displ word per tile). The CSR-slice build
  // held A + A^T + one side, above that bound. With a cache hit, A is
  // consumed as the forward is staged from it.
  //
  // Each cut consumes its source: once a tile is copied, the source pages
  // it came from are released. So the resident high-water is forward +
  // backward + one tile in flight per thread, plus what cannot be released:
  // the source arrays that live on the heap, and up to two pages per array
  // per block where neighbouring blocks share a page. Holding forward +
  // backward + one side exceeds that bound at 128x96.
  struct Case {
    idx_t angles, channels;
    bool resident;  ///< Arrays mapped, so the resident bound binds.
  };
  for (const Case& geometry_case : {Case{48, 40, false}, Case{128, 96, true}}) {
    const auto g =
        geometry::make_geometry(geometry_case.angles, geometry_case.channels);
    SCOPED_TRACE(testing::Message() << geometry_case.angles << "x"
                                    << geometry_case.channels);
    core::Config config;
    config.ordering = hilbert::CurveKind::Hilbert;
    config.tile_size = 4;
    config.buffer = {32, 256};
    config.num_shards = 4;
    sparse::BufferedMatrix fwd_matrix, bwd_matrix;
    std::int64_t a_bytes = 0, at_bytes = 0, fwd = 0, bwd = 0;
    {
      const hilbert::Ordering sino(g.sinogram_extent(), config.ordering,
                                   config.tile_size);
      const hilbert::Ordering tomo(g.tomogram_extent(), config.ordering,
                                   config.tile_size);
      const auto a = geometry::build_projection_matrix(g, sino, tomo);
      const auto at = sparse::transpose(a);
      a_bytes = testutil::matrix_bytes_of(a);
      at_bytes = testutil::matrix_bytes_of(at);
      fwd_matrix = sparse::build_buffered(a, config.buffer);
      bwd_matrix = sparse::build_buffered(at, config.buffer);
      fwd = testutil::matrix_bytes_of(fwd_matrix);
      bwd = testutil::matrix_bytes_of(bwd_matrix);
    }
    const auto dir = std::filesystem::temp_directory_path() /
                     "memxct_shard_build_memory";
    std::filesystem::remove_all(dir);
    core::Config cached = config;
    cached.cache_dir = dir.string();
    { const core::Reconstructor fill(g, cached); }

    MatrixByteCounter& counter = matrix_byte_counter();
    for (const core::Config* c : {&config, &cached}) {
      SCOPED_TRACE(c->cache_dir.empty() ? "direct" : "cache hit");
      const std::int64_t others = counter.live();
      counter.reset_high_water();
      const core::Reconstructor recon(g, *c);
      EXPECT_EQ(recon.preprocess_report().cache_hit, c == &cached);
      const std::int64_t held = counter.high_water() - others;
      const ShardedOperator& op = *recon.shard_op();
      const int tiles = op.pipeline_tiles();
      const int blocks = config.num_shards * tiles;
      const std::int64_t bound =
          fwd + bwd + std::max(fwd, bwd) +
          2 * blocks * static_cast<std::int64_t>(sizeof(nnz_t));
      EXPECT_GE(held, fwd + bwd);
      EXPECT_LE(held, bound);
      EXPECT_GT(a_bytes + at_bytes + std::min(fwd, bwd), bound);

      const int threads = std::min(omp_get_max_threads(), blocks);
      const std::int64_t in_flight =
          threads *
          std::max(widest_tile(fwd_matrix, op.sino_partition(), tiles),
                   widest_tile(bwd_matrix, op.tomo_partition(), tiles));
      const std::int64_t kept =
          heap_bytes(fwd_matrix) + heap_bytes(bwd_matrix) +
          2 * blocks *
              (8 * static_cast<std::int64_t>(page_bytes()) +
               3 * static_cast<std::int64_t>(sizeof(nnz_t)));
      const std::int64_t resident = fwd + bwd + in_flight + kept;
      EXPECT_LE(held, resident);
      if (geometry_case.resident) {
        EXPECT_LT(heap_bytes(fwd_matrix) + heap_bytes(bwd_matrix),
                  (fwd + bwd) / 4);
        EXPECT_GT(fwd + bwd + std::min(fwd, bwd), resident);
      }
    }
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// End-to-end parity through the Reconstructor.

struct EndToEnd {
  geometry::Geometry g = geometry::make_geometry(36, 24);
  AlignedVector<real> sino;
  EndToEnd() {
    const auto image = phantom::shepp_logan(24);
    sino = phantom::forward_project(g, image);
  }
};

TEST(ShardScaling, ImagesMatchSerialAndRankBytesShrink) {
  // bench_shard_scaling's two structural gates. Every P-shard CGLS image
  // memcmp-equals the serial one (owner-computes + halo duplication: no FP
  // partial sum crosses a shard), and the widest shard's resident bytes
  // shrink as P grows. The geometry's matrix arrays are mapped, so each
  // build releases its cut sources' pages: under the asan preset a tile
  // read from a released page aborts, and without it the zeros it would
  // read break the parity.
  const idx_t size = 96;
  const auto g = geometry::make_geometry(size * 3 / 2, size);
  const auto sino = phantom::forward_project(g, phantom::shepp_logan(size));
  core::Config config;
  config.iterations = 6;
  const core::Reconstructor serial(g, config);
  const auto reference = serial.reconstruct(sino);
  std::int64_t widest = serial.preprocess_report().regular_bytes;
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    core::Config sharded = config;
    sharded.num_shards = shards;
    const core::Reconstructor recon(g, sharded);
    const auto result = recon.reconstruct(sino);
    EXPECT_TRUE(bitwise_equal(result.image, reference.image));
    std::int64_t rank = 0;
    for (int p = 0; p < shards; ++p)
      rank = std::max(rank, recon.shard_op()->rank_bytes(p));
    EXPECT_LT(rank, widest);
    widest = rank;
  }
}

TEST(ShardedReconstruction, CglsImagesAreBitwiseEqualToSerial) {
  const EndToEnd e;
  core::Config config;
  config.iterations = 6;
  const auto serial = core::Reconstructor(e.g, config).reconstruct(e.sino);
  for (const int shards : {2, 3}) {
    core::Config sharded = config;
    sharded.num_shards = shards;
    const core::Reconstructor recon(e.g, sharded);
    ASSERT_NE(recon.shard_op(), nullptr);
    EXPECT_EQ(recon.serial_op(), nullptr);
    const auto result = recon.reconstruct(e.sino);
    EXPECT_TRUE(bitwise_equal(result.image, serial.image))
        << shards << " shards";
  }
}

TEST(ShardedReconstruction, SirtImagesAreBitwiseEqualToSerial) {
  const EndToEnd e;
  core::Config config;
  config.solver = core::SolverKind::SIRT;
  config.iterations = 5;
  const auto serial = core::Reconstructor(e.g, config).reconstruct(e.sino);
  core::Config sharded = config;
  sharded.num_shards = 4;
  sharded.shard_group_size = 2;
  const auto result = core::Reconstructor(e.g, sharded).reconstruct(e.sino);
  EXPECT_TRUE(bitwise_equal(result.image, serial.image));
}

TEST(ShardedReconstruction, BaselineKernelParity) {
  const EndToEnd e;
  core::Config config;
  config.kernel = core::KernelKind::Baseline;
  config.iterations = 5;
  const auto serial = core::Reconstructor(e.g, config).reconstruct(e.sino);
  core::Config sharded = config;
  sharded.num_shards = 3;
  const auto result = core::Reconstructor(e.g, sharded).reconstruct(e.sino);
  EXPECT_TRUE(bitwise_equal(result.image, serial.image));
}

TEST(ShardedReconstruction, DirectAndCacheHitRoutesAreBitwiseEqual) {
  // Without a cache a sharded Reconstructor traces straight into the staged
  // forward; on a cache hit it stages the forward from the cached CSR A.
  // Both cut the same tiles, so their images memcmp-equal each other and
  // the unsharded image.
  const EndToEnd e;
  const auto dir = std::filesystem::temp_directory_path() /
                   "memxct_shard_route_parity";
  std::filesystem::remove_all(dir);
  core::Config config;
  config.iterations = 6;
  const auto serial = core::Reconstructor(e.g, config).reconstruct(e.sino);
  core::Config cached = config;
  cached.cache_dir = dir.string();
  EXPECT_FALSE(core::Reconstructor(e.g, cached).preprocess_report().cache_hit);
  for (const int shards : {2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    core::Config direct = config;
    direct.num_shards = shards;
    cached.num_shards = shards;
    const core::Reconstructor from_trace(e.g, direct);
    const core::Reconstructor from_cache(e.g, cached);
    EXPECT_FALSE(from_trace.preprocess_report().cache_hit);
    EXPECT_TRUE(from_cache.preprocess_report().cache_hit);
    ASSERT_NE(from_trace.shard_op(), nullptr);
    ASSERT_NE(from_cache.shard_op(), nullptr);
    EXPECT_EQ(from_trace.shard_op()->bytes(), from_cache.shard_op()->bytes());
    const auto a = from_trace.reconstruct(e.sino);
    const auto b = from_cache.reconstruct(e.sino);
    EXPECT_TRUE(bitwise_equal(a.image, serial.image));
    EXPECT_TRUE(bitwise_equal(b.image, serial.image));
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedReconstruction, OpkeyDistinguishesShardCounts) {
  const EndToEnd e;
  core::Config c1, c2, c3;
  c2.num_shards = 2;
  c3.num_shards = 3;
  const auto k1 = core::operator_key(e.g, c1).text;
  const auto k2 = core::operator_key(e.g, c2).text;
  const auto k3 = core::operator_key(e.g, c3).text;
  EXPECT_NE(k1, k2);
  EXPECT_NE(k2, k3);
  // The unsharded key text is unchanged from the pre-sharding format — no
  // "-sh" suffix — so existing disk-cache stems stay valid.
  EXPECT_EQ(k1.find("-sh"), std::string::npos);
  EXPECT_NE(k2.find("-sh2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Typed unsupported-configuration rejections (Reconstructor + admission).

TEST(UnsupportedConfig, ShardedPlusReducedPrecisionIsTyped) {
  const EndToEnd e;
  core::Config config;
  config.num_shards = 2;
  config.precision = sparse::ValueStorage::Fp16;
  try {
    const core::Reconstructor recon(e.g, config);
    FAIL() << "expected UnsupportedConfigError";
  } catch (const UnsupportedConfigError& err) {
    EXPECT_EQ(err.flag_a(), "--shards");
    EXPECT_EQ(err.flag_b(), "--precision");
  }
}

TEST(UnsupportedConfig, BaselinePlusReducedPrecisionIsTyped) {
  // Reduced precision is Buffered-only.
  const EndToEnd e;
  for (const auto precision :
       {sparse::ValueStorage::Bf16, sparse::ValueStorage::Fp16}) {
    core::Config config;
    config.kernel = core::KernelKind::Baseline;
    config.precision = precision;
    try {
      const core::Reconstructor recon(e.g, config);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& err) {
      EXPECT_EQ(err.flag_a(), "--kernel");
      EXPECT_EQ(err.flag_b(), "--precision");
    }
  }
}

TEST(UnsupportedConfig, OrderedSubsetsAreRejectedBeforeAnyBuild) {
  // OS-SIRT/OS-SART sweep subset views, which neither the sharded operator
  // nor the EllBlock/Library layouts have. The typed rejection comes from
  // validate_config at the top of the constructor: the trace never runs,
  // so the cache directory stays empty.
  const EndToEnd e;
  const auto dir = std::filesystem::temp_directory_path() /
                   "memxct_shard_os_rejection";
  std::filesystem::remove_all(dir);
  core::Config base;
  base.solver = core::SolverKind::OsSirt;
  base.cache_dir = dir.string();
  core::Config sharded = base;
  sharded.num_shards = 2;
  core::Config ell = base;
  ell.kernel = core::KernelKind::EllBlock;
  core::Config library = base;
  library.kernel = core::KernelKind::Library;
  for (const auto& [config, flag_b] :
       {std::pair{sharded, "--shards"}, std::pair{ell, "--kernel"},
        std::pair{library, "--kernel"}}) {
    try {
      const core::Reconstructor recon(e.g, config);
      FAIL() << "expected UnsupportedConfigError for " << flag_b;
    } catch (const UnsupportedConfigError& err) {
      EXPECT_EQ(err.flag_a(), "--solver");
      EXPECT_EQ(err.flag_b(), flag_b);
    }
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << "a rejected config traced";
}

TEST(UnsupportedConfig, StillCatchableAsInvalidArgument) {
  // Existing catch sites classify caller errors via InvalidArgument; the
  // typed subclass must not change that.
  const EndToEnd e;
  core::Config config;
  config.num_shards = 2;
  config.precision = sparse::ValueStorage::Bf16;
  EXPECT_THROW(core::Reconstructor(e.g, config), InvalidArgument);
}

TEST(UnsupportedConfig, ServeAdmissionRejectsConflictsBeforeQueueing) {
  const EndToEnd e;
  serve::Server server({.workers = 1});
  core::Config config;
  config.iterations = 2;

  core::Config os_shards = config;
  os_shards.solver = core::SolverKind::OsSirt;
  os_shards.num_shards = 2;
  try {
    (void)server.submit(e.g, os_shards, e.sino);
    FAIL() << "expected UnsupportedConfigError";
  } catch (const UnsupportedConfigError& err) {
    EXPECT_EQ(err.flag_a(), "--solver");
    EXPECT_EQ(err.flag_b(), "--shards");
  }

  for (const auto kernel :
       {core::KernelKind::EllBlock, core::KernelKind::Library}) {
    core::Config os_viewless = config;
    os_viewless.solver = core::SolverKind::OsSart;
    os_viewless.kernel = kernel;
    try {
      (void)server.submit(e.g, os_viewless, e.sino);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& err) {
      EXPECT_EQ(err.flag_a(), "--solver");
      EXPECT_EQ(err.flag_b(), "--kernel");
    }
  }

  core::Config shards_bf16 = config;
  shards_bf16.num_shards = 2;
  shards_bf16.precision = sparse::ValueStorage::Bf16;
  try {
    (void)server.submit(e.g, shards_bf16, e.sino);
    FAIL() << "expected UnsupportedConfigError";
  } catch (const UnsupportedConfigError& err) {
    EXPECT_EQ(err.flag_a(), "--shards");
    EXPECT_EQ(err.flag_b(), "--precision");
  }

  for (const auto precision :
       {sparse::ValueStorage::Bf16, sparse::ValueStorage::Fp16}) {
    core::Config baseline_reduced = config;
    baseline_reduced.kernel = core::KernelKind::Baseline;
    baseline_reduced.precision = precision;
    try {
      (void)server.submit(e.g, baseline_reduced, e.sino);
      FAIL() << "expected UnsupportedConfigError";
    } catch (const UnsupportedConfigError& err) {
      EXPECT_EQ(err.flag_a(), "--kernel");
      EXPECT_EQ(err.flag_b(), "--precision");
    }
  }

  // Nothing entered the pipeline: no submissions, no rejections counted.
  const auto m = server.snapshot();
  EXPECT_EQ(m.submitted, 0);
  EXPECT_EQ(m.completed, 0);
}

// ---------------------------------------------------------------------------
// Serving sharded operators end to end.

TEST(ShardedServe, RequestsAreBitwiseEqualToUnshardedAndMetricsPopulate) {
  const EndToEnd e;
  serve::Server server({.workers = 2});
  core::Config config;
  config.iterations = 5;
  core::Config sharded = config;
  sharded.num_shards = 2;

  const auto id_plain = server.submit(e.g, config, e.sino);
  const auto id_shard1 = server.submit(e.g, sharded, e.sino);
  const auto id_shard2 = server.submit(e.g, sharded, e.sino);
  const auto r_plain = server.wait(id_plain);
  const auto r_shard1 = server.wait(id_shard1);
  const auto r_shard2 = server.wait(id_shard2);
  ASSERT_EQ(r_plain.status, serve::RequestStatus::Ok);
  ASSERT_EQ(r_shard1.status, serve::RequestStatus::Ok);
  ASSERT_EQ(r_shard2.status, serve::RequestStatus::Ok);
  EXPECT_TRUE(bitwise_equal(r_shard1.image, r_plain.image));
  EXPECT_TRUE(bitwise_equal(r_shard2.image, r_plain.image));
  // Same geometry, different num_shards: distinct registry keys, so the
  // second sharded request is the only possible registry hit.
  EXPECT_FALSE(r_shard1.registry_hit && r_plain.registry_hit);

  const auto m = server.snapshot();
  EXPECT_EQ(m.shard.sharded_requests, 2);
  EXPECT_EQ(m.shard.shards, 2);
  ASSERT_EQ(m.shard.rank_bytes_sent.size(), 2u);
  EXPECT_GT(m.shard.rank_bytes_sent[0], 0);
  EXPECT_GT(m.shard.rank_bytes_received[1], 0);
  EXPECT_GT(m.shard.compute_seconds, 0.0);
  // comm + overlap_saved reassemble the raw modeled exchange time.
  EXPECT_GE(m.shard.comm_seconds, 0.0);
  EXPECT_GT(m.shard.comm_seconds + m.shard.overlap_saved_seconds, 0.0);
}

TEST(ShardedServe, RegistryCachesShardedOperatorsWithByteAccounting) {
  const EndToEnd e;
  serve::OperatorRegistry registry;
  core::Config config;
  config.iterations = 2;
  config.num_shards = 2;
  auto lease1 = registry.acquire(e.g, config);
  EXPECT_FALSE(lease1.hit);
  auto lease2 = registry.acquire(e.g, config);
  EXPECT_TRUE(lease2.hit);
  EXPECT_EQ(lease1.recon.get(), lease2.recon.get());
  ASSERT_NE(lease1.recon->shard_op(), nullptr);
  const auto stats = registry.stats();
  EXPECT_EQ(stats.resident_operators, 1);
  EXPECT_EQ(stats.resident_bytes, lease1.recon->shard_op()->bytes());
}

TEST(ShardedReconstruction, SolverRunsPlugAndPlay) {
  // The sharded operator is a LinearOperator like any other: CGLS over it
  // must equal CGLS over the serial kernels bit for bit.
  const auto a = make_matrix();
  ShardedOperator::Options opt;
  opt.num_shards = 3;
  opt.kernel = LocalKernel::BaselineCsr;
  const ShardedOperator op(a, opt);

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

  const auto y = testutil::random_vector(a.num_rows, 91);
  const auto r_shard = solve::cgls(op, y, {.max_iterations = 8});
  const auto r_serial = solve::cgls(serial, y, {.max_iterations = 8});
  EXPECT_TRUE(bitwise_equal(r_shard.x, r_serial.x));
}

}  // namespace
}  // namespace memxct::shard
