// Tests for the multi-stage input-buffered SpMV (Listing 3, Section 3.3).
#include <gtest/gtest.h>
#include <omp.h>

#include "common/error.hpp"

#include <cstring>
#include <functional>
#include <set>
#include <string>

#include "geometry/projector.hpp"
#include "sparse/buffered.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

struct BufferedCase {
  idx_t rows, cols;
  double density;
  BufferConfig config;
};

class BufferedSweep : public ::testing::TestWithParam<BufferedCase> {};

TEST_P(BufferedSweep, MatchesReference) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 41);
  const BufferedMatrix bm = build_buffered(a, param.config);
  const auto x = testutil::random_vector(param.cols, 42);
  AlignedVector<real> expected(static_cast<std::size_t>(param.rows));
  AlignedVector<real> actual(static_cast<std::size_t>(param.rows), -3.0f);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST_P(BufferedSweep, StructureIsValid) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 43);
  const BufferedMatrix bm = build_buffered(a, param.config);
  EXPECT_NO_THROW(bm.validate());
  EXPECT_EQ(bm.nnz(), a.nnz());
  // Every stage respects the 16-bit buffer bound.
  for (idx_t s = 0; s < bm.num_stages(); ++s)
    EXPECT_LE(bm.stagenz[static_cast<std::size_t>(s)], bm.config.buffsize);
}

TEST_P(BufferedSweep, MapCoversExactlyPartitionFootprints) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 45);
  const BufferedMatrix bm = build_buffered(a, param.config);
  // For each partition, the union of its stage maps must equal the set of
  // distinct columns its rows touch.
  for (idx_t p = 0; p < bm.num_partitions(); ++p) {
    std::set<idx_t> expected_cols;
    const idx_t r0 = p * bm.config.partsize;
    const idx_t r1 = std::min<idx_t>(r0 + bm.config.partsize, a.num_rows);
    for (idx_t r = r0; r < r1; ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        expected_cols.insert(a.ind[k]);
    std::set<idx_t> staged_cols;
    for (idx_t s = bm.partdispl[static_cast<std::size_t>(p)];
         s < bm.partdispl[static_cast<std::size_t>(p) + 1]; ++s)
      for (nnz_t m = bm.stagedispl[static_cast<std::size_t>(s)];
           m < bm.stagedispl[static_cast<std::size_t>(s) + 1]; ++m)
        staged_cols.insert(bm.map[static_cast<std::size_t>(m)]);
    EXPECT_EQ(staged_cols, expected_cols) << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferedSweep,
    ::testing::Values(
        BufferedCase{1, 1, 1.0, {1, 1}},
        BufferedCase{16, 16, 0.5, {4, 8}},
        BufferedCase{100, 80, 0.1, {128, 4096}},
        BufferedCase{100, 80, 0.1, {8, 16}},   // many small stages
        BufferedCase{63, 200, 0.2, {16, 32}},  // footprint > buffer
        BufferedCase{257, 129, 0.05, {32, 64}},
        BufferedCase{512, 300, 0.02, {128, 256}},
        BufferedCase{40, 40, 0.0, {16, 64}},   // empty matrix
        BufferedCase{10, 70000, 0.9, {4, 65536}}));  // max buffsize bound

TEST(Buffered, MultipleStagesWhenFootprintExceedsBuffer) {
  // A partition touching 100 distinct columns with a 32-entry buffer needs
  // ceil(100/32) = 4 stages.
  CsrBuilder b(2, 100);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 100; ++c) row.emplace_back(c, 1.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const CsrMatrix a = b.assemble();
  const BufferedMatrix bm = build_buffered(a, {2, 32});
  EXPECT_EQ(bm.num_partitions(), 1);
  EXPECT_EQ(bm.num_stages(), 4);
  EXPECT_EQ(bm.total_staged(), 100);  // distinct columns staged once
}

TEST(Buffered, SharedFootprintStagedOnce) {
  // Rows of one partition sharing columns stage them once — the data-reuse
  // benefit of Section 3.3.1. Two identical rows with 10 columns stage 10
  // words, not 20.
  CsrBuilder b(2, 50);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t c = 0; c < 10; ++c) row.emplace_back(c * 5, 2.0f);
  b.set_row(0, row);
  b.set_row(1, row);
  const BufferedMatrix bm = build_buffered(b.assemble(), {2, 64});
  EXPECT_EQ(bm.total_staged(), 10);
}

TEST(Buffered, SixteenBitIndexBound) {
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 65537}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {0, 16}),
               InvariantError);
  EXPECT_THROW(build_buffered(testutil::random_csr(4, 4, 1.0, 1), {4, 0}),
               InvariantError);
}

TEST(Buffered, BandwidthAccountingUsesTwoByteIndices) {
  const CsrMatrix a = testutil::random_csr(64, 64, 0.2, 47);
  const BufferedMatrix bm = build_buffered(a, {16, 128});
  const auto work = buffered_work(bm);
  EXPECT_EQ(work.nnz, a.nnz());
  EXPECT_DOUBLE_EQ(work.bytes_per_fma(), 6.0);  // 2 B index + 4 B value
  EXPECT_EQ(work.staged_words, bm.total_staged());
  // Regular bytes = 6·nnz + 8·staged (map read + gathered value).
  EXPECT_DOUBLE_EQ(work.regular_bytes(),
                   6.0 * static_cast<double>(a.nnz()) +
                       8.0 * static_cast<double>(bm.total_staged()));
}

TEST(Buffered, LastPartialPartitionHandled) {
  // num_rows not divisible by partsize: trailing rows must still be exact.
  const CsrMatrix a = testutil::random_csr(13, 30, 0.4, 49);
  const BufferedMatrix bm = build_buffered(a, {8, 16});
  const auto x = testutil::random_vector(30, 50);
  AlignedVector<real> expected(13), actual(13);
  spmv_reference(a, x, expected);
  spmv_buffered(bm, x, actual);
  EXPECT_LT(testutil::rel_error(actual, expected), 1e-5);
}

TEST(Buffered, HilbertLikeBandedMatrixFewStages) {
  // Banded (compact-footprint) matrices — what pseudo-Hilbert ordering
  // produces — need few stages per partition.
  const CsrMatrix a = testutil::banded_csr(512, 512, 16, 51);
  const BufferedMatrix bm = build_buffered(a, {64, 256});
  // Each 64-row partition touches ≲ 64+2*16 distinct columns < 256.
  EXPECT_EQ(bm.num_stages(), bm.num_partitions());
}

// ---------------------------------------------------------------------------
// The prefetching run walker (for_each_in_run) must visit exactly the plain
// loop's entries in the same order, so every sum it feeds is bitwise equal.
// ---------------------------------------------------------------------------

/// Walks the run [b, e) of `bm`'s stream, k lanes per entry, and checks
/// that it visits the plain loop's entries in order and that its k sums are
/// memcmp-equal to the plain strict-order loop's.
void expect_walker_matches_plain_loop(const BufferedMatrix& bm, nnz_t b,
                                      nnz_t e, idx_t k) {
  const auto kk = static_cast<std::size_t>(k);
  const auto input = testutil::random_vector(bm.config.buffsize * k, 71);
  std::vector<real> walked(kk, 0), plain(kk, 0);
  std::vector<buf_idx_t> slots;
  std::vector<real> vals;
  for_each_in_run(bm.ind.data(), bm.val.data(), bm.nnz(), b, e,
                  [&](buf_idx_t slot, real v) {
                    slots.push_back(slot);
                    vals.push_back(v);
                    for (std::size_t s = 0; s < kk; ++s)
                      walked[s] += input[slot * kk + s] * v;
                  });
  for (nnz_t i = b; i < e; ++i)
    for (std::size_t s = 0; s < kk; ++s)
      plain[s] += input[bm.ind[i] * kk + s] * bm.val[i];
  EXPECT_EQ(std::memcmp(walked.data(), plain.data(), kk * sizeof(real)), 0)
      << "run [" << b << ", " << e << ") at k = " << k;
  const auto n = static_cast<std::size_t>(e - b);
  ASSERT_EQ(slots.size(), n) << "run [" << b << ", " << e << ")";
  if (n == 0) return;  // memcmp may not take the empty vectors' null data
  EXPECT_EQ(std::memcmp(slots.data(), bm.ind.data() + b,
                        n * sizeof(buf_idx_t)), 0);
  EXPECT_EQ(std::memcmp(vals.data(), bm.val.data() + b, n * sizeof(real)), 0);
}

TEST(RunWalker, BitwiseEqualToPlainLoopAtEveryLength) {
  // Values spanning many magnitudes make any reordering of a sum visible.
  CsrMatrix a = testutil::random_csr(64, 512, 0.5, 67);
  for (nnz_t i = 0; i < a.nnz(); ++i)
    a.val[i] *= static_cast<real>(1 << (i % 23));
  const BufferedMatrix bm = build_buffered(a, {16, 256});
  const nnz_t nnz = bm.nnz();
  ASSERT_GT(nnz, kStreamPrefetchAhead + 4 * kStreamChunk);
  for (const idx_t k : {1, 3, 8}) {
    for (nnz_t len = 0; len <= 2 * kStreamChunk + 3; ++len) {
      expect_walker_matches_plain_loop(bm, 0, len, k);  // chunk-aligned start
      expect_walker_matches_plain_loop(bm, 5, 5 + len, k);  // unaligned
      // Ending at the last nonzero: the prefetch index clamps to nnz - 1.
      expect_walker_matches_plain_loop(bm, nnz - len, nnz, k);
    }
    // Chunk-aligned runs, whole chunks only, with and without a clamp.
    for (const nnz_t chunks : {1, 2, 5, 40}) {
      const nnz_t len = chunks * kStreamChunk;
      for (const nnz_t b : {nnz_t{0}, kStreamChunk, nnz - len})
        expect_walker_matches_plain_loop(bm, b, b + len, k);
    }
    // The whole stream in one run.
    expect_walker_matches_plain_loop(bm, 0, nnz, k);
  }
}

// ---------------------------------------------------------------------------
// Oracle: the production build must reproduce the reference builder
// (testutil::reference_build_buffered) byte for byte, at any thread count.

// Rows [first, last) emptied: whole empty partitions and stray empty rows.
CsrMatrix with_empty_rows(const CsrMatrix& a, idx_t first, idx_t last) {
  CsrBuilder b(a.num_rows, a.num_cols);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t r = 0; r < a.num_rows; ++r) {
    row.clear();
    if (r < first || r >= last)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        row.emplace_back(a.ind[k], a.val[k]);
    b.set_row(r, row);
  }
  return b.assemble();
}

// Every `partsize`-row partition touches exactly `width` distinct columns.
CsrMatrix exact_footprints(idx_t rows, idx_t partsize, idx_t width) {
  const idx_t parts = ceil_div(rows, partsize);
  CsrBuilder b(rows, parts * width);
  std::vector<std::pair<idx_t, real>> row;
  for (idx_t r = 0; r < rows; ++r) {
    row.clear();
    const idx_t base = (r / partsize) * width;
    for (idx_t c = r % partsize; c < width; c += partsize)
      row.emplace_back(base + c, static_cast<real>(r + 1) / (c + 1));
    b.set_row(r, row);
  }
  return b.assemble();
}

CsrMatrix projection_matrix() {
  const auto g = geometry::make_geometry(20, 24);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino, tomo);
}

struct OracleCase {
  std::string name;
  std::function<CsrMatrix()> matrix;
  BufferConfig config;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

std::vector<OracleCase> oracle_cases() {
  return {
      {"Buffsize1", [] { return testutil::random_csr(37, 50, 0.2, 61); },
       {8, 1}},
      {"Buffsize65536",
       [] { return testutil::random_csr(10, 70000, 0.9, 62); },
       {4, 65536}},
      {"FootprintIsBuffsizeMultiple",
       [] { return exact_footprints(64, 16, 96); },
       {16, 32}},
      {"FootprintEqualsBuffsize",
       [] { return exact_footprints(30, 8, 64); },
       {8, 64}},
      {"EmptyRowsAndPartitions",
       [] {
         return with_empty_rows(testutil::random_csr(100, 60, 0.15, 63), 16,
                                53);
       },
       {16, 32}},
      {"EmptyMatrix", [] { return testutil::random_csr(40, 40, 0.0, 64); },
       {16, 64}},
      {"RaggedLastPartition",
       [] { return testutil::random_csr(13, 30, 0.4, 65); },
       {8, 16}},
      {"ProjectionMatrix", [] { return projection_matrix(); }, {32, 256}},
      {"ProjectionMatrixTranspose",
       [] { return transpose(projection_matrix()); },
       {64, 128}},
      {"ProjectionMatrixBuffsize1", [] { return projection_matrix(); },
       {16, 1}},
  };
}

TEST(Footprint, BitmapReadBackEqualsSortUnique) {
  // collect and count against sort + unique on seeded random column lists:
  // empty, one column, the last column, a num_cols off a multiple of 64,
  // tiny and full-width footprints, and many calls on one index so that a
  // bit left set by one call would show up in the next.
  for (const idx_t num_cols : {1, 63, 64, 65, 1000, 70001}) {
    FootprintIndex footprint(num_cols);
    Rng rng(static_cast<std::uint64_t>(num_cols));
    const auto check = [&](const std::vector<idx_t>& cols) {
      std::vector<idx_t> want = cols;
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      EXPECT_EQ(footprint.count(cols), static_cast<idx_t>(want.size()));
      EXPECT_EQ(footprint.collect(cols), want);
      std::vector<idx_t> out(want.size());
      footprint.collect(cols, out);
      EXPECT_EQ(out, want);
    };
    SCOPED_TRACE(num_cols);
    check({});
    check({0});
    check({num_cols - 1});
    check({num_cols - 1, 0, num_cols - 1});
    for (int call = 0; call < 40; ++call) {
      // Spans from one column to the whole width; lengths up to 3x it.
      const auto span = static_cast<idx_t>(
          1 + rng.next_u64() % static_cast<std::uint64_t>(num_cols));
      const auto lo = static_cast<idx_t>(
          rng.next_u64() % static_cast<std::uint64_t>(num_cols - span + 1));
      std::vector<idx_t> cols(rng.next_u64() % (3 * span + 1));
      for (idx_t& c : cols)
        c = lo + static_cast<idx_t>(rng.next_u64() %
                                    static_cast<std::uint64_t>(span));
      check(cols);
    }
    // A too-short output throws and still leaves the index empty.
    if (num_cols == 1) continue;
    std::vector<idx_t> few(1);
    EXPECT_THROW(footprint.collect(std::vector<idx_t>{0, num_cols - 1}, few),
                 InvariantError);
    check({num_cols / 2});
  }
}

/// `a` with each row's entries in a seeded random order: a CSR matrix only
/// in layout, as the direct trace hands rows to StagedBuilder::place.
CsrMatrix shuffled_rows(CsrMatrix a, std::uint64_t seed) {
  Rng rng(seed);
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r + 1] - 1; k > a.displ[r]; --k) {
      const nnz_t other =
          a.displ[r] + static_cast<nnz_t>(rng.next_u64() % static_cast<
                                               std::uint64_t>(k - a.displ[r] + 1));
      std::swap(a.ind[static_cast<std::size_t>(k)],
                a.ind[static_cast<std::size_t>(other)]);
      std::swap(a.val[static_cast<std::size_t>(k)],
                a.val[static_cast<std::size_t>(other)]);
    }
  return a;
}

TEST(StagedBuilder, UnsortedRowsPlaceAsSortedBytewise) {
  // place() reads a row's entries in any column order; the bytes are the
  // reference builder's of the sorted rows, at partsize {1, 7, 128} x
  // buffsize {1, 64, 100, 65536}.
  const CsrMatrix a = testutil::random_csr(150, 300, 0.3, 71);
  const CsrMatrix shuffled = shuffled_rows(a, 72);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(3);
  for (const idx_t partsize : {1, 7, 128})
    for (const idx_t buffsize : {1, 64, 100, 65536}) {
      const BufferConfig config{partsize, buffsize};
      SCOPED_TRACE(testing::Message() << partsize << " x " << buffsize);
      testutil::expect_same_buffered(
          build_buffered(shuffled, config),
          testutil::reference_build_buffered(a, config));
    }
  omp_set_num_threads(saved);
}

TEST(StagedBuilder, RepeatedColumnInARowThrows) {
  CsrMatrix a = testutil::random_csr(20, 40, 0.3, 73);
  ASSERT_GE(a.displ[6] - a.displ[5], 2);
  a.ind[static_cast<std::size_t>(a.displ[5] + 1)] =
      a.ind[static_cast<std::size_t>(a.displ[5])];
  for (const idx_t buffsize : {1, 64, 4096})
    EXPECT_THROW(static_cast<void>(build_buffered(a, {8, buffsize})),
                 InvariantError);
}

class BufferedOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(BufferedOracle, MatchesReferenceBuilderBytewise) {
  const auto& param = GetParam();
  const CsrMatrix a = param.matrix();
  const BufferedMatrix want =
      testutil::reference_build_buffered(a, param.config);
  ASSERT_NO_THROW(want.validate());
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 3, 4}) {
    omp_set_num_threads(threads);
    SCOPED_TRACE(threads);
    testutil::expect_same_buffered(build_buffered(a, param.config), want);
  }
  omp_set_num_threads(saved);
}

TEST_P(BufferedOracle, StagedTransposeMatchesReferenceBytewise) {
  // The backward read straight from the buffered forward is the reference
  // build of the CSR transpose, whatever the forward's own threads.
  const auto& param = GetParam();
  const CsrMatrix a = param.matrix();
  const BufferedMatrix want =
      testutil::reference_build_buffered(transpose(a), param.config);
  const BufferedMatrix fwd = build_buffered(a, param.config);
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 3, 4}) {
    omp_set_num_threads(threads);
    SCOPED_TRACE(threads);
    testutil::expect_same_buffered(build_buffered_transpose(fwd, param.config),
                                   want);
  }
  omp_set_num_threads(saved);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BufferedOracle, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace memxct::sparse
