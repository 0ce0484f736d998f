// Tests for projection-matrix construction in ordered index spaces.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "geometry/projector.hpp"
#include "geometry/siddon.hpp"
#include "sparse/buffered.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::geometry {
namespace {

TEST(Projector, DimensionsAndValidity) {
  const Geometry g = make_geometry(12, 16);
  const auto a = build_projection_matrix_natural(g);
  EXPECT_EQ(a.num_rows, 12 * 16);
  EXPECT_EQ(a.num_cols, 16 * 16);
  EXPECT_NO_THROW(a.validate());
  EXPECT_GT(a.nnz(), 0);
}

TEST(Projector, RowSumsEqualChordLengths) {
  const Geometry g = make_geometry(10, 24);
  const auto a = build_projection_matrix_natural(g);
  for (idx_t i = 0; i < a.num_rows; ++i) {
    double sum = 0.0;
    for (nnz_t k = a.displ[i]; k < a.displ[i + 1]; ++k) sum += a.val[k];
    const double chord =
        chord_length(g, i / g.num_channels, i % g.num_channels);
    EXPECT_NEAR(sum, chord, 1e-4) << "ray " << i;
  }
}

TEST(Projector, AdjointIdentityViaScanTranspose) {
  const Geometry g = make_geometry(15, 20);
  const auto a = build_projection_matrix_natural(g);
  const auto at = sparse::transpose(a);
  const auto x = testutil::random_vector(a.num_cols, 5);
  const auto y = testutil::random_vector(a.num_rows, 6);
  AlignedVector<real> ax(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> aty(static_cast<std::size_t>(a.num_cols));
  sparse::spmv_reference(a, x, ax);
  sparse::spmv_reference(at, y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (idx_t i = 0; i < a.num_rows; ++i)
    lhs += static_cast<double>(ax[i]) * y[i];
  for (idx_t i = 0; i < a.num_cols; ++i)
    rhs += static_cast<double>(x[i]) * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-6);
}

class OrderingKinds
    : public ::testing::TestWithParam<hilbert::CurveKind> {};

TEST_P(OrderingKinds, OrderedMatrixIsPermutationOfNatural) {
  // Forward projection through the ordered matrix must equal the natural
  // result after de-permutation, for any ordering.
  const Geometry g = make_geometry(14, 18);
  const hilbert::Ordering sino(g.sinogram_extent(), GetParam(), 4);
  const hilbert::Ordering tomo(g.tomogram_extent(), GetParam(), 4);
  const auto a_nat = build_projection_matrix_natural(g);
  const auto a_ord = build_projection_matrix(g, sino, tomo);
  ASSERT_EQ(a_nat.nnz(), a_ord.nnz());
  a_ord.validate();

  const auto x_nat = testutil::random_vector(a_nat.num_cols, 9);
  AlignedVector<real> x_ord(x_nat.size());
  for (std::size_t i = 0; i < x_ord.size(); ++i)
    x_ord[i] = x_nat[static_cast<std::size_t>(tomo.to_grid()[i])];

  AlignedVector<real> y_nat(static_cast<std::size_t>(a_nat.num_rows));
  AlignedVector<real> y_ord(static_cast<std::size_t>(a_ord.num_rows));
  sparse::spmv_reference(a_nat, x_nat, y_nat);
  sparse::spmv_reference(a_ord, x_ord, y_ord);
  for (std::size_t i = 0; i < y_ord.size(); ++i)
    EXPECT_NEAR(y_ord[i], y_nat[static_cast<std::size_t>(sino.to_grid()[i])],
                1e-4)
        << "ordered row " << i;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OrderingKinds,
                         ::testing::Values(hilbert::CurveKind::RowMajor,
                                           hilbert::CurveKind::Hilbert,
                                           hilbert::CurveKind::Morton));

TEST(Projector, HilbertOrderingCompactsRowFootprints) {
  // The reason Hilbert ordering enables buffering: the spread of column
  // indices within a row shrinks versus row-major column numbering.
  const Geometry g = make_geometry(24, 32);
  const hilbert::Ordering sino_h(g.sinogram_extent(),
                                 hilbert::CurveKind::Hilbert, 8);
  const hilbert::Ordering tomo_h(g.tomogram_extent(),
                                 hilbert::CurveKind::Hilbert, 8);
  const auto a_nat = build_projection_matrix_natural(g);
  const auto a_h = build_projection_matrix(g, sino_h, tomo_h);

  // Fig 5's metric: distinct 64 B cache lines (16 float indices) a ray's
  // gather stream touches. Hilbert column numbering maps lines to 4x4
  // blocks, so rays at arbitrary angles reuse lines far better than with
  // row-major numbering.
  const auto total_lines = [](const sparse::CsrMatrix& m) {
    std::int64_t total = 0;
    for (idx_t r = 0; r < m.num_rows; ++r) {
      std::set<idx_t> lines;
      for (nnz_t k = m.displ[r]; k < m.displ[r + 1]; ++k)
        lines.insert(m.ind[k] / 16);
      total += static_cast<std::int64_t>(lines.size());
    }
    return total;
  };
  EXPECT_LT(total_lines(a_h), 0.8 * static_cast<double>(total_lines(a_nat)));
}

// The fill pass as it was before the radix sort: every traced row's ordered
// columns sorted by std::sort, one row at a time.
sparse::CsrMatrix reference_trace(const Geometry& g,
                                  const hilbert::Ordering& sino,
                                  const hilbert::Ordering& tomo) {
  sparse::CsrMatrix a;
  a.num_rows = static_cast<idx_t>(g.sinogram_extent().size());
  a.num_cols = static_cast<idx_t>(g.tomogram_extent().size());
  a.displ.assign(1, 0);
  std::vector<std::pair<idx_t, real>> segments, ordered;
  for (idx_t i = 0; i < a.num_rows; ++i) {
    const Cell rc = sino.cell(i);
    trace_ray(g, rc.row, rc.col, segments);
    ordered.clear();
    for (const auto& [pixel, length] : segments)
      ordered.emplace_back(
          tomo.to_ordered()[static_cast<std::size_t>(pixel)], length);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [col, v] : ordered) {
      a.ind.push_back(col);
      a.val.push_back(v);
    }
    a.displ.push_back(static_cast<nnz_t>(a.ind.size()));
  }
  return a;
}

TEST(Projector, RadixSortedRowsMatchComparisonSortBitwise) {
  // Odd and even sizes, a limited-angle scan, every ordering, and tiled
  // orderings: the radix-sorted rows are the std::sort rows byte for byte.
  const std::vector<Geometry> geometries = {
      make_geometry(37, 29), make_geometry(16, 16), make_geometry(9, 40),
      make_limited_angle_geometry(23, 31, 3.14159265358979323846 / 3)};
  for (const Geometry& g : geometries)
    for (const auto kind :
         {hilbert::CurveKind::RowMajor, hilbert::CurveKind::Hilbert,
          hilbert::CurveKind::Morton})
      for (const idx_t tile : {idx_t{0}, idx_t{4}}) {
        const hilbert::Ordering sino(g.sinogram_extent(), kind, tile);
        const hilbert::Ordering tomo(g.tomogram_extent(), kind, tile);
        SCOPED_TRACE(testing::Message()
                     << g.num_angles << "x" << g.num_channels << " span "
                     << g.angle_span << " " << hilbert::to_string(kind)
                     << " tile " << tile);
        const auto want = reference_trace(g, sino, tomo);
        const auto got = build_projection_matrix(g, sino, tomo);
        EXPECT_EQ(got.num_rows, want.num_rows);
        EXPECT_EQ(got.num_cols, want.num_cols);
        EXPECT_TRUE(testutil::same_bytes(got.displ, want.displ));
        EXPECT_TRUE(testutil::same_bytes(got.ind, want.ind));
        EXPECT_TRUE(testutil::same_bytes(got.val, want.val));
      }
}

TEST(Projector, BufferedTraceMatchesBuildBufferedBytewise) {
  // Tracing partition by partition into the buffered forward gives the
  // forward build_buffered stages from the traced CSR, on every array:
  // square, odd and ragged row counts (1024, 1073 and 960 rows against
  // partsizes 128, 32 and 7), buffsize 64 forcing multi-stage partitions,
  // both orderings, 1/3/4 threads and a build nested in a parallel region.
  // The sanitizer builds fill fresh matrix arrays with 0xFF, so a slot the
  // direct route leaves unwritten shows up there.
  const std::vector<Geometry> geometries = {
      make_geometry(32, 32), make_geometry(37, 29), make_geometry(24, 40)};
  const int saved = omp_get_max_threads();
  bool saw_multi_stage = false;
  for (const Geometry& g : geometries)
    for (const auto kind :
         {hilbert::CurveKind::Hilbert, hilbert::CurveKind::RowMajor})
      for (const sparse::BufferConfig config :
           {sparse::BufferConfig{128, 4096}, sparse::BufferConfig{32, 64},
            sparse::BufferConfig{7, 64}}) {
        const hilbert::Ordering sino(g.sinogram_extent(), kind);
        const hilbert::Ordering tomo(g.tomogram_extent(), kind);
        SCOPED_TRACE(testing::Message()
                     << g.num_angles << "x" << g.num_channels << " "
                     << hilbert::to_string(kind) << " partsize "
                     << config.partsize << " buffsize " << config.buffsize);
        omp_set_num_threads(1);
        const sparse::BufferedMatrix want = sparse::build_buffered(
            build_projection_matrix(g, sino, tomo), config);
        saw_multi_stage |= want.num_stages() > want.num_partitions();
        for (const int threads : {1, 3, 4}) {
          omp_set_num_threads(threads);
          SCOPED_TRACE(testing::Message() << threads << " threads");
          testutil::expect_same_buffered(
              build_projection_buffered(g, sino, tomo, config), want);
        }
        // A batch or serve worker builds from inside its own region.
        omp_set_num_threads(4);
        std::optional<sparse::BufferedMatrix> nested;
#pragma omp parallel num_threads(2)
        {
#pragma omp single
          nested = build_projection_buffered(g, sino, tomo, config);
        }
        SCOPED_TRACE("nested in a parallel region");
        testutil::expect_same_buffered(*nested, want);
      }
  omp_set_num_threads(saved);
  EXPECT_TRUE(saw_multi_stage);
}

TEST(Projector, BufferedTraceMatchesReferenceBuilderBytewise) {
  // The direct trace and build_buffered share StagedBuilder::place, so
  // their equality alone would not catch a placement fault: the direct
  // route is also held to the reference builder of the sorted CSR trace,
  // at buffsize 100 (stage edges inside a bitmap word) and partsize 1.
  const int saved = omp_get_max_threads();
  omp_set_num_threads(3);
  for (const Geometry& g : {make_geometry(32, 32), make_geometry(37, 29)})
    for (const auto kind :
         {hilbert::CurveKind::Hilbert, hilbert::CurveKind::RowMajor})
      for (const sparse::BufferConfig config :
           {sparse::BufferConfig{128, 4096}, sparse::BufferConfig{32, 100},
            sparse::BufferConfig{1, 4096}, sparse::BufferConfig{1, 100}}) {
        const hilbert::Ordering sino(g.sinogram_extent(), kind);
        const hilbert::Ordering tomo(g.tomogram_extent(), kind);
        SCOPED_TRACE(testing::Message()
                     << g.num_angles << "x" << g.num_channels << " "
                     << hilbert::to_string(kind) << " partsize "
                     << config.partsize << " buffsize " << config.buffsize);
        testutil::expect_same_buffered(
            build_projection_buffered(g, sino, tomo, config),
            testutil::reference_build_buffered(
                build_projection_matrix(g, sino, tomo), config));
      }
  omp_set_num_threads(saved);
}

TEST(Projector, MismatchedOrderingExtentsRejected) {
  const Geometry g = make_geometry(8, 8);
  const hilbert::Ordering wrong(Extent2D{4, 4}, hilbert::CurveKind::Hilbert,
                                4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  EXPECT_THROW(build_projection_matrix(g, wrong, tomo), InvariantError);
}

}  // namespace
}  // namespace memxct::geometry
