// Tests for the scan-based order-preserving transposition (Section 3.5.1).
#include <gtest/gtest.h>
#include <omp.h>

#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

struct TransposeCase {
  idx_t rows, cols;
  double density;
};

class TransposeSweep : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(TransposeSweep, DoubleTransposeIsIdentity) {
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 7);
  const CsrMatrix att = transpose(transpose(a));
  ASSERT_EQ(att.num_rows, a.num_rows);
  ASSERT_EQ(att.num_cols, a.num_cols);
  ASSERT_EQ(att.nnz(), a.nnz());
  for (idx_t r = 0; r <= a.num_rows; ++r) EXPECT_EQ(att.displ[r], a.displ[r]);
  for (nnz_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(att.ind[k], a.ind[k]);
    EXPECT_FLOAT_EQ(att.val[k], a.val[k]);
  }
}

TEST_P(TransposeSweep, IsTrueAdjoint) {
  // <A x, y> == <x, A^T y> for random vectors.
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 11);
  const CsrMatrix at = transpose(a);
  const auto x = testutil::random_vector(param.cols, 1);
  const auto y = testutil::random_vector(param.rows, 2);
  AlignedVector<real> ax(static_cast<std::size_t>(param.rows));
  AlignedVector<real> aty(static_cast<std::size_t>(param.cols));
  spmv_reference(a, x, ax);
  spmv_reference(at, y, aty);
  double lhs = 0.0, rhs = 0.0;
  for (idx_t i = 0; i < param.rows; ++i)
    lhs += static_cast<double>(ax[i]) * y[i];
  for (idx_t i = 0; i < param.cols; ++i)
    rhs += static_cast<double>(x[i]) * aty[i];
  const double scale = std::max({std::abs(lhs), std::abs(rhs), 1.0});
  EXPECT_NEAR(lhs / scale, rhs / scale, 1e-5);
}

TEST_P(TransposeSweep, TransposedRowsAreSorted) {
  // The order-preserving property: each transposed row's indices ascend,
  // i.e. the scan placement kept original-row order.
  const auto& param = GetParam();
  const CsrMatrix a =
      testutil::random_csr(param.rows, param.cols, param.density, 13);
  const CsrMatrix at = transpose(a);
  EXPECT_NO_THROW(at.validate());  // validate() checks strict sorting
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeSweep,
    ::testing::Values(TransposeCase{1, 1, 1.0}, TransposeCase{10, 10, 0.3},
                      TransposeCase{50, 20, 0.1}, TransposeCase{20, 50, 0.1},
                      TransposeCase{100, 100, 0.05},
                      TransposeCase{64, 256, 0.02},
                      TransposeCase{7, 3, 0.9}, TransposeCase{40, 40, 0.0}));

TEST(Transpose, EmptyMatrix) {
  CsrBuilder b(3, 5);
  const CsrMatrix a = b.assemble();
  const CsrMatrix at = transpose(a);
  EXPECT_EQ(at.num_rows, 5);
  EXPECT_EQ(at.num_cols, 3);
  EXPECT_EQ(at.nnz(), 0);
}

TEST(TransposeAtomic, NumericallyEquivalentToScan) {
  // The atomic variant is a correct transpose — same values per row, just
  // potentially reordered within rows.
  const CsrMatrix a = testutil::random_csr(60, 40, 0.2, 17);
  const CsrMatrix scan = transpose(a);
  const CsrMatrix atomic = transpose_atomic(a);
  ASSERT_EQ(atomic.nnz(), scan.nnz());
  for (idx_t r = 0; r <= atomic.num_rows; ++r)
    EXPECT_EQ(atomic.displ[r], scan.displ[r]);
  // Compare row contents as multisets of (index, value).
  for (idx_t r = 0; r < atomic.num_rows; ++r) {
    std::vector<std::pair<idx_t, real>> sa, ss;
    for (nnz_t k = scan.displ[r]; k < scan.displ[r + 1]; ++k) {
      ss.emplace_back(scan.ind[k], scan.val[k]);
      sa.emplace_back(atomic.ind[k], atomic.val[k]);
    }
    std::sort(sa.begin(), sa.end());
    std::sort(ss.begin(), ss.end());
    EXPECT_EQ(sa, ss) << "row " << r;
  }
}

TEST(TransposeAtomic, MultiplyAgreesWithScanTranspose) {
  const CsrMatrix a = testutil::random_csr(50, 30, 0.25, 19);
  const CsrMatrix scan = transpose(a);
  const CsrMatrix atomic = transpose_atomic(a);
  const auto y = testutil::random_vector(50, 20);
  AlignedVector<real> xs(30), xa(30);
  spmv_reference(scan, y, xs);
  // spmv_reference requires sorted rows; use a manual accumulation for the
  // (possibly unsorted) atomic result.
  for (idx_t r = 0; r < atomic.num_rows; ++r) {
    double acc = 0.0;
    for (nnz_t k = atomic.displ[r]; k < atomic.displ[r + 1]; ++k)
      acc += static_cast<double>(y[static_cast<std::size_t>(atomic.ind[k])]) *
             atomic.val[k];
    xa[static_cast<std::size_t>(r)] = static_cast<real>(acc);
  }
  EXPECT_LT(testutil::max_abs_diff(xa, xs), 1e-4);
}

TEST(Transpose, KnownSmallCase) {
  // [1 2; 0 3] -> [1 0; 2 3]
  CsrBuilder b(2, 2);
  const std::vector<std::pair<idx_t, real>> r0{{0, 1.0f}, {1, 2.0f}};
  const std::vector<std::pair<idx_t, real>> r1{{1, 3.0f}};
  b.set_row(0, r0);
  b.set_row(1, r1);
  const CsrMatrix at = transpose(b.assemble());
  EXPECT_EQ(at.nnz(), 3);
  EXPECT_EQ(at.displ[1], 1);  // column 0 had one entry
  EXPECT_FLOAT_EQ(at.val[0], 1.0f);
  EXPECT_EQ(at.ind[1], 0);
  EXPECT_FLOAT_EQ(at.val[1], 2.0f);
  EXPECT_FLOAT_EQ(at.val[2], 3.0f);
}

// Serial scan transposition: source rows walked in ascending order, each
// entry appended at its destination row's cursor.
CsrMatrix reference_transpose(const CsrMatrix& a) {
  CsrMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);
  for (nnz_t k = 0; k < a.nnz(); ++k)
    ++t.displ[static_cast<std::size_t>(a.ind[k]) + 1];
  for (idx_t c = 0; c < t.num_rows; ++c)
    t.displ[static_cast<std::size_t>(c) + 1] +=
        t.displ[static_cast<std::size_t>(c)];
  t.ind.resize(static_cast<std::size_t>(a.nnz()));
  t.val.resize(static_cast<std::size_t>(a.nnz()));
  std::vector<nnz_t> cursor(t.displ.begin(), t.displ.end() - 1);
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
      const nnz_t pos = cursor[static_cast<std::size_t>(a.ind[k])]++;
      t.ind[static_cast<std::size_t>(pos)] = r;
      t.val[static_cast<std::size_t>(pos)] = a.val[k];
    }
  return t;
}

TEST(Transpose, BitwiseIdenticalForAnyThreadCount) {
  // Includes matrices with fewer rows than threads (1, 2 and 5 rows under
  // 7 threads) and a banded, locality-ordered shape.
  const std::vector<CsrMatrix> cases = {
      testutil::random_csr(1, 9, 0.8, 31),
      testutil::random_csr(2, 5, 0.6, 32),
      testutil::random_csr(5, 40, 0.3, 33),
      testutil::random_csr(97, 61, 0.1, 34),
      testutil::random_csr(40, 40, 0.0, 35),
      testutil::banded_csr(300, 200, 12, 36),
  };
  const int saved = omp_get_max_threads();
  for (const CsrMatrix& a : cases) {
    const CsrMatrix want = reference_transpose(a);
    for (const int threads : {1, 2, 3, 4, 7}) {
      omp_set_num_threads(threads);
      const CsrMatrix got = transpose(a);
      SCOPED_TRACE(testing::Message() << a.num_rows << "x" << a.num_cols
                                      << " on " << threads << " threads");
      EXPECT_EQ(got.num_rows, want.num_rows);
      EXPECT_EQ(got.num_cols, want.num_cols);
      EXPECT_TRUE(testutil::same_bytes(got.displ, want.displ));
      EXPECT_TRUE(testutil::same_bytes(got.ind, want.ind));
      EXPECT_TRUE(testutil::same_bytes(got.val, want.val));
    }
  }
  omp_set_num_threads(saved);
}

TEST(Transpose, FromBufferedForwardMatchesCsrTransposeBitwise) {
  // The backward staged layout read from build_buffered(A) is
  // build_buffered(transpose(A)) byte for byte on every array, for several
  // partition and buffer shapes (one-row partitions, one-slot buffers, many
  // stages) on either side, at several thread counts, and in 16-bit
  // storage. The stripe matrix has empty rows, whole empty partitions and
  // empty columns.
  CsrBuilder stripes(50, 40);
  std::vector<std::pair<idx_t, real>> entries;
  for (idx_t r = 0; r < 50; ++r) {
    entries.clear();
    if (r % 7 != 3 && (r < 12 || r >= 24))
      for (idx_t c = r % 5; c < 40; c += 3)
        if (c % 11 != 4) entries.emplace_back(c, 0.25f * r + 0.5f * c + 1.0f);
    stripes.set_row(r, entries);
  }
  const std::vector<CsrMatrix> cases = {
      stripes.assemble(),
      testutil::random_csr(97, 61, 0.1, 41),
      testutil::random_csr(5, 40, 0.0, 42),
      testutil::banded_csr(300, 200, 12, 43),
  };
  const std::vector<BufferConfig> configs = {
      {1, 1}, {3, 2}, {8, 5}, {16, 64}, {128, 4096}};
  const int saved = omp_get_max_threads();
  for (const CsrMatrix& a : cases) {
    const CsrMatrix at = transpose(a);
    for (const BufferConfig& config : configs) {
      const BufferedMatrix want = build_buffered(at, config);
      for (const BufferConfig& fwd_config : configs) {
        const BufferedMatrix b = build_buffered(a, fwd_config);
        for (const int threads : {1, 3, 4}) {
          omp_set_num_threads(threads);
          SCOPED_TRACE(testing::Message()
                       << a.num_rows << "x" << a.num_cols << " forward "
                       << fwd_config.partsize << "/" << fwd_config.buffsize
                       << " backward " << config.partsize << "/"
                       << config.buffsize << " on " << threads
                       << " threads");
          testutil::expect_same_buffered(build_buffered_transpose(b, config),
                                         want);
          for (const ValueStorage storage :
               {ValueStorage::Bf16, ValueStorage::Fp16})
            testutil::expect_same_buffered(
                build_buffered_transpose(b, config, storage),
                compress_buffered(want, storage));
        }
      }
    }
  }
  omp_set_num_threads(saved);
  EXPECT_THROW(
      (void)build_buffered_transpose(
          compress_buffered(build_buffered(cases[1], {8, 5}),
                            ValueStorage::Bf16),
          {8, 5}),
      InvariantError);
}

TEST(Transpose, FromCompressedForwardCopiesItsBits) {
  // A forward already in 16 bits gives the backward its bits as they are:
  // the same bytes as the backward written from the fp32 forward.
  const std::vector<CsrMatrix> cases = {
      testutil::random_csr(97, 61, 0.1, 41),
      testutil::banded_csr(300, 200, 12, 43),
  };
  const int saved = omp_get_max_threads();
  for (const CsrMatrix& a : cases)
    for (const BufferConfig& config :
         {BufferConfig{3, 2}, BufferConfig{16, 64}, BufferConfig{}}) {
      const BufferedMatrix fwd = build_buffered(a, config);
      for (const ValueStorage storage :
           {ValueStorage::Bf16, ValueStorage::Fp16}) {
        const BufferedMatrix want =
            build_buffered_transpose(fwd, config, storage);
        const BufferedMatrix fwd16 = compress_buffered(fwd, storage);
        for (const int threads : {1, 4}) {
          omp_set_num_threads(threads);
          SCOPED_TRACE(testing::Message()
                       << a.num_rows << "x" << a.num_cols << " "
                       << config.partsize << "/" << config.buffsize << " "
                       << to_string(storage) << " on " << threads
                       << " threads");
          testutil::expect_same_buffered(
              build_buffered_transpose(fwd16, config, storage), want);
        }
      }
    }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace memxct::sparse
