// Tests for binary matrix/vector serialization (preprocessing cache).
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "common/error.hpp"
#include "io/serialize.hpp"
#include "sparse/buffered.hpp"
#include "test_util.hpp"

namespace memxct::io {
namespace {

TEST(Serialize, CsrRoundTripBitExact) {
  const auto a = testutil::random_csr(57, 43, 0.15, 21);
  const std::string path = "/tmp/memxct_roundtrip.csr";
  save_csr(path, a);
  const auto b = load_csr(path);
  EXPECT_EQ(b.num_rows, a.num_rows);
  EXPECT_EQ(b.num_cols, a.num_cols);
  ASSERT_EQ(b.nnz(), a.nnz());
  for (idx_t r = 0; r <= a.num_rows; ++r) EXPECT_EQ(b.displ[r], a.displ[r]);
  for (nnz_t k = 0; k < a.nnz(); ++k) {
    EXPECT_EQ(b.ind[k], a.ind[k]);
    EXPECT_EQ(b.val[k], a.val[k]);  // bit-exact float
  }
  std::remove(path.c_str());
}

TEST(Serialize, EmptyMatrixRoundTrip) {
  sparse::CsrBuilder builder(3, 4);
  const auto a = builder.assemble();
  const std::string path = "/tmp/memxct_empty.csr";
  save_csr(path, a);
  const auto b = load_csr(path);
  EXPECT_EQ(b.num_rows, 3);
  EXPECT_EQ(b.num_cols, 4);
  EXPECT_EQ(b.nnz(), 0);
  std::remove(path.c_str());
}

TEST(Serialize, BufferedMatrixRoundTrip) {
  const auto a = testutil::banded_csr(100, 120, 8, 26);
  const auto bm = sparse::build_buffered(a, {16, 64});
  const std::string path = "/tmp/memxct_buffered.bin";
  save_buffered(path, bm);
  const auto loaded = load_buffered(path);
  EXPECT_EQ(loaded.num_rows, bm.num_rows);
  EXPECT_EQ(loaded.config.partsize, bm.config.partsize);
  EXPECT_EQ(loaded.config.buffsize, bm.config.buffsize);
  EXPECT_EQ(loaded.num_stages(), bm.num_stages());
  EXPECT_EQ(loaded.map, bm.map);
  EXPECT_EQ(loaded.ind, bm.ind);
  EXPECT_EQ(loaded.val, bm.val);
  // The loaded structure must compute identically.
  const auto x = testutil::random_vector(120, 27);
  AlignedVector<real> y1(100), y2(100);
  sparse::spmv_buffered(bm, x, y1);
  sparse::spmv_buffered(loaded, x, y2);
  EXPECT_EQ(y1, y2);
  std::remove(path.c_str());
}

TEST(Serialize, BufferedRejectsReducedPrecision) {
  // The file format holds fp32 values; a bf16 matrix must not be written as
  // a header that promises values the file does not carry.
  const auto a = testutil::banded_csr(40, 50, 4, 29);
  const auto bm = sparse::compress_buffered(sparse::build_buffered(a, {16, 64}),
                                            sparse::ValueStorage::Bf16);
  EXPECT_THROW(save_buffered("/tmp/memxct_buffered_bf16.bin", bm),
               InvalidArgument);
}

TEST(Serialize, BufferedRejectsWrongMagic) {
  const auto a = testutil::random_csr(10, 10, 0.4, 28);
  const std::string path = "/tmp/memxct_notbuf.bin";
  save_csr(path, a);
  EXPECT_THROW(load_buffered(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, VectorRoundTrip) {
  const auto v = testutil::random_vector(1234, 22);
  const std::string path = "/tmp/memxct_vec.bin";
  save_vector(path, v);
  const auto w = load_vector(path);
  ASSERT_EQ(w.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(w[i], v[i]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsWrongMagic) {
  const std::string path = "/tmp/memxct_badmagic.bin";
  const auto v = testutil::random_vector(8, 23);
  save_vector(path, v);
  EXPECT_THROW(load_csr(path), InvalidArgument);  // vector file as CSR
  std::remove(path.c_str());
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_csr("/tmp/does_not_exist.csr"), InvalidArgument);
  EXPECT_THROW(load_vector("/tmp/does_not_exist.vec"), InvalidArgument);
}

TEST(Serialize, RejectsTruncatedFile) {
  const auto a = testutil::random_csr(20, 20, 0.3, 24);
  const std::string path = "/tmp/memxct_trunc.csr";
  save_csr(path, a);
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_THROW(load_csr(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, CorruptHeaderCannotForceHugeAllocation) {
  // Overwrite the nnz header field with an absurd count: the loader must
  // reject it against the actual file size (InvalidArgument) instead of
  // attempting a petabyte resize.
  const auto a = testutil::random_csr(10, 10, 0.5, 29);
  const std::string path = "/tmp/memxct_bigcount.csr";
  save_csr(path, a);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8 + 16, SEEK_SET);  // header: 8 magic + rows, cols, *nnz*
  const std::int64_t huge = std::int64_t{1} << 50;
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fclose(f);
  EXPECT_THROW((void)load_csr(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, TrailingBytesRejected) {
  const auto a = testutil::random_csr(10, 10, 0.5, 30);
  const std::string path = "/tmp/memxct_trailing.csr";
  save_csr(path, a);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[16] = {};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW((void)load_csr(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, FuzzTruncationAlwaysTypedError) {
  // Seeded fuzz over every legacy format: any truncation point must yield
  // a typed error (size budget), never a crash or silent partial load.
  Rng rng(71);
  const auto a = testutil::random_csr(20, 20, 0.3, 31);
  const auto bm = sparse::build_buffered(testutil::banded_csr(60, 70, 6, 32),
                                         {16, 64});
  const auto v = testutil::random_vector(100, 33);
  const std::string path = "/tmp/memxct_fuzz_trunc.bin";
  for (int trial = 0; trial < 40; ++trial) {
    const int format = trial % 3;
    if (format == 0) save_csr(path, a);
    else if (format == 1) save_buffered(path, bm);
    else save_vector(path, v);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    const auto keep = static_cast<long>(rng.uniform_int(
        static_cast<std::uint64_t>(size)));  // [0, size): always truncated
    ASSERT_EQ(truncate(path.c_str(), keep), 0);
    if (format == 0) {
      EXPECT_THROW((void)load_csr(path), InvalidArgument) << "keep=" << keep;
    } else if (format == 1) {
      EXPECT_THROW((void)load_buffered(path), InvalidArgument)
          << "keep=" << keep;
    } else {
      EXPECT_THROW((void)load_vector(path), InvalidArgument)
          << "keep=" << keep;
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, FuzzByteFlipNeverCrashes) {
  // The legacy format has no checksum, so a flipped value byte is
  // legitimately undetectable — but a flip anywhere must either load
  // cleanly or fail with one of the two typed errors. Anything else
  // (unbounded allocation, over-read, uncaught exception) fails the test.
  // A buffered matrix that loads is applied too: whatever the loader
  // accepts, the kernels must read within bounds (checked under ASan).
  Rng rng(72);
  const auto a = testutil::random_csr(20, 20, 0.3, 34);
  const auto v = testutil::random_vector(100, 35);
  const auto bm = sparse::build_buffered(testutil::banded_csr(60, 70, 6, 36),
                                         {16, 64});
  const std::string path = "/tmp/memxct_fuzz_flip.bin";
  for (int trial = 0; trial < 90; ++trial) {
    const int format = trial % 3;
    if (format == 0) save_csr(path, a);
    else if (format == 1) save_vector(path, v);
    else save_buffered(path, bm);
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    const auto offset = static_cast<long>(
        rng.uniform_int(static_cast<std::uint64_t>(size)));
    std::fseek(f, offset, SEEK_SET);
    const int byte = std::fgetc(f);
    const char flipped = static_cast<char>(
        byte ^ static_cast<int>(1 + rng.uniform_int(255)));
    std::fseek(f, offset, SEEK_SET);
    std::fputc(flipped, f);
    std::fclose(f);
    try {
      if (format == 0) {
        (void)load_csr(path);
      } else if (format == 1) {
        (void)load_vector(path);
      } else {
        const auto loaded = load_buffered(path);
        const AlignedVector<real> x(static_cast<std::size_t>(loaded.num_cols),
                                    1.0f);
        AlignedVector<real> y(static_cast<std::size_t>(loaded.num_rows));
        sparse::spmv_buffered(loaded, x, y);
      }
    } catch (const InvalidArgument&) {
    } catch (const InvariantError&) {
    }
  }
  std::remove(path.c_str());
}

// Overwrites sizeof(T) bytes of the file at `offset` with `value`.
template <class T>
void patch(const std::string& path, long offset, T value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  std::fwrite(&value, sizeof(T), 1, f);
  std::fclose(f);
}

TEST(Serialize, LoadBufferedRejectsOutOfBoundsStructure) {
  // Each corruption keeps every array size and check of the structure's
  // shape but would make an apply read outside an array: a run bound past
  // the stream, a slot past its stage, a stage index past the stages.
  const auto bm = sparse::build_buffered(testutil::banded_csr(60, 70, 6, 37),
                                         {16, 64});
  ASSERT_GE(bm.num_partitions(), 2);
  const std::string path = "/tmp/memxct_buffered_bounds.bin";
  // File layout: magic, eight int64 header fields, then partdispl,
  // stagedispl, stagenz, map, displ, ind, val.
  const long partdispl = 8 + 8 * 8;
  const long stagedispl =
      partdispl + static_cast<long>(bm.partdispl.size() * sizeof(idx_t));
  const long stagenz =
      stagedispl + static_cast<long>(bm.stagedispl.size() * sizeof(nnz_t));
  const long map =
      stagenz + static_cast<long>(bm.stagenz.size() * sizeof(idx_t));
  const long displ = map + static_cast<long>(bm.map.size() * sizeof(idx_t));
  const long ind = displ + static_cast<long>(bm.displ.size() * sizeof(nnz_t));

  save_buffered(path, bm);
  ASSERT_NO_THROW((void)load_buffered(path));
  patch<nnz_t>(path, displ + static_cast<long>(bm.displ.size() / 2) * 8,
               1000000000);
  EXPECT_THROW((void)load_buffered(path), InvariantError);

  save_buffered(path, bm);
  patch<buf_idx_t>(path, ind + 2 * 3, 60000);
  EXPECT_THROW((void)load_buffered(path), InvariantError);

  save_buffered(path, bm);
  patch<idx_t>(path, partdispl + 4, 1000000);
  EXPECT_THROW((void)load_buffered(path), InvariantError);
  std::remove(path.c_str());
}

TEST(Serialize, ValidatesLoadedStructure) {
  // Corrupt an index beyond num_cols: load must throw from validate().
  const auto a = testutil::random_csr(10, 10, 0.5, 25);
  const std::string path = "/tmp/memxct_corrupt.csr";
  save_csr(path, a);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  // Header: 8 magic + 24 dims; displ: (rows+1)*8; first ind entry follows.
  std::fseek(f, 8 + 24 + 11 * 8, SEEK_SET);
  const idx_t bad = 999;
  std::fwrite(&bad, sizeof(bad), 1, f);
  std::fclose(f);
  EXPECT_THROW(load_csr(path), InvariantError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memxct::io
