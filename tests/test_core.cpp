// Tests for the public MemXCT API: operator kernel equivalence and the
// end-to-end Reconstructor pipeline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/analytic.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "sparse/transpose.hpp"
#include "test_util.hpp"

namespace memxct::core {
namespace {

class KernelKinds : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelKinds, OperatorMatchesReferenceBothWays) {
  const auto g = geometry::make_geometry(16, 20);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  auto a = geometry::build_projection_matrix(g, sino, tomo);
  const auto a_copy = a;  // the operator consumes a
  const MemXCTOperator op(std::move(a), GetParam(), {16, 64});

  const auto x = testutil::random_vector(op.num_cols(), 81);
  AlignedVector<real> y_op(static_cast<std::size_t>(op.num_rows()));
  AlignedVector<real> y_ref(static_cast<std::size_t>(op.num_rows()));
  op.apply(x, y_op);
  sparse::spmv_reference(a_copy, x, y_ref);
  EXPECT_LT(testutil::rel_error(y_op, y_ref), 1e-5);

  const auto y = testutil::random_vector(op.num_rows(), 82);
  AlignedVector<real> x_op(static_cast<std::size_t>(op.num_cols()));
  AlignedVector<real> x_ref(static_cast<std::size_t>(op.num_cols()), 0.0f);
  op.apply_transpose(y, x_op);
  // Reference transpose multiply: accumulate column-wise.
  for (idx_t r = 0; r < a_copy.num_rows; ++r)
    for (nnz_t k = a_copy.displ[r]; k < a_copy.displ[r + 1]; ++k)
      x_ref[static_cast<std::size_t>(a_copy.ind[k])] +=
          a_copy.val[k] * y[static_cast<std::size_t>(r)];
  EXPECT_LT(testutil::rel_error(x_op, x_ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelKinds,
                         ::testing::Values(KernelKind::Baseline,
                                           KernelKind::EllBlock,
                                           KernelKind::Buffered,
                                           KernelKind::Library));

using testutil::matrix_bytes_of;

TEST(OperatorBuild, BufferedBuildHoldsAtMostTwoMatrices) {
  // The CSR constructor's Buffered build consumes A as it stages the
  // forward: A's values become the forward's and A's indices are released,
  // so it never holds A beside the forward, and its peak is forward +
  // backward, never a CSR A^T beside them (DESIGN.md §23). In 16 bits the
  // forward is compressed first, its fp32 values released as they are
  // quantized, and the backward is written from it in 16 bits: the peak is
  // at most the fp32 forward + the 16-bit backward. A default Reconstructor
  // traces straight into the forward and never holds A.
  const auto g = geometry::make_geometry(48, 40);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const sparse::CsrMatrix a = geometry::build_projection_matrix(g, sino, tomo);
  const sparse::BufferConfig buffer{32, 256};
  const auto bf16 = sparse::ValueStorage::Bf16;
  std::int64_t fwd = 0, at = 0, bwd = 0, fwd16 = 0, bwd16 = 0;
  {
    const sparse::CsrMatrix t = sparse::transpose(a);
    fwd = matrix_bytes_of(sparse::build_buffered(a, buffer));
    at = matrix_bytes_of(t);
    bwd = matrix_bytes_of(sparse::build_buffered(t, buffer));
    fwd16 = matrix_bytes_of(
        sparse::compress_buffered(sparse::build_buffered(a, buffer), bf16));
    bwd16 = matrix_bytes_of(
        sparse::compress_buffered(sparse::build_buffered(t, buffer), bf16));
  }
  MatrixByteCounter& counter = matrix_byte_counter();
  for (const auto precision : {sparse::ValueStorage::Fp32, bf16}) {
    SCOPED_TRACE(sparse::to_string(precision));
    const bool fp32 = precision == sparse::ValueStorage::Fp32;
    sparse::CsrMatrix copy = a;
    const std::int64_t a_bytes = matrix_bytes_of(copy);
    const std::int64_t bound = fwd + (fp32 ? bwd : bwd16);
    EXPECT_GT(a_bytes + fwd, bound);     // A + forward exceeds it
    EXPECT_GT(fwd + at + bwd, bound);    // so does the CSR A^T path
    const std::int64_t others = counter.live() - a_bytes;
    counter.reset_high_water();
    const MemXCTOperator op(std::move(copy), KernelKind::Buffered, buffer, 64,
                            ScheduleKind::StaticPlan, precision);
    const std::int64_t held = counter.high_water() - others;
    EXPECT_GE(held, fp32 ? fwd + bwd : fwd16 + bwd16);
    EXPECT_LE(held, bound);
  }

  Config config;
  config.ordering = hilbert::CurveKind::Hilbert;
  config.tile_size = 4;
  config.buffer = buffer;
  const std::int64_t a_bytes = matrix_bytes_of(a);
  for (const auto precision : {sparse::ValueStorage::Fp32, bf16}) {
    SCOPED_TRACE(sparse::to_string(precision));
    const bool fp32 = precision == sparse::ValueStorage::Fp32;
    config.precision = precision;
    const std::int64_t others = counter.live();
    counter.reset_high_water();
    const Reconstructor recon(g, config);
    const std::int64_t held = counter.high_water() - others;
    EXPECT_GE(held, fp32 ? fwd + bwd : fwd16 + bwd16);
    EXPECT_LE(held, fwd + (fp32 ? bwd : bwd16));
    EXPECT_LT(held, a_bytes + fwd);
  }
}

// The Buffered operator of the CSR transpose path: both directions built by
// build_buffered, the backward from transpose(A).
class CsrTransposeBuffered final : public solve::LinearOperator {
 public:
  CsrTransposeBuffered(const sparse::CsrMatrix& a,
                       const sparse::BufferConfig& buffer,
                       sparse::ValueStorage precision)
      : fwd_(sparse::compress_buffered(sparse::build_buffered(a, buffer),
                                       precision)),
        bwd_(sparse::compress_buffered(
            sparse::build_buffered(sparse::transpose(a), buffer), precision)) {}
  idx_t num_rows() const override { return fwd_.num_rows; }
  idx_t num_cols() const override { return fwd_.num_cols; }
  void apply(std::span<const real> x, std::span<real> y) const override {
    sparse::spmv_buffered(fwd_, x, y);
  }
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override {
    sparse::spmv_buffered(bwd_, y, x);
  }

 private:
  sparse::BufferedMatrix fwd_, bwd_;
};

TEST(Reconstructor, BufferedBackwardMatchesCsrTransposePathBitwise) {
  // Limited angle (120 degrees) at an odd size, so partitions end ragged on
  // both sides: the Reconstructor's images equal, byte for byte, those of
  // an operator whose backward is build_buffered(transpose(A)).
  const auto g = geometry::make_limited_angle_geometry(45, 37, 2.0 * M_PI / 3);
  const auto sinogram = phantom::analytic_sinogram(
      g, phantom::shepp_logan_ellipses(g.num_channels));
  for (const auto precision :
       {sparse::ValueStorage::Fp32, sparse::ValueStorage::Bf16}) {
    SCOPED_TRACE(sparse::to_string(precision));
    Config config;
    config.iterations = 8;
    config.buffer = {16, 128};
    config.precision = precision;
    const Reconstructor recon(g, config);
    const CsrTransposeBuffered ref(
        geometry::build_projection_matrix(g, recon.sinogram_ordering(),
                                          recon.tomogram_ordering()),
        config.buffer, precision);
    const auto got = recon.reconstruct(sinogram);
    const auto want =
        reconstruct_slice(ref, g, recon.config(), recon.sinogram_ordering(),
                          recon.tomogram_ordering(), sinogram);
    EXPECT_TRUE(testutil::same_bytes(got.image, want.image));
  }
}

TEST(Reconstructor, DirectTraceMatchesCsrRouteBitwise) {
  // A default config traces straight into the buffered forward; a trace
  // cache keeps the CSR route (trace, save, build_buffered). Both give the
  // same images, byte for byte, at every precision, and the cache hit that
  // a second CSR-route build makes does too.
  const auto g = geometry::make_geometry(37, 29);
  const auto sinogram = phantom::analytic_sinogram(
      g, phantom::shepp_logan_ellipses(g.num_channels));
  const auto dir = std::filesystem::temp_directory_path() /
                   ("memxct_test_direct_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  for (const auto precision :
       {sparse::ValueStorage::Fp32, sparse::ValueStorage::Bf16,
        sparse::ValueStorage::Fp16}) {
    SCOPED_TRACE(sparse::to_string(precision));
    Config direct;
    direct.iterations = 8;
    direct.buffer = {32, 64};
    direct.precision = precision;
    Config csr = direct;
    csr.cache_dir = dir.string();
    const Reconstructor want_recon(g, csr);
    const Reconstructor hit_recon(g, csr);
    const Reconstructor got_recon(g, direct);
    EXPECT_TRUE(hit_recon.preprocess_report().cache_hit);
    EXPECT_FALSE(got_recon.preprocess_report().cache_hit);
    EXPECT_EQ(got_recon.preprocess_report().nnz,
              want_recon.preprocess_report().nnz);
    EXPECT_EQ(got_recon.preprocess_report().regular_bytes,
              want_recon.preprocess_report().regular_bytes);
    const auto want = want_recon.reconstruct(sinogram);
    EXPECT_TRUE(testutil::same_bytes(got_recon.reconstruct(sinogram).image,
                                     want.image));
    EXPECT_TRUE(testutil::same_bytes(hit_recon.reconstruct(sinogram).image,
                                     want.image));
  }
  std::filesystem::remove_all(dir);
}

TEST(Reconstructor, RecoversPhantomFromCleanData) {
  const auto spec = phantom::dataset("ADS1").scaled_by(8);  // 45x32
  const auto data = phantom::generate(spec, 7);
  Config config;
  config.iterations = 25;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);

  const std::vector<real> zeros(data.image.size(), 0.0f);
  const double err = phantom::rmse(result.image, data.image);
  const double baseline = phantom::rmse(zeros, data.image);
  EXPECT_LT(err, 0.3 * baseline);
  EXPECT_EQ(result.solve.iterations, 25);
  EXPECT_FALSE(result.solve.history.empty());
}

TEST(Reconstructor, AllKernelsAndOrderingsAgree) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 8);
  std::vector<real> reference;
  for (const auto ordering :
       {hilbert::CurveKind::RowMajor, hilbert::CurveKind::Hilbert,
        hilbert::CurveKind::Morton}) {
    for (const auto kernel : {KernelKind::Baseline, KernelKind::Buffered,
                              KernelKind::EllBlock}) {
      Config config;
      config.ordering = ordering;
      config.kernel = kernel;
      config.iterations = 10;
      const Reconstructor recon(data.geometry, config);
      const auto result = recon.reconstruct(data.sinogram);
      if (reference.empty()) {
        reference = result.image;
      } else {
        // Different summation orders: small float drift allowed.
        EXPECT_LT(testutil::rel_error(result.image, reference), 5e-3)
            << to_string(ordering) << " / " << to_string(kernel);
      }
    }
  }
}

TEST(Reconstructor, DistributedPathMatchesSerial) {
  // The partitioned (sharded) path moves exact input copies, never partial
  // sums, so its image equals the serial one bit for bit.
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 9);
  Config serial_config;
  serial_config.iterations = 8;
  serial_config.kernel = KernelKind::Baseline;
  Config dist_config = serial_config;
  dist_config.num_shards = 5;

  const Reconstructor serial(data.geometry, serial_config);
  const Reconstructor dist(data.geometry, dist_config);
  ASSERT_NE(dist.shard_op(), nullptr);
  EXPECT_EQ(serial.shard_op(), nullptr);

  const auto r_serial = serial.reconstruct(data.sinogram);
  const auto r_dist = dist.reconstruct(data.sinogram);
  EXPECT_EQ(r_dist.image, r_serial.image);
  EXPECT_GT(dist.shard_op()->stats().applies, 0);
}

TEST(Reconstructor, SolverChoicesRun) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 10);
  for (const auto solver :
       {SolverKind::CGLS, SolverKind::SIRT, SolverKind::GradientDescent}) {
    Config config;
    config.solver = solver;
    config.iterations = 5;
    const Reconstructor recon(data.geometry, config);
    const auto result = recon.reconstruct(data.sinogram);
    EXPECT_EQ(result.solve.iterations, 5) << to_string(solver);
    // Some reconstruction happened.
    double sum = 0.0;
    for (const real v : result.image) sum += std::abs(v);
    EXPECT_GT(sum, 0.0);
  }
}

TEST(Reconstructor, PreprocessReportIsPopulated) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 11);
  const Reconstructor recon(data.geometry, Config{});
  const auto& report = recon.preprocess_report();
  EXPECT_GT(report.nnz, 0);
  EXPECT_GT(report.regular_bytes, 0);
  EXPECT_GT(report.irregular_bytes, 0);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.total_seconds, report.trace_seconds);
}

TEST(Reconstructor, EarlyStopShortensSolve) {
  // Noisy data makes the residual plateau at the noise floor — the
  // overfitting knee the heuristic is designed to detect (Section 3.5.2).
  const auto spec = phantom::dataset("ADS1").scaled_by(8);
  const auto data = phantom::generate(spec, 12, /*incident_photons=*/1e3);
  Config config;
  config.iterations = 300;
  config.early_stop = true;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  EXPECT_LT(result.solve.iterations, 300);
}

TEST(Reconstructor, PreprocessingReusedAcrossSlices) {
  // Table 5's amortization: one Reconstructor reconstructs many slices.
  // Shale phantoms are seed-dependent, so distinct seeds are distinct
  // slices (Shepp-Logan is deterministic and would alias).
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto a = phantom::generate(spec, 13);
  const auto b = phantom::generate(spec, 14);
  Config config;
  config.iterations = 5;
  const Reconstructor recon(a.geometry, config);
  const auto ra = recon.reconstruct(a.sinogram);
  const auto rb = recon.reconstruct(b.sinogram);
  EXPECT_NE(ra.image, rb.image);  // different slices, same preprocessing
}

TEST(Reconstructor, ExtrasFollowOneRule) {
  // validate_extras: angle_mask is OS only, prior_* is CGLS only, a warm
  // start is CGLS or OS; every span must match the geometry.
  const auto g = geometry::make_geometry(24, 16);
  const std::vector<real> image(
      static_cast<std::size_t>(g.tomogram_extent().size()), real{0});
  const std::vector<real> mask(static_cast<std::size_t>(g.num_angles),
                               real{1});
  const std::vector<real> short_image(7, real{0});
  Config cgls, sirt, os;
  sirt.solver = SolverKind::SIRT;
  os.solver = SolverKind::OsSirt;

  SolveExtras warm;
  warm.warm_start_image = image;
  EXPECT_NO_THROW(validate_extras(g, cgls, warm));
  EXPECT_NO_THROW(validate_extras(g, os, warm));
  EXPECT_THROW(validate_extras(g, sirt, warm), InvalidArgument);
  SolveExtras masked;
  masked.angle_mask = mask;
  EXPECT_NO_THROW(validate_extras(g, os, masked));
  EXPECT_THROW(validate_extras(g, cgls, masked), InvalidArgument);
  SolveExtras prior;
  prior.prior_image = image;
  prior.prior_lambda = 2.0;
  EXPECT_NO_THROW(validate_extras(g, cgls, prior));
  EXPECT_THROW(validate_extras(g, os, prior), InvalidArgument);
  EXPECT_THROW(validate_extras(g, sirt, prior), InvalidArgument);

  SolveExtras bad;
  bad.warm_start_image = short_image;
  EXPECT_THROW(validate_extras(g, cgls, bad), InvalidArgument);
  bad = {};
  bad.prior_image = short_image;
  EXPECT_THROW(validate_extras(g, cgls, bad), InvalidArgument);
  bad = prior;
  bad.prior_lambda = -1.0;
  EXPECT_THROW(validate_extras(g, cgls, bad), InvalidArgument);

  // reconstruct_slice applies the same rule before any work.
  sirt.iterations = 2;
  const Reconstructor recon(g, sirt);
  const AlignedVector<real> sino(
      static_cast<std::size_t>(g.sinogram_extent().size()), real{1});
  EXPECT_THROW((void)recon.reconstruct(sino, &warm), InvalidArgument);
}

TEST(Reconstructor, RejectsWrongSinogramSize) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 15);
  const Reconstructor recon(data.geometry, []{ Config c; c.iterations = 2; return c; }());
  const AlignedVector<real> wrong(13);
  EXPECT_THROW(recon.reconstruct(wrong), InvalidArgument);
}

}  // namespace
}  // namespace memxct::core
