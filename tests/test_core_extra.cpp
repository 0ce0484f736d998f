// Additional core-API coverage: non-default kernel configurations,
// preprocessing determinism, distributed buffered path, and work
// accounting consistency.
#include <gtest/gtest.h>

#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "test_util.hpp"

namespace memxct::core {
namespace {

struct KernelConfigCase {
  KernelKind kind;
  sparse::BufferConfig buffer;
  idx_t ell_block_rows;
};

class KernelConfigSweep
    : public ::testing::TestWithParam<KernelConfigCase> {};

TEST_P(KernelConfigSweep, NonDefaultConfigsStayCorrect) {
  const auto& param = GetParam();
  const auto g = geometry::make_geometry(18, 24);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  auto a = geometry::build_projection_matrix(g, sino, tomo);
  const auto reference = a;
  const MemXCTOperator op(std::move(a), param.kind, param.buffer,
                          param.ell_block_rows);

  const auto x = testutil::random_vector(op.num_cols(), 3);
  AlignedVector<real> y_op(static_cast<std::size_t>(op.num_rows()));
  AlignedVector<real> y_ref(static_cast<std::size_t>(op.num_rows()));
  op.apply(x, y_op);
  sparse::spmv_reference(reference, x, y_ref);
  EXPECT_LT(testutil::rel_error(y_op, y_ref), 1e-5);
  EXPECT_EQ(op.nnz(), reference.nnz());
  EXPECT_GT(op.regular_bytes(), 0);
  EXPECT_EQ(op.forward_work().nnz > 0, true);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KernelConfigSweep,
    ::testing::Values(
        KernelConfigCase{KernelKind::Buffered, {1, 1}, 64},     // degenerate
        KernelConfigCase{KernelKind::Buffered, {7, 13}, 64},    // odd sizes
        KernelConfigCase{KernelKind::Buffered, {512, 65536}, 64},
        KernelConfigCase{KernelKind::EllBlock, {128, 4096}, 1},
        KernelConfigCase{KernelKind::EllBlock, {128, 4096}, 7},
        KernelConfigCase{KernelKind::EllBlock, {128, 4096}, 1024}));

TEST(CoreExtra, PreprocessingIsDeterministic) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 3);
  Config config;
  config.iterations = 5;
  const Reconstructor r1(data.geometry, config);
  const Reconstructor r2(data.geometry, config);
  EXPECT_EQ(r1.preprocess_report().nnz, r2.preprocess_report().nnz);
  const auto a = r1.reconstruct(data.sinogram);
  const auto b = r2.reconstruct(data.sinogram);
  EXPECT_EQ(a.image, b.image);  // bit-identical: no hidden nondeterminism
}

TEST(CoreExtra, DistributedBufferedConfigMatchesSerial) {
  // Config.kernel = Buffered on the partitioned (sharded) path selects the
  // buffered local kernels; results must equal the serial buffered
  // reconstruction bit for bit.
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 4);
  Config serial_config;
  serial_config.iterations = 6;
  Config dist_config = serial_config;
  dist_config.num_shards = 4;
  const Reconstructor serial(data.geometry, serial_config);
  const Reconstructor dist(data.geometry, dist_config);
  ASSERT_NE(dist.shard_op(), nullptr);
  const auto r1 = serial.reconstruct(data.sinogram);
  const auto r2 = dist.reconstruct(data.sinogram);
  EXPECT_EQ(r2.image, r1.image);
}

TEST(CoreExtra, TikhonovConfigReducesSolutionNorm) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 5, 1e4);
  Config plain;
  plain.iterations = 20;
  Config damped = plain;
  damped.tikhonov_lambda = 8.0;
  const Reconstructor r_plain(data.geometry, plain);
  const Reconstructor r_damped(data.geometry, damped);
  const auto a = r_plain.reconstruct(data.sinogram);
  const auto b = r_damped.reconstruct(data.sinogram);
  double na = 0.0, nb = 0.0;
  for (const real v : a.image) na += static_cast<double>(v) * v;
  for (const real v : b.image) nb += static_cast<double>(v) * v;
  EXPECT_LT(nb, na);
}

TEST(CoreExtra, HistoryRecordsLCurveMonotonicity) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 6);
  Config config;
  config.iterations = 15;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  ASSERT_EQ(result.solve.history.size(), 15u);
  for (std::size_t i = 1; i < result.solve.history.size(); ++i)
    EXPECT_LE(result.solve.history[i].residual_norm,
              result.solve.history[i - 1].residual_norm * (1 + 1e-6));
}

TEST(CoreExtra, MortonOrderingEndToEnd) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 8);
  Config config;
  config.ordering = hilbert::CurveKind::Morton;
  config.iterations = 10;
  const Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  const std::vector<real> zeros(data.image.size(), 0.0f);
  EXPECT_LT(phantom::rmse(result.image, data.image),
            0.5 * phantom::rmse(zeros, data.image));
}

TEST(CoreExtra, RejectsInvalidRankCount) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  Config config;
  config.num_shards = 0;
  // validate_config classifies a bad rank (shard) count as a caller error,
  // not an internal invariant violation.
  EXPECT_THROW(Reconstructor(spec.geometry(), config), InvalidArgument);
}

}  // namespace
}  // namespace memxct::core
