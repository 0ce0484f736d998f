// Cross-module integration tests: full pipelines combining measurement
// preprocessing, reconstruction, distribution, serialization, and output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "io/pgm.hpp"
#include "io/serialize.hpp"
#include "phantom/analytic.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "pre/normalize.hpp"
#include "solve/fbp.hpp"
#include "sparse/spmv.hpp"
#include "test_util.hpp"

namespace memxct {
namespace {

TEST(Integration, RawCountsToImagePipeline) {
  // Beer's-law counts -> normalization -> COR correction -> CG -> image:
  // the whole beamline path must recover the phantom.
  const idx_t n = 48;
  const auto g = geometry::make_geometry(72, n);
  const auto truth = phantom::shale_phantom(n, 3);
  auto clean = phantom::forward_project(g, truth);
  const double shift = 1.5;
  const auto shifted = pre::shift_sinogram(g, clean, shift);

  // Raw counts with flat/dark fields.
  const double i0 = 1e5, dark_level = 20.0, mu = 0.15;
  AlignedVector<real> flat(static_cast<std::size_t>(n),
                           static_cast<real>(i0 + dark_level));
  AlignedVector<real> dark(static_cast<std::size_t>(n),
                           static_cast<real>(dark_level));
  AlignedVector<real> raw(shifted.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw[i] = static_cast<real>(
        dark_level + i0 * std::exp(-static_cast<double>(shifted[i]) * mu));

  auto sino = pre::normalize_transmission(g, raw, flat, dark);
  for (auto& v : sino) v = static_cast<real>(v / mu);  // undo mu scaling
  const double estimated = pre::estimate_center_offset(g, sino);
  EXPECT_NEAR(estimated, shift, 0.3);
  const auto centered = pre::shift_sinogram(g, sino, -estimated);

  core::Config config;
  config.iterations = 25;
  const core::Reconstructor recon(g, config);
  const auto result = recon.reconstruct(centered);
  const std::vector<real> zeros(truth.size(), 0.0f);
  EXPECT_LT(phantom::rmse(result.image, truth),
            0.35 * phantom::rmse(zeros, truth));
}

TEST(Integration, SerializedMatrixDrivesIdenticalSolve) {
  // Save the preprocessed matrix, reload it, and verify a solver built on
  // the reloaded matrix reproduces the original solve bit-for-bit.
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto g = spec.geometry();
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const auto a = geometry::build_projection_matrix(g, sino, tomo);
  const std::string path = "/tmp/memxct_integration.csr";
  io::save_csr(path, a);
  const auto loaded = io::load_csr(path);
  std::remove(path.c_str());

  const auto x = testutil::random_vector(a.num_cols, 7);
  AlignedVector<real> y1(static_cast<std::size_t>(a.num_rows));
  AlignedVector<real> y2(static_cast<std::size_t>(a.num_rows));
  sparse::spmv_csr(a, x, y1);
  sparse::spmv_csr(loaded, x, y2);
  EXPECT_EQ(y1, y2);
}

TEST(Integration, DistributedVolumeReconstruction) {
  // Volume pipeline over the sharded operator: multiple slices, 4
  // simulated ranks, preprocessing shared.
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto g = spec.geometry();
  core::Config config;
  config.iterations = 6;
  config.num_shards = 4;
  const core::Reconstructor recon(g, config);
  std::vector<std::vector<real>> slices;
  for (int s = 0; s < 2; ++s)
    slices.push_back(recon
                         .reconstruct(phantom::forward_project(
                             g, phantom::shale_phantom(g.image_size, 20 + s)))
                         .image);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_NE(slices[0], slices[1]);
  const auto* sharded = recon.shard_op();
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->num_shards(), 4);
  EXPECT_GT(sharded->stats().applies, 0);
}

TEST(Integration, FbpAndCgAgreeOnEasyData) {
  // Densely sampled clean data: the two completely independent solution
  // paths (analytic filter+backproject vs memoized iterative SpMV) must
  // produce images that agree inside the reconstruction circle.
  const idx_t n = 64;
  const auto g = geometry::make_geometry(n * 2, n);
  const auto ellipses = phantom::shepp_logan_ellipses(n);
  const auto sino = phantom::analytic_sinogram(g, ellipses);
  const auto fbp = solve::fbp_reconstruct(g, sino);
  core::Config config;
  config.iterations = 40;
  const core::Reconstructor recon(g, config);
  const auto cg = recon.reconstruct(sino);
  double num = 0.0, den = 0.0;
  const double half = n / 2.0;
  for (idx_t r = 0; r < n; ++r)
    for (idx_t c = 0; c < n; ++c) {
      const double y = r + 0.5 - half, x = c + 0.5 - half;
      if (x * x + y * y > 0.6 * half * half) continue;
      const auto i = static_cast<std::size_t>(r) * n + c;
      const double d = static_cast<double>(fbp[i]) - cg.image[i];
      num += d * d;
      den += static_cast<double>(cg.image[i]) * cg.image[i] + 1e-9;
    }
  EXPECT_LT(std::sqrt(num / den), 0.25);
}

TEST(Integration, PgmOutputOfFullPipeline) {
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 5, 1e5);
  core::Config config;
  config.iterations = 10;
  const core::Reconstructor recon(data.geometry, config);
  const auto result = recon.reconstruct(data.sinogram);
  const std::string path = "/tmp/memxct_integration.pgm";
  io::write_pgm_autoscale(path, data.geometry.tomogram_extent(),
                          result.image);
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  std::string magic;
  f >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

TEST(Integration, TikhonovVolumeOnNoisySlices) {
  // Noisy multi-slice data with per-slice Tikhonov + z-coupling: the
  // combined regularization must beat the unregularized pipeline on RMSE.
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  std::vector<std::vector<real>> truths;
  std::vector<AlignedVector<real>> sinos;
  Rng rng(17);
  for (int s = 0; s < 3; ++s) {
    truths.push_back(phantom::shale_phantom(g.image_size, 100));  // static z
    auto sino = phantom::forward_project(g, truths.back());
    phantom::add_poisson_noise(sino, 2e3, rng);
    sinos.push_back(std::move(sino));
  }
  const auto source = [&](int s) { return sinos[static_cast<std::size_t>(s)]; };

  core::Config config;
  config.iterations = 20;
  const core::Reconstructor recon(g, config);
  // The neighbour chain: slice s is pulled toward slice s-1's image.
  const auto chain = [&](double z_lambda) {
    std::vector<std::vector<real>> slices;
    for (int s = 0; s < 3; ++s) {
      core::SolveExtras extras;
      if (!slices.empty() && z_lambda > 0.0) {
        extras.prior_image = slices.back();
        extras.prior_lambda = z_lambda;
      }
      slices.push_back(recon.reconstruct(source(s), &extras).image);
    }
    return slices;
  };
  const auto plain = chain(0.0);
  const auto regularized = chain(5.0);
  double err_plain = 0.0, err_reg = 0.0;
  for (int s = 0; s < 3; ++s) {
    err_plain += phantom::rmse(plain[static_cast<std::size_t>(s)],
                               truths[static_cast<std::size_t>(s)]);
    err_reg += phantom::rmse(regularized[static_cast<std::size_t>(s)],
                             truths[static_cast<std::size_t>(s)]);
  }
  // Slices 1-2 are pulled toward their (equally noisy but independent)
  // neighbours, averaging noise down.
  EXPECT_LT(err_reg, err_plain);
}

}  // namespace
}  // namespace memxct
