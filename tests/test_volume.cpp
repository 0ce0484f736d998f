// Tests for the multi-slice volume workflow (Table 5's "all slices"): one
// Reconstructor's preprocessing is shared by every slice, and a neighbour
// chain passes each slice's image to the next as warm start or z-prior
// (SolveExtras).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/reconstructor.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "test_util.hpp"

namespace memxct::core {
namespace {

/// A small synthetic 3D stack: shale slices whose seed drifts slowly, so
/// adjacent slices are similar but not identical (like a real volume).
AlignedVector<real> slice_sinogram(const geometry::Geometry& g, int slice) {
  // Blend two phantoms to make neighbouring slices strongly correlated.
  const auto base = phantom::shale_phantom(g.image_size, 100);
  const auto drift =
      phantom::shale_phantom(g.image_size, 200 + static_cast<unsigned>(slice) / 4);
  std::vector<real> image(base.size());
  const real w = static_cast<real>(0.1 + 0.02 * slice);
  for (std::size_t i = 0; i < image.size(); ++i)
    image[i] = (1.0f - w) * base[i] + w * drift[i];
  return phantom::forward_project(g, image);
}

/// The neighbour chain over `num_slices` slices of the stack: slice s goes
/// through Reconstructor::reconstruct, seeded with slice s-1's image when
/// `warm_start` and pulled toward it when `z_lambda` > 0.
std::vector<ReconstructionResult> reconstruct_chain(const Reconstructor& recon,
                                                    int num_slices,
                                                    bool warm_start,
                                                    double z_lambda) {
  std::vector<ReconstructionResult> out;
  for (int s = 0; s < num_slices; ++s) {
    SolveExtras extras;
    if (!out.empty() && warm_start)
      extras.warm_start_image = out.back().image;
    if (!out.empty() && z_lambda > 0.0) {
      extras.prior_image = out.back().image;
      extras.prior_lambda = z_lambda;
    }
    out.push_back(
        recon.reconstruct(slice_sinogram(recon.geometry(), s), &extras));
  }
  return out;
}

double final_residual(const ReconstructionResult& r) {
  return r.solve.history.empty() ? 0.0 : r.solve.history.back().residual_norm;
}

TEST(Volume, ReconstructsAllSlicesWithOnePreprocessing) {
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  Config config;
  config.iterations = 8;
  const Reconstructor recon(g, config);
  const auto result = reconstruct_chain(recon, 4, false, 0.0);
  ASSERT_EQ(result.size(), 4u);
  for (const auto& slice : result)
    EXPECT_EQ(static_cast<std::int64_t>(slice.image.size()),
              g.tomogram_extent().size());
  for (const auto& s : result) {
    EXPECT_EQ(s.solve.iterations, 8);
    EXPECT_GT(s.solve.seconds, 0.0);
    EXPECT_GT(final_residual(s), 0.0);
  }
  EXPECT_GT(recon.preprocess_report().total_seconds, 0.0);
  // Slices differ (it is a volume, not a repeated slice).
  EXPECT_NE(result[0].image, result[3].image);
}

TEST(Volume, WarmStartMatchesColdQuality) {
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  Config config;
  config.iterations = 12;
  const Reconstructor recon(g, config);
  const auto cold = reconstruct_chain(recon, 3, false, 0.0);
  const auto warm = reconstruct_chain(recon, 3, true, 0.0);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_LT(testutil::rel_error(warm[s].image, cold[s].image), 0.05)
        << "slice " << s;
}

TEST(Volume, WarmStartLowersResidualAtFixedIterations) {
  // Same iteration budget: warm-started later slices must end at a lower
  // (or equal) residual than cold-started ones.
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  Config config;
  config.iterations = 4;  // deliberately tight budget
  const Reconstructor recon(g, config);
  const auto cold = reconstruct_chain(recon, 3, false, 0.0);
  const auto warm = reconstruct_chain(recon, 3, true, 0.0);
  // Slice 0 is identical (nothing to warm from); later slices benefit.
  for (std::size_t s = 1; s < 3; ++s)
    EXPECT_LT(final_residual(warm[s]), final_residual(cold[s]) * 1.01)
        << "slice " << s;
}

TEST(Volume, ZRegularizationCouplesAdjacentSlices) {
  // With strong z_lambda, consecutive reconstructed slices must be closer
  // to each other than without coupling (the prior pulls each slice toward
  // its neighbour).
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  Config config;
  config.iterations = 10;
  const Reconstructor recon(g, config);
  const auto plain = reconstruct_chain(recon, 3, false, 0.0);
  const auto coupled = reconstruct_chain(recon, 3, false, 50.0);
  const auto slice_gap = [](const std::vector<ReconstructionResult>& r) {
    double total = 0.0;
    for (std::size_t s = 1; s < r.size(); ++s)
      total += phantom::rmse(r[s].image, r[s - 1].image);
    return total;
  };
  EXPECT_LT(slice_gap(coupled), slice_gap(plain));
}

TEST(Volume, MildZRegularizationPreservesQuality) {
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  Config config;
  config.iterations = 10;
  const Reconstructor recon(g, config);
  const auto plain = reconstruct_chain(recon, 2, false, 0.0);
  const auto mild = reconstruct_chain(recon, 2, false, 0.5);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_LT(testutil::rel_error(mild[s].image, plain[s].image), 0.1)
        << "slice " << s;
}

TEST(Volume, WarmStartedSliceGoesThroughIngest) {
  // A chain link is the same ingest → solve → depermute path as any slice:
  // a NaN sample in a warm-started slice is rejected under Reject and
  // repaired under Sanitize, never solved on.
  const auto spec = phantom::dataset("RDS1").scaled_by(32);
  const auto g = spec.geometry();
  AlignedVector<real> bad = slice_sinogram(g, 1);
  bad[bad.size() / 2] = std::numeric_limits<real>::quiet_NaN();

  Config config;
  config.iterations = 4;
  config.ingest.policy = resil::IngestPolicy::Reject;
  {
    const Reconstructor recon(g, config);
    const auto first = recon.reconstruct(slice_sinogram(g, 0));
    SolveExtras extras;
    extras.warm_start_image = first.image;
    EXPECT_THROW((void)recon.reconstruct(bad, &extras), InvalidArgument);
  }
  config.ingest.policy = resil::IngestPolicy::Sanitize;
  {
    const Reconstructor recon(g, config);
    const auto first = recon.reconstruct(slice_sinogram(g, 0));
    SolveExtras extras;
    extras.warm_start_image = first.image;
    const auto repaired = recon.reconstruct(bad, &extras);
    EXPECT_EQ(repaired.ingest.nonfinite, 1);
    EXPECT_TRUE(std::all_of(repaired.image.begin(), repaired.image.end(),
                            [](real v) { return std::isfinite(v); }));
  }
}

}  // namespace
}  // namespace memxct::core
