// Production-style end-to-end pipeline: raw detector counts -> normalized
// sinograms -> center-of-rotation correction -> warm-started multi-slice
// reconstruction, with the memoized matrix cached to disk between runs.
//
//   ./raw_pipeline [num_slices] [image_size]
//
// Demonstrates the full beamline workflow around the core solver: the
// pieces a facility deployment needs beyond the paper's kernels.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/stat.h>

#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "io/pgm.hpp"
#include "io/serialize.hpp"
#include "perf/timer.hpp"
#include "phantom/phantom.hpp"
#include "pre/normalize.hpp"

int main(int argc, char** argv) {
  using namespace memxct;
  const int num_slices = argc > 1 ? std::atoi(argv[1]) : 4;
  const idx_t n = argc > 2 ? static_cast<idx_t>(std::atoi(argv[2])) : 96;
  const auto g = geometry::make_geometry(n * 3 / 2, n);
  std::printf("raw pipeline: %d slices of %d x %d raw projections\n",
              num_slices, g.num_angles, g.num_channels);

  // --- Acquisition simulation: per-slice raw counts with flat/dark fields
  // and a miscalibrated rotation center.
  const double i0 = 5e4, dark_level = 50.0, true_center_offset = 2.0;
  AlignedVector<real> flat(static_cast<std::size_t>(n));
  AlignedVector<real> dark(static_cast<std::size_t>(n),
                           static_cast<real>(dark_level));
  Rng gain_rng(17);
  for (auto& v : flat)  // per-channel gain spread, as real detectors have
    v = static_cast<real>(dark_level + i0 * gain_rng.uniform(0.9, 1.1));

  const auto acquire_raw = [&](int slice) {
    const auto image = phantom::shale_phantom(n, 40 + slice);
    auto sino = phantom::forward_project(g, image);
    auto shifted = pre::shift_sinogram(g, sino, true_center_offset);
    Rng rng(1000 + slice);
    AlignedVector<real> raw(shifted.size());
    for (idx_t a = 0; a < g.num_angles; ++a)
      for (idx_t c = 0; c < g.num_channels; ++c) {
        const auto i = static_cast<std::size_t>(g.ray_index(a, c));
        const double expected =
            dark_level + (flat[static_cast<std::size_t>(c)] - dark_level) *
                             std::exp(-static_cast<double>(shifted[i]) * 0.2);
        raw[i] = static_cast<real>(rng.poisson(expected));
      }
    return raw;
  };

  // --- Preprocessing cache: reuse the memoized matrix across runs.
  const char* cache = "raw_pipeline_matrix.csr";
  struct stat st;
  if (stat(cache, &st) == 0) {
    std::printf("matrix cache found (%s, %lld bytes)\n", cache,
                static_cast<long long>(st.st_size));
    const auto cached = io::load_csr(cache);  // validates on load
    std::printf("cache validated: %lld nonzeros\n",
                static_cast<long long>(cached.nnz()));
  } else {
    const hilbert::Ordering sino(g.sinogram_extent(),
                                 hilbert::CurveKind::Hilbert);
    const hilbert::Ordering tomo(g.tomogram_extent(),
                                 hilbert::CurveKind::Hilbert);
    io::save_csr(cache, geometry::build_projection_matrix(g, sino, tomo));
    std::printf("matrix cache written to %s\n", cache);
  }

  // --- Normalization + center correction on slice 0 determines the shift
  // applied to the whole stack.
  const auto raw0 = acquire_raw(0);
  const auto sino0 = pre::normalize_transmission(g, raw0, flat, dark);
  const double offset = pre::estimate_center_offset(g, sino0);
  std::printf("estimated center-of-rotation offset: %.2f channels "
              "(ground truth %.2f)\n",
              offset, true_center_offset);

  // --- Warm-started volume reconstruction: preprocessing is paid once, then
  // each slice's CG starts from its neighbour's image.
  core::Config config;
  config.iterations = 20;
  const core::Reconstructor recon(g, config);
  perf::WallTimer total;
  std::vector<std::vector<real>> slices;
  for (int slice = 0; slice < num_slices; ++slice) {
    const auto raw = acquire_raw(slice);
    const auto sino = pre::normalize_transmission(g, raw, flat, dark);
    const auto shifted = pre::shift_sinogram(g, sino, -offset);
    core::SolveExtras extras;
    if (!slices.empty()) extras.warm_start_image = slices.back();
    auto r = recon.reconstruct(shifted, &extras);
    std::printf("  slice %d: %d iterations, %.1f ms, residual %.3f\n", slice,
                r.solve.iterations, r.solve.seconds * 1e3,
                r.solve.history.empty() ? 0.0
                                        : r.solve.history.back().residual_norm);
    slices.push_back(std::move(r.image));
  }
  std::printf("preprocessing %.2f s; %d slices in %.2f s\n",
              recon.preprocess_report().total_seconds, num_slices,
              total.seconds());
  if (slices.empty()) return 0;

  io::write_pgm_autoscale("raw_pipeline_slice0.pgm", g.tomogram_extent(),
                          slices.front());
  std::printf("wrote raw_pipeline_slice0.pgm\n");
  return 0;
}
