// Mouse-brain partitioned reconstruction (the paper's Fig 1 headline run,
// at working scale): a large vasculature slice reconstructed with 30 CG
// iterations on a sharded operator over P simulated ranks, reporting the
// compute / exchange breakdown and the per-rank memory the paper
// emphasizes.
//
//   ./brain_distributed [ranks] [scale_divisor]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "io/pgm.hpp"
#include "io/table.hpp"
#include "perf/timer.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "shard/sharded_operator.hpp"

int main(int argc, char** argv) {
  using namespace memxct;
  const int ranks = argc > 1 ? std::atoi(argv[1]) : 16;
  const idx_t divisor =
      argc > 2 ? static_cast<idx_t>(std::atoi(argv[2])) : 32;
  const auto spec = phantom::dataset("RDS2").scaled_by(divisor);
  std::printf(
      "RDS2 mouse-brain analog: %d x %d sinogram -> %dx%d tomogram, "
      "%d simulated ranks (paper: %d x %d on 4096 KNL nodes)\n",
      spec.angles, spec.channels, spec.channels, spec.channels, ranks,
      spec.paper_angles, spec.paper_channels);

  const auto data = phantom::generate(spec, /*seed=*/2, 5e4);
  const auto& g = data.geometry;

  // Built directly rather than through core::Reconstructor, which keeps
  // the unpartitioned operator at one rank: every P gets the breakdown.
  perf::WallTimer build;
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  shard::ShardedOperator::Options opt;
  opt.num_shards = ranks;
  opt.machine = perf::machine("Theta");
  const shard::ShardedOperator op(
      geometry::build_projection_matrix(g, sino, tomo), opt);
  const double preprocess_seconds = build.seconds();

  core::Config config;
  config.iterations = 30;
  const auto result =
      core::reconstruct_slice(op, g, config, sino, tomo, data.sinogram);

  std::printf("preprocessing %.2f s, reconstruction %.2f s (30 CG iters)\n",
              preprocess_seconds, result.solve.seconds);
  std::printf("rmse vs ground truth: %.4f\n",
              phantom::rmse(result.image, data.image));

  const auto& stats = op.stats();
  const double total = stats.total();
  const auto share = [total](double s) {
    return io::TablePrinter::num(100.0 * s / total, 1) + "%";
  };
  io::TablePrinter breakdown("Apply breakdown over the solve (Fig 11 style)");
  breakdown.header({"part", "time", "share of total"});
  breakdown.row({"compute (max-over-shards kernels)",
                 io::TablePrinter::time_s(stats.compute_seconds),
                 share(stats.compute_seconds)});
  breakdown.row({"halo exchange (measured)",
                 io::TablePrinter::time_s(stats.comm_seconds),
                 share(stats.comm_seconds)});
  breakdown.row({"overlap (exchange hidden by the pipeline)",
                 io::TablePrinter::time_s(stats.overlap_saved_seconds),
                 share(stats.overlap_saved_seconds)});
  breakdown.row({"halo exchange (modeled Theta)",
                 io::TablePrinter::time_s(stats.comm_modeled_seconds), "-"});
  breakdown.print();

  std::int64_t max_mem = 0;
  for (int r = 0; r < ranks; ++r) max_mem = std::max(max_mem, op.rank_bytes(r));
  std::printf(
      "per-rank memory: max %s of %s total (the 1/P footprint scaling)\n",
      io::TablePrinter::bytes(static_cast<double>(max_mem)).c_str(),
      io::TablePrinter::bytes(static_cast<double>(op.bytes())).c_str());
  std::printf("halo elements per apply: %lld forward, %lld backward\n",
              static_cast<long long>(op.forward_plan().halo_elements()),
              static_cast<long long>(op.transpose_plan().halo_elements()));

  io::write_pgm_autoscale("brain_reconstruction.pgm", g.tomogram_extent(),
                          result.image);
  std::printf("wrote brain_reconstruction.pgm\n");
  return 0;
}
