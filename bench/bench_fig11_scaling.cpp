// Fig 11 reproduction: weak and strong scaling of the partitioned operator
// with its per-kernel breakdown.
//
// Weak scaling: starting from an ADS2-root dataset, each step doubles both
// sinogram dimensions (8x work) and multiplies ranks by 8, so per-rank work
// stays constant. Strong scaling: the RDS1 and RDS2 analogs at fixed size
// over a widening rank sweep. Every point is a CGLS solve on a
// shard::ShardedOperator (the P = 1 root point included), reported from its
// ShardApplyStats: compute is the max-over-shards local kernel time
// measured on the host (the SPMD wall time), comm is the measured
// in-process halo exchange, modeled comm is the α–β Theta model of the same
// exact exchange volumes, and overlap is the measured comm the tile
// pipeline hid behind compute. The paper's own reduce-direction traffic is
// counted by bench_table1_complexity and bench_fig7_comm. Expected shapes:
// flat compute and growing modeled comm under weak scaling; O(1/P) compute
// under strong scaling until per-rank work vanishes.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/reconstructor.hpp"
#include "io/table.hpp"
#include "shard/sharded_operator.hpp"

namespace {

struct ScalePoint {
  std::string label;
  int ranks;
  memxct::shard::ShardApplyStats stats;
};

ScalePoint run_point(const memxct::phantom::DatasetSpec& spec, int ranks,
                     int iterations) {
  using namespace memxct;
  const auto data = phantom::generate(spec, 4);
  const auto& g = data.geometry;
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  shard::ShardedOperator::Options opt;
  opt.num_shards = ranks;
  opt.machine = perf::machine("Theta");
  const shard::ShardedOperator op(
      geometry::build_projection_matrix(g, sino, tomo), opt);
  core::Config config;
  config.iterations = iterations;
  // reconstruct_slice zeroes the operator's stats at solve start.
  (void)core::reconstruct_slice(op, g, config, sino, tomo, data.sinogram);
  return {std::to_string(spec.angles) + "x" + std::to_string(spec.channels),
          ranks, op.stats()};
}

void print_table(const char* title, const std::vector<ScalePoint>& points) {
  using memxct::io::TablePrinter;
  TablePrinter table(title);
  table.header({"sinogram", "ranks", "total", "compute", "comm (measured)",
                "comm (modeled)", "overlap"});
  for (const auto& p : points)
    table.row({p.label, std::to_string(p.ranks),
               TablePrinter::time_s(p.stats.total()),
               TablePrinter::time_s(p.stats.compute_seconds),
               TablePrinter::time_s(p.stats.comm_seconds),
               TablePrinter::time_s(p.stats.comm_modeled_seconds),
               TablePrinter::time_s(p.stats.overlap_saved_seconds)});
  table.print();
}

}  // namespace

int main() {
  using namespace memxct;
  const int iterations = 10;  // enough applies for stable per-kernel times

  // Fig 11(a)-style weak scaling: ADS2-root, 8x work and 8x ranks per step.
  {
    std::vector<ScalePoint> points;
    idx_t divisor = 4;
    int ranks = 1;
    for (int step = 0; step < 3; ++step) {
      points.push_back(
          run_point(bench::spec_for("ADS2", divisor), ranks, iterations));
      divisor /= 2;
      ranks *= 8;
      if (divisor < 1) break;
    }
    print_table("Fig 11(a): weak scaling, ADS2 root on modeled Theta",
                points);
    std::printf(
        "expected: compute roughly flat, modeled comm grows with the halo\n"
        "footprint per step.\n");
  }

  // Fig 11(c)-style strong scaling: RDS2 analog, fixed size, rank sweep.
  {
    std::vector<ScalePoint> points;
    const auto spec = bench::spec_for("RDS2", 2);
    for (const int ranks : {4, 8, 16, 32, 64, 128})
      points.push_back(run_point(spec, ranks, iterations));
    print_table("Fig 11(c): strong scaling, RDS2 analog on modeled Theta",
                points);
  }

  // Fig 11(d)-style strong scaling: RDS1 analog.
  {
    std::vector<ScalePoint> points;
    const auto spec = bench::spec_for("RDS1", 2);
    for (const int ranks : {4, 8, 16, 32, 64})
      points.push_back(run_point(spec, ranks, iterations));
    print_table("Fig 11(d): strong scaling, RDS1 analog on modeled Theta",
                points);
    std::printf(
        "expected: compute drops ~1/P; comm eventually dominates (its\n"
        "per-peer handshake term), which is where the paper's strong scaling\n"
        "saturates (2048 nodes on Theta, 128 on Blue Waters).\n");
  }
  return 0;
}
