// Table 1 reproduction: empirical validation of the complexity model.
//
//   MemXCT:  memory/compute O(MN²/P) per rank; communication (nnz of C and
//            R) O(MN·√P) total, i.e. footprint doubles when P quadruples;
//   Trace:   duplicated-domain allreduce costs O(N² log P).
//
// The bench counts nnz(C) = total partial sinogram rows over a rank sweep
// (shard::reduce_traffic, one forward apply of the paper's reduce
// direction), fits the growth exponent (expected ~0.5), and compares
// modeled communication times of the two strategies.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "dist/dist_compxct.hpp"
#include "dist/partition.hpp"
#include "io/table.hpp"
#include "perf/network_model.hpp"
#include "shard/plan.hpp"

int main() {
  using namespace memxct;
  const auto spec = bench::spec_for("ADS3", 1);
  const auto g = spec.geometry();
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const auto a = geometry::build_projection_matrix(g, sino, tomo);
  std::printf("ADS3 analog (%d x %d), nnz(A) = %lld\n", spec.angles,
              spec.channels, static_cast<long long>(a.nnz()));

  const auto& theta = perf::machine("Theta");
  const std::int64_t tomogram_bytes =
      static_cast<std::int64_t>(g.tomogram_extent().size()) * sizeof(real);

  io::TablePrinter table("Table 1: communication complexity vs rank count");
  table.header({"P", "nnz(C) measured", "MN*sqrt(P) model", "max/rank mem",
                "MemXCT bytes/rank", "Trace bytes/rank (measured)",
                "Trace allreduce (model)"});
  std::vector<double> log_p, log_c;
  const double mn = static_cast<double>(a.num_rows);
  for (const int p : {1, 4, 16, 64}) {
    const auto sino_part = dist::partition_by_tiles(sino, p);
    const auto tomo_part = dist::partition_by_tiles(tomo, p);
    const auto traffic = shard::reduce_traffic(a, sino_part, tomo_part);

    std::int64_t max_mem = 0, memxct_bytes = 0;
    for (int r = 0; r < p; ++r) {
      max_mem = std::max(
          max_mem, traffic.rank_memory_bytes[static_cast<std::size_t>(r)]);
      memxct_bytes = std::max(memxct_bytes, traffic.rank_stats(r).bytes_sent);
    }

    // Trace's strategy executed over the same runtime: one backprojection
    // with replicas + ring allreduce, measured bytes per rank (the byte
    // count depends on the vector sizes only, not their values).
    std::int64_t trace_bytes = 0;
    {
      const dist::DistCompXctOperator trace_op(g, p, theta);
      const AlignedVector<real> y(static_cast<std::size_t>(a.num_rows),
                                  real{0});
      AlignedVector<real> xt(static_cast<std::size_t>(a.num_cols));
      trace_op.apply_transpose(y, xt);
      trace_bytes = trace_op.rank_bytes_sent(0);
    }

    if (p > 1) {
      log_p.push_back(std::log(static_cast<double>(p)));
      log_c.push_back(
          std::log(static_cast<double>(traffic.total_partial_rows())));
    }
    table.row(
        {std::to_string(p), std::to_string(traffic.total_partial_rows()),
         io::TablePrinter::num(mn * std::sqrt(static_cast<double>(p)), 0),
         io::TablePrinter::bytes(static_cast<double>(max_mem)),
         io::TablePrinter::bytes(static_cast<double>(memxct_bytes)),
         io::TablePrinter::bytes(static_cast<double>(trace_bytes)),
         io::TablePrinter::time_s(
             perf::allreduce_seconds(theta, tomogram_bytes, p))});
  }
  table.print();
  table.write_csv("table1_complexity.csv");

  // Least-squares slope of log(nnz(C)) vs log(P) over P in {4,16,64}.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < log_p.size(); ++i) {
    sx += log_p[i];
    sy += log_c[i];
    sxx += log_p[i] * log_p[i];
    sxy += log_p[i] * log_c[i];
  }
  const double n = static_cast<double>(log_p.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::printf(
      "\nmeasured growth exponent of nnz(C): %.3f (Table 1 model: 0.5, i.e.\n"
      "O(MN*sqrt(P)); Trace's alternative pays O(N^2 log P) allreduce).\n",
      slope);
  return 0;
}
