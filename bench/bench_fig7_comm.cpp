// Fig 7 reproduction: sparse communication structure for 16 ranks —
// communication matrix, pairwise traffic of rank 7, and per-rank totals.
//
// Each entry (p, q) counts partial-sinogram elements rank p sends to rank q
// during one forward projection of the paper's A = R·C·A_p, counted by
// shard::reduce_traffic; the pseudo-Hilbert partition locality is what
// keeps the matrix sparse (each rank talks to a handful of neighbours, not
// all 15 others).
#include <cstdio>

#include "bench_util.hpp"
#include "dist/partition.hpp"
#include "io/table.hpp"
#include "shard/plan.hpp"

int main() {
  using namespace memxct;
  const int ranks = 16;
  const auto spec = bench::spec_for("ADS3", 1);
  const auto g = spec.geometry();
  std::printf("ADS3 analog (%d x %d), %d ranks\n", spec.angles, spec.channels,
              ranks);

  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const auto traffic = shard::reduce_traffic(
      geometry::build_projection_matrix(g, sino, tomo),
      dist::partition_by_tiles(sino, ranks),
      dist::partition_by_tiles(tomo, ranks));
  const auto& matrix = traffic.traffic;

  // Communication matrix (forward-direction element counts, KiB).
  std::printf("\n== Fig 7(c): communication matrix (KiB sent p->q) ==\n    ");
  for (int q = 0; q < ranks; ++q) std::printf("%6d", q);
  std::printf("\n");
  for (int p = 0; p < ranks; ++p) {
    std::printf("%3d ", p);
    for (int q = 0; q < ranks; ++q) {
      const double kib = static_cast<double>(
                             matrix[static_cast<std::size_t>(p) * ranks + q]) *
                         sizeof(real) / 1024.0;
      if (kib == 0.0)
        std::printf("     .");
      else
        std::printf("%6.1f", kib);
    }
    std::printf("\n");
  }

  // Sparsity: how many partners does each rank actually talk to?
  int total_pairs = 0;
  for (int p = 0; p < ranks; ++p)
    for (int q = 0; q < ranks; ++q)
      if (p != q && matrix[static_cast<std::size_t>(p) * ranks + q] > 0)
        ++total_pairs;
  std::printf("\nnonzero off-diagonal pairs: %d of %d (%.0f%% sparse)\n",
              total_pairs, ranks * (ranks - 1),
              100.0 * (1.0 - static_cast<double>(total_pairs) /
                                 (ranks * (ranks - 1))));

  io::TablePrinter pairwise("Fig 7(d): pairwise communication of process 7");
  pairwise.header({"pair", "send (KiB)", "recv (KiB)"});
  for (int q = 0; q < ranks; ++q) {
    const double send = static_cast<double>(
                            matrix[static_cast<std::size_t>(7) * ranks + q]) *
                        sizeof(real) / 1024.0;
    const double recv = static_cast<double>(
                            matrix[static_cast<std::size_t>(q) * ranks + 7]) *
                        sizeof(real) / 1024.0;
    if (send > 0 || recv > 0)
      pairwise.row({std::to_string(q), io::TablePrinter::num(send, 1),
                    io::TablePrinter::num(recv, 1)});
  }
  pairwise.print();

  io::TablePrinter totals("Fig 7(e): total communication per process");
  totals.header({"process", "send", "recv"});
  for (int p = 0; p < ranks; ++p) {
    const auto stats = traffic.rank_stats(p);
    totals.row({std::to_string(p),
                io::TablePrinter::bytes(
                    static_cast<double>(stats.bytes_sent)),
                io::TablePrinter::bytes(
                    static_cast<double>(stats.bytes_received))});
  }
  totals.print();
  totals.write_csv("fig7_comm.csv");
  return 0;
}
