// Ablation: scan-based (order-preserving) vs atomic (order-randomizing)
// sparse transposition — Section 3.5.1's preprocessing design choice.
//
// Both produce a numerically correct A^T; the atomic variant destroys the
// within-row entry ordering that the pseudo-Hilbert layout created, which
// (1) breaks the sortedness the buffered-matrix builder requires and
// (2) degrades the gather locality of the plain CSR backprojection.
//
// Two more tables time the Buffered operator's build (DESIGN.md §23), with
// the matrix bytes each step holds: the forward, traced to CSR and staged by
// build_buffered against traced straight into the staged layout
// (geometry::build_projection_buffered, the default Reconstructor build),
// and the backward, the scan transpose followed by build_buffered against
// build_buffered_transpose reading the buffered forward.
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "geometry/projector.hpp"
#include "cachesim/spmv_trace.hpp"
#include "io/table.hpp"
#include "perf/timer.hpp"
#include "sparse/buffered.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"

int main() {
  using namespace memxct;
  const auto spec = bench::spec_paper_over("ADS2", 2);
  std::printf("ADS2 analog: %d x %d\n", spec.angles, spec.channels);
  const auto g = spec.geometry();
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert);
  const auto a = geometry::build_projection_matrix(g, sino, tomo);

  perf::WallTimer t;
  const auto scan = sparse::transpose(a);
  const double t_scan_build = t.seconds();
  t.reset();
  const auto atomic = sparse::transpose_atomic(a);
  const double t_atomic_build = t.seconds();

  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows), 1.0f);
  AlignedVector<real> x(static_cast<std::size_t>(a.num_cols));
  const double t_scan =
      bench::time_kernel([&] { sparse::spmv_csr(scan, y, x); });
  // The atomic transpose's rows may be unsorted; spmv_csr does not care
  // numerically, only locality differs.
  const double t_atomic =
      bench::time_kernel([&] { sparse::spmv_csr(atomic, y, x); });

  auto h1 = cachesim::knl_core_hierarchy();
  const double miss_scan =
      cachesim::replay_gather_stream(scan, h1, 4096).l2_miss_rate();
  auto h2 = cachesim::knl_core_hierarchy();
  const double miss_atomic =
      cachesim::replay_gather_stream(atomic, h2, 4096).l2_miss_rate();

  io::TablePrinter table(
      "Ablation: transposition strategy (Section 3.5.1)");
  table.header({"strategy", "build time", "backproj GFLOPS",
                "sim L2 miss (KNL core)", "rows sorted"});
  table.row({"scan-based (MemXCT)", io::TablePrinter::time_s(t_scan_build),
             io::TablePrinter::num(sparse::csr_work(scan).gflops(t_scan), 2),
             io::TablePrinter::num(100.0 * miss_scan, 2) + "%", "yes"});
  bool sorted = true;
  for (idx_t r = 0; r < atomic.num_rows && sorted; ++r)
    for (nnz_t k = atomic.displ[r] + 1; k < atomic.displ[r + 1]; ++k)
      if (atomic.ind[k - 1] >= atomic.ind[k]) {
        sorted = false;
        break;
      }
  table.row({"atomic scatter", io::TablePrinter::time_s(t_atomic_build),
             io::TablePrinter::num(sparse::csr_work(atomic).gflops(t_atomic), 2),
             io::TablePrinter::num(100.0 * miss_atomic, 2) + "%",
             sorted ? "yes (1 thread)" : "no"});
  table.print();
  table.write_csv("ablation_transpose.csv");
  std::printf(
      "\nNote: with one OpenMP thread the atomic variant happens to retain\n"
      "order; the paper's objection concerns many-thread runs where the\n"
      "interleaving randomizes rows, so a CSR apply sums each row in a\n"
      "run-dependent order. (The buffered builder reads a row in any\n"
      "column order.)\n");

  // The forward and backward staged layouts, each built both ways.
  const sparse::BufferConfig config{};
  MatrixByteCounter& counter = matrix_byte_counter();
  // Runs build(), recording its time and the matrix bytes it held at its
  // peak beyond what was alive before it (`high`) and beyond that plus the
  // matrix it returns (`transient`).
  struct Cost {
    double seconds = 0;
    std::int64_t high = 0, transient = 0;
  };
  const auto measure = [&](auto&& build, Cost& cost) {
    const std::int64_t before = counter.live();
    counter.reset_high_water();
    t.reset();
    sparse::BufferedMatrix b = build();
    cost.seconds = t.seconds();
    cost.high = counter.high_water() - before;
    cost.transient = counter.high_water() - counter.live();
    return b;
  };
  const auto same = [](const sparse::BufferedMatrix& x,
                       const sparse::BufferedMatrix& y) {
    const auto eq = [](const auto& u, const auto& v) {
      return u.size() == v.size() &&
             std::memcmp(u.data(), v.data(),
                         u.size() * sizeof(*u.data())) == 0;
    };
    return eq(x.partdispl, y.partdispl) && eq(x.stagedispl, y.stagedispl) &&
           eq(x.stagenz, y.stagenz) && eq(x.map, y.map) &&
           eq(x.displ, y.displ) && eq(x.ind, y.ind) && eq(x.val, y.val);
  };

  Cost via_csr_fwd, direct_fwd;
  const auto fwd_csr = measure(
      [&] {
        return sparse::build_buffered(
            geometry::build_projection_matrix(g, sino, tomo), config);
      },
      via_csr_fwd);
  const auto fwd = measure(
      [&] {
        return geometry::build_projection_buffered(g, sino, tomo, config);
      },
      direct_fwd);
  const bool fwd_equal = same(fwd, fwd_csr);
  io::TablePrinter fwd_table(
      "Forward buffered build: trace to CSR vs trace into the staged layout");
  fwd_table.header({"path", "build time", "matrix bytes high-water",
                    "bitwise equal"});
  fwd_table.row({"trace -> CSR -> build_buffered",
                 io::TablePrinter::time_s(via_csr_fwd.seconds),
                 io::TablePrinter::bytes(static_cast<double>(via_csr_fwd.high)),
                 "-"});
  fwd_table.row({"build_projection_buffered (MemXCT op)",
                 io::TablePrinter::time_s(direct_fwd.seconds),
                 io::TablePrinter::bytes(static_cast<double>(direct_fwd.high)),
                 fwd_equal ? "yes" : "NO"});
  fwd_table.print();

  Cost via_csr_bwd, staged_bwd;
  const auto via_csr = measure(
      [&] { return sparse::build_buffered(sparse::transpose(a), config); },
      via_csr_bwd);
  const auto staged = measure(
      [&] { return sparse::build_buffered_transpose(fwd, config); },
      staged_bwd);
  const bool bwd_equal = same(staged, via_csr);
  io::TablePrinter build(
      "Backward buffered build: CSR transpose vs staged transpose");
  build.header({"path", "build time", "transient matrix bytes",
                "bitwise equal"});
  build.row({"scan transpose + build_buffered",
             io::TablePrinter::time_s(via_csr_bwd.seconds),
             io::TablePrinter::bytes(
                 static_cast<double>(via_csr_bwd.transient)),
             "-"});
  build.row({"build_buffered_transpose (MemXCT op)",
             io::TablePrinter::time_s(staged_bwd.seconds),
             io::TablePrinter::bytes(static_cast<double>(staged_bwd.transient)),
             bwd_equal ? "yes" : "NO"});
  build.print();
  return fwd_equal && bwd_equal ? 0 : 1;
}
