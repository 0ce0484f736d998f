// Ablation: scan-based (order-preserving) vs atomic (order-randomizing)
// sparse transposition — Section 3.5.1's preprocessing design choice.
//
// Both produce a numerically correct A^T; the atomic variant destroys the
// within-row entry ordering that the pseudo-Hilbert layout created, which
// (1) breaks the sortedness the buffered-matrix builder requires and
// (2) degrades the gather locality of the plain CSR backprojection.
//
// A second table times the Buffered operator's backward build: the scan
// transpose followed by build_buffered, against build_buffered_transpose
// reading the buffered forward (DESIGN.md §23), with the matrix bytes each
// holds beyond the forward and the finished backward.
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
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
  const auto a = bench::build_matrix(spec, hilbert::CurveKind::Hilbert);

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
      "interleaving randomizes rows and the buffered builder would reject\n"
      "them (it requires sorted rows).\n");

  // The backward staged layout, both ways, from the same buffered forward.
  const sparse::BufferConfig config{};
  const sparse::BufferedMatrix fwd = sparse::build_buffered(a, config);
  MatrixByteCounter& counter = matrix_byte_counter();
  // Matrix bytes held at the peak of build() beyond what was alive before
  // it and the backward it returns.
  const auto measure = [&](auto&& build, double& seconds,
                           std::int64_t& transient) {
    counter.reset_high_water();
    t.reset();
    sparse::BufferedMatrix b = build();
    seconds = t.seconds();
    transient = counter.high_water() - counter.live();
    return b;
  };
  double t_csr = 0, t_staged = 0;
  std::int64_t held_csr = 0, held_staged = 0;
  const auto via_csr = measure(
      [&] { return sparse::build_buffered(sparse::transpose(a), config); },
      t_csr, held_csr);
  const auto staged = measure(
      [&] { return sparse::build_buffered_transpose(fwd, config); },
      t_staged, held_staged);
  const bool equal =
      staged.ind.size() == via_csr.ind.size() &&
      std::memcmp(staged.ind.data(), via_csr.ind.data(),
                  staged.ind.size() * sizeof(buf_idx_t)) == 0 &&
      std::memcmp(staged.val.data(), via_csr.val.data(),
                  staged.val.size() * sizeof(real)) == 0 &&
      std::memcmp(staged.displ.data(), via_csr.displ.data(),
                  staged.displ.size() * sizeof(nnz_t)) == 0 &&
      std::memcmp(staged.map.data(), via_csr.map.data(),
                  staged.map.size() * sizeof(idx_t)) == 0;
  io::TablePrinter build(
      "Backward buffered build: CSR transpose vs staged transpose");
  build.header({"path", "build time", "transient matrix bytes",
                "bitwise equal"});
  build.row({"scan transpose + build_buffered",
             io::TablePrinter::time_s(t_csr),
             io::TablePrinter::bytes(static_cast<double>(held_csr)), "-"});
  build.row({"build_buffered_transpose (MemXCT op)",
             io::TablePrinter::time_s(t_staged),
             io::TablePrinter::bytes(static_cast<double>(held_staged)),
             equal ? "yes" : "NO"});
  build.print();
  return equal ? 0 : 1;
}
