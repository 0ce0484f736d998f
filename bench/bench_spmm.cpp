// Multi-RHS (SpMM) amortization sweep: block width K ∈ {1,2,3,4,7,8,16}
// for every kernel family (3 and 7 run the buffered kernels' zero-padded
// lanes, sparse/spmm.hpp), measuring how streaming the memoized matrix once
// per K slices converts bandwidth into throughput.
//
// For each family the K=1 row times the single-RHS spelling (spmv_*) and
// K>1 rows the block spelling (spmm_*). Except for the library stand-in,
// both are sparse::apply: the K=1 row is the width-1 instance of the same
// kernel, not a separate single-RHS code path. Reported per row:
//
//   * seconds per apply (the whole K-wide pass),
//   * slices/s = K / seconds — the throughput the batch engine buys,
//   * amortized regular matrix traffic per slice
//     (perf::KernelWork::regular_bytes_at_width — matrix stream and
//     staging-map reads divide by K, per-slice x gathers do not),
//   * GFLOPS across all K lanes.
//
//   bench_spmm [--json <path>] [--quick]
//
// --quick shrinks the geometry and the rep count for CI smoke runs.
// Honors MEMXCT_BENCH_SCALE like every bench.
#include <omp.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/table.hpp"
#include "sparse/buffered.hpp"
#include "sparse/ell.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace {

using namespace memxct;

struct Row {
  std::string kernel;
  int k = 1;
  double seconds = 0.0;          ///< One K-wide apply.
  double slices_per_s = 0.0;
  double bytes_per_slice = 0.0;  ///< Regular matrix traffic, amortized.
  double bytes_per_fma = 0.0;    ///< Matrix stream (value + index) per FMA.
  double gflops = 0.0;           ///< Across all K lanes.
};

struct Family {
  std::string name;
  perf::KernelWork work;
  std::function<void()> single;            ///< K=1 production kernel.
  std::function<void(idx_t)> block;        ///< K-wide block kernel.
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg == "--quick") quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--quick]\n", argv[0]);
      return 1;
    }
  }

  const idx_t size =
      std::max<idx_t>(32, (quick ? 64 : 256) / bench::env_scale());
  const idx_t angles = size * 3 / 2;
  const int reps = quick ? 2 : 5;
  const std::vector<int> widths = {1, 2, 3, 4, 7, 8, 16};
  const idx_t max_width = 16;

  // Hilbert-ordered matrix — the production layout all kernels consume.
  phantom::DatasetSpec spec;
  spec.name = "spmm-sweep";
  spec.angles = angles;
  spec.channels = size;
  const auto a = bench::build_matrix(spec, hilbert::CurveKind::Hilbert);
  const auto buffered = sparse::build_buffered(a, {128, 4096});
  const auto ell = sparse::to_ell_block(a, 64);
  // Reduced-precision variants: the buffered layout with 16-bit values.
  const auto buf_bf16 =
      sparse::compress_buffered(buffered, sparse::ValueStorage::Bf16);
  const auto buf_fp16 =
      sparse::compress_buffered(buffered, sparse::ValueStorage::Fp16);
  const auto n = static_cast<std::size_t>(a.num_cols);
  const auto m = static_cast<std::size_t>(a.num_rows);
  const int slots = omp_get_max_threads();

  std::printf("geometry %d x %d (%lld nnz), %d threads, %d reps, "
              "K sweep {1,2,3,4,7,8,16}\n\n",
              angles, size, static_cast<long long>(a.nnz()), slots, reps);

  // Plans and workspaces are shared with the single-RHS path; block
  // workspaces are sized once at the widest K (the buffered kernels stage
  // at sparse::block_lanes(K) lanes).
  const auto csr_plan = sparse::ApplyPlan::build(
      sparse::partition_nnz(a, sparse::kCsrPartsize), slots);
  const auto buf_plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(buffered), slots);
  const auto ell_plan =
      sparse::ApplyPlan::build(sparse::partition_nnz(ell), slots);
  const idx_t max_lanes = sparse::block_lanes(max_width);
  sparse::Workspace buf_ws(slots, buffered.config.buffsize * max_lanes,
                           buffered.config.partsize * max_lanes);
  sparse::Workspace ell_ws(slots, 0, ell.block_rows * max_width);

  // Deterministic inputs; lanes differ so a broken lane mapping would show.
  AlignedVector<real> x1(n), y1(m);
  for (std::size_t i = 0; i < n; ++i)
    x1[i] = 0.25f + static_cast<real>(i % 17) * 0.0625f;
  AlignedVector<real> xk(n * static_cast<std::size_t>(max_width));
  AlignedVector<real> yk(m * static_cast<std::size_t>(max_width));
  for (std::size_t i = 0; i < n; ++i)
    for (idx_t s = 0; s < max_width; ++s)
      xk[i * static_cast<std::size_t>(max_width) + static_cast<std::size_t>(s)] =
          x1[i] + static_cast<real>(s) * 0.001f;
  // K-specific interleaved views: rebuild per K from the same base values.
  const auto fill_xk = [&](idx_t k) {
    const auto kk = static_cast<std::size_t>(k);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t s = 0; s < kk; ++s)
        xk[i * kk + s] = x1[i] + static_cast<real>(s) * 0.001f;
  };

  std::vector<Family> families;
  families.push_back(
      {"csr", sparse::csr_work(a),
       [&] { sparse::spmv_csr(a, x1, y1); },
       [&](idx_t k) { sparse::spmm_csr(a, k, xk, yk); }});
  families.push_back(
      {"csr-planned", sparse::csr_work(a),
       [&] { sparse::spmv_csr_planned(a, sparse::kCsrPartsize, csr_plan, x1, y1); },
       [&](idx_t k) {
         sparse::spmm_csr_planned(a, sparse::kCsrPartsize, csr_plan, k, xk, yk);
       }});
  families.push_back(
      {"library", sparse::csr_work(a),
       [&] { sparse::spmv_library(a, x1, y1); },
       [&](idx_t k) { sparse::spmm_library(a, k, xk, yk); }});
  families.push_back(
      {"ell", sparse::ell_work(ell),
       [&] { sparse::spmv_ell(ell, x1, y1); },
       [&](idx_t k) { sparse::spmm_ell(ell, k, xk, yk); }});
  families.push_back(
      {"ell-planned", sparse::ell_work(ell),
       [&] { sparse::spmv_ell_planned(ell, ell_plan, ell_ws, x1, y1); },
       [&](idx_t k) {
         sparse::spmm_ell_planned(ell, ell_plan, ell_ws, k, xk, yk);
       }});
  families.push_back(
      {"buffered", sparse::buffered_work(buffered),
       [&] { sparse::spmv_buffered(buffered, x1, y1); },
       [&](idx_t k) { sparse::spmm_buffered(buffered, k, xk, yk); }});
  families.push_back(
      {"buffered-planned", sparse::buffered_work(buffered),
       [&] { sparse::spmv_buffered_planned(buffered, buf_plan, buf_ws, x1, y1); },
       [&](idx_t k) {
         sparse::spmm_buffered_planned(buffered, buf_plan, buf_ws, k, xk, yk);
       }});
  families.push_back(
      {"buffered-bf16", sparse::buffered_work(buf_bf16),
       [&] { sparse::spmv_buffered(buf_bf16, x1, y1); },
       [&](idx_t k) { sparse::spmm_buffered(buf_bf16, k, xk, yk); }});
  families.push_back(
      {"buffered-bf16-planned", sparse::buffered_work(buf_bf16),
       [&] {
         sparse::spmv_buffered_planned(buf_bf16, buf_plan, buf_ws, x1, y1);
       },
       [&](idx_t k) {
         sparse::spmm_buffered_planned(buf_bf16, buf_plan, buf_ws, k, xk, yk);
       }});
  families.push_back(
      {"buffered-fp16", sparse::buffered_work(buf_fp16),
       [&] { sparse::spmv_buffered(buf_fp16, x1, y1); },
       [&](idx_t k) { sparse::spmm_buffered(buf_fp16, k, xk, yk); }});

  std::vector<Row> rows;
  io::TablePrinter table("Multi-RHS sweep (slices/s and amortized traffic)");
  table.header({"kernel", "K", "s/apply", "slices/s", "vs K=1",
                "MB/slice/apply", "B/FMA", "GFLOPS"});
  for (const auto& fam : families) {
    double baseline = 0.0;
    for (const int k : widths) {
      double t;
      if (k == 1) {
        t = bench::time_kernel([&] { fam.single(); }, reps);
      } else {
        fill_xk(static_cast<idx_t>(k));
        t = bench::time_kernel(
            [&] { fam.block(static_cast<idx_t>(k)); }, reps);
      }
      Row row;
      row.kernel = fam.name;
      row.k = k;
      row.seconds = t;
      row.slices_per_s = t > 0.0 ? k / t : 0.0;
      row.bytes_per_slice = fam.work.regular_bytes_at_width(k);
      row.bytes_per_fma = fam.work.bytes_per_fma();
      row.gflops = t > 0.0 ? k * fam.work.flops() / t * 1e-9 : 0.0;
      if (k == 1) baseline = row.slices_per_s;
      table.row({fam.name, std::to_string(k),
                 io::TablePrinter::time_s(row.seconds),
                 io::TablePrinter::num(row.slices_per_s, 2),
                 io::TablePrinter::num(
                     row.slices_per_s / std::max(baseline, 1e-12), 2) + "x",
                 io::TablePrinter::num(row.bytes_per_slice * 1e-6, 2),
                 io::TablePrinter::num(row.bytes_per_fma, 2),
                 io::TablePrinter::num(row.gflops, 2)});
      rows.push_back(std::move(row));
    }
  }
  table.print();
  std::printf("\nmatrix traffic per slice divides by K (map reads included "
              "for buffered; per-slice x gathers do not amortize)\n");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_spmm: cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "{\"kernel\": \"%s\", \"k\": %d, \"seconds\": %.6g, "
                   "\"slices_per_second\": %.6g, "
                   "\"matrix_bytes_per_slice\": %.6g, "
                   "\"matrix_bytes_per_fma\": %.6g, \"gflops\": %.6g}%s\n",
                   r.kernel.c_str(), r.k, r.seconds, r.slices_per_s,
                   r.bytes_per_slice, r.bytes_per_fma, r.gflops,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
