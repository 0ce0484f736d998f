// google-benchmark microbenchmarks of the SpMV kernel flavours and the
// preprocessing stages, on the ADS2 analog. Complements the paper-table
// benches with statistically robust per-kernel timings.
//
// Two modes:
//   bench_kernels [gbench flags]      google-benchmark suite (default);
//   bench_kernels --json <path>       one timed pass per (kernel, schedule)
//                                     combination, written as a JSON array of
//                                     {kernel, schedule, seconds, gflops,
//                                     regular_gbs[, imbalance]} rows for
//                                     machine consumption; an optional
//                                     --schedule=dynamic|static-plan flag
//                                     restricts the rows.
#include <benchmark/benchmark.h>

#include <omp.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sparse/buffered.hpp"
#include "sparse/ell.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"

namespace {

using namespace memxct;

// Shared fixtures, built once (google-benchmark re-enters main loops).
// Static plans and workspaces live here too, so the planned benchmarks time
// exactly what a solver iteration sees: plan construction amortized away.
struct Fixtures {
  sparse::CsrMatrix natural;
  sparse::CsrMatrix ordered;
  sparse::BufferedMatrix buffered;
  sparse::EllBlockMatrix ell;
  sparse::BufferedMatrix buf_bf16;
  sparse::ApplyPlan plan_natural, plan_ordered, plan_buffered, plan_ell;
  sparse::Workspace ws_buffered, ws_ell;
  AlignedVector<real> x, y;

  Fixtures() {
    const auto spec = bench::spec_paper_over("ADS2", 2);
    natural = bench::build_matrix(spec, hilbert::CurveKind::RowMajor);
    ordered = bench::build_matrix(spec, hilbert::CurveKind::Hilbert);
    buffered = sparse::build_buffered(ordered, {128, 4096});
    ell = sparse::to_ell_block(ordered, 64);
    buf_bf16 = sparse::compress_buffered(buffered, sparse::ValueStorage::Bf16);
    const int slots = omp_get_max_threads();
    plan_natural = sparse::ApplyPlan::build(
        sparse::partition_nnz(natural, sparse::kCsrPartsize), slots);
    plan_ordered = sparse::ApplyPlan::build(
        sparse::partition_nnz(ordered, sparse::kCsrPartsize), slots);
    plan_buffered =
        sparse::ApplyPlan::build(sparse::partition_nnz(buffered), slots);
    plan_ell = sparse::ApplyPlan::build(sparse::partition_nnz(ell), slots);
    ws_buffered = sparse::Workspace(slots, buffered.config.buffsize,
                                    buffered.config.partsize);
    ws_ell = sparse::Workspace(slots, 0, ell.block_rows);
    x.assign(static_cast<std::size_t>(natural.num_cols), 1.0f);
    y.assign(static_cast<std::size_t>(natural.num_rows), 0.0f);
  }
};

Fixtures& fixtures() {
  static Fixtures f;
  return f;
}

void set_counters(benchmark::State& state, const perf::KernelWork& work) {
  state.counters["GFLOPS"] = benchmark::Counter(
      work.flops(), benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.counters["regularGB/s"] = benchmark::Counter(
      work.regular_bytes(), benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_SpmvLibrary(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_library(f.natural, f.x, f.y);
  set_counters(state, sparse::csr_work(f.natural));
}
BENCHMARK(BM_SpmvLibrary);

void BM_SpmvBaseline(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_csr(f.natural, f.x, f.y);
  set_counters(state, sparse::csr_work(f.natural));
}
BENCHMARK(BM_SpmvBaseline);

void BM_SpmvHilbertOrdered(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_csr(f.ordered, f.x, f.y);
  set_counters(state, sparse::csr_work(f.ordered));
}
BENCHMARK(BM_SpmvHilbertOrdered);

void BM_SpmvHilbertOrderedPlanned(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state)
    sparse::spmv_csr_planned(f.ordered, sparse::kCsrPartsize, f.plan_ordered,
                             f.x, f.y);
  set_counters(state, sparse::csr_work(f.ordered));
}
BENCHMARK(BM_SpmvHilbertOrderedPlanned);

void BM_SpmvBuffered(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_buffered(f.buffered, f.x, f.y);
  set_counters(state, sparse::buffered_work(f.buffered));
}
BENCHMARK(BM_SpmvBuffered);

void BM_SpmvBufferedPlanned(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state)
    sparse::spmv_buffered_planned(f.buffered, f.plan_buffered, f.ws_buffered,
                                  f.x, f.y);
  set_counters(state, sparse::buffered_work(f.buffered));
}
BENCHMARK(BM_SpmvBufferedPlanned);

void BM_SpmvEllBlock(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_ell(f.ell, f.x, f.y);
  set_counters(state, sparse::ell_work(f.ell));
}
BENCHMARK(BM_SpmvEllBlock);

void BM_SpmvEllBlockPlanned(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state)
    sparse::spmv_ell_planned(f.ell, f.plan_ell, f.ws_ell, f.x, f.y);
  set_counters(state, sparse::ell_work(f.ell));
}
BENCHMARK(BM_SpmvEllBlockPlanned);

void BM_SpmvBufferedBf16(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state) sparse::spmv_buffered(f.buf_bf16, f.x, f.y);
  set_counters(state, sparse::buffered_work(f.buf_bf16));
}
BENCHMARK(BM_SpmvBufferedBf16);

void BM_ScanTranspose(benchmark::State& state) {
  auto& f = fixtures();
  for (auto _ : state)
    benchmark::DoNotOptimize(sparse::transpose(f.ordered));
}
BENCHMARK(BM_ScanTranspose)->Unit(benchmark::kMillisecond);

void BM_BuildBuffered(benchmark::State& state) {
  auto& f = fixtures();
  const sparse::BufferConfig config{static_cast<idx_t>(state.range(0)), 4096};
  for (auto _ : state)
    benchmark::DoNotOptimize(sparse::build_buffered(f.ordered, config));
}
BENCHMARK(BM_BuildBuffered)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// --- JSON mode --------------------------------------------------------------

struct JsonRow {
  const char* kernel;
  const char* schedule;  // "dynamic", "static-plan", or "library"
  std::function<void()> run;
  perf::KernelWork work;
  double imbalance;  // plan max/mean slot load; 0 = no plan (dynamic row)
};

int run_json(const std::string& path, const std::string& schedule_filter) {
  auto& f = fixtures();
  const std::vector<JsonRow> rows = {
      {"library-csr", "library",
       [&] { sparse::spmv_library(f.natural, f.x, f.y); },
       sparse::csr_work(f.natural), 0.0},
      {"baseline-csr-natural", "dynamic",
       [&] { sparse::spmv_csr(f.natural, f.x, f.y); },
       sparse::csr_work(f.natural), 0.0},
      {"baseline-csr-natural", "static-plan",
       [&] {
         sparse::spmv_csr_planned(f.natural, sparse::kCsrPartsize,
                                  f.plan_natural, f.x, f.y);
       },
       sparse::csr_work(f.natural), f.plan_natural.stats().imbalance()},
      {"hilbert-csr", "dynamic",
       [&] { sparse::spmv_csr(f.ordered, f.x, f.y); },
       sparse::csr_work(f.ordered), 0.0},
      {"hilbert-csr", "static-plan",
       [&] {
         sparse::spmv_csr_planned(f.ordered, sparse::kCsrPartsize,
                                  f.plan_ordered, f.x, f.y);
       },
       sparse::csr_work(f.ordered), f.plan_ordered.stats().imbalance()},
      {"ell-block", "dynamic",
       [&] { sparse::spmv_ell(f.ell, f.x, f.y); },
       sparse::ell_work(f.ell), 0.0},
      {"ell-block", "static-plan",
       [&] { sparse::spmv_ell_planned(f.ell, f.plan_ell, f.ws_ell, f.x, f.y); },
       sparse::ell_work(f.ell), f.plan_ell.stats().imbalance()},
      {"buffered", "dynamic",
       [&] { sparse::spmv_buffered(f.buffered, f.x, f.y); },
       sparse::buffered_work(f.buffered), 0.0},
      {"buffered", "static-plan",
       [&] {
         sparse::spmv_buffered_planned(f.buffered, f.plan_buffered,
                                       f.ws_buffered, f.x, f.y);
       },
       sparse::buffered_work(f.buffered), f.plan_buffered.stats().imbalance()},
      {"buffered-bf16", "dynamic",
       [&] { sparse::spmv_buffered(f.buf_bf16, f.x, f.y); },
       sparse::buffered_work(f.buf_bf16), 0.0},
      {"buffered-bf16", "static-plan",
       [&] {
         sparse::spmv_buffered_planned(f.buf_bf16, f.plan_buffered,
                                       f.ws_buffered, f.x, f.y);
       },
       sparse::buffered_work(f.buf_bf16), f.plan_buffered.stats().imbalance()},
  };

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  bool first = true;
  for (const auto& row : rows) {
    if (!schedule_filter.empty() && schedule_filter != row.schedule) continue;
    const double t = bench::time_kernel(row.run);
    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"schedule\": \"%s\", "
                 "\"seconds\": %.9g, \"gflops\": %.6g, \"regular_gbs\": %.6g, "
                 "\"matrix_bytes_per_fma\": %.6g",
                 row.kernel, row.schedule, t, row.work.gflops(t),
                 row.work.bandwidth_gbs(t), row.work.bytes_per_fma());
    if (row.imbalance > 0.0)
      std::fprintf(out, ", \"imbalance\": %.6g", row.imbalance);
    std::fprintf(out, "}");
    std::printf("%-22s %-12s %10.3e s  %8.2f GFLOPS  %8.2f GB/s\n",
                row.kernel, row.schedule, t, row.work.gflops(t),
                row.work.bandwidth_gbs(t));
  }
  std::fprintf(out, "\n]\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string schedule_filter;
  std::vector<char*> gbench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--schedule=", 0) == 0) {
      schedule_filter = arg.substr(11);
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_json(json_path, schedule_filter);

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc, gbench_args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
