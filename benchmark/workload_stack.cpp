// stack-k8: 32-slice stacks through batch::BatchReconstructor at block
// width 8 (4 workers × 1 OpenMP thread, queue of 32), CGLS-20, fp32.
//
// It runs the SpMM lanes and the lockstep block CGLS solver, so a kernel
// change that helps SpMV but hurts SpMM shows here and not in recon-large.
// The queue holds a whole stack: with the engine's default queue (2× the
// workers) the producer blocks and the waves starve.
//
// The workers are single-threaded. The k = 8 SpMM is compute-bound, and on
// a VM whose cores are shared with other tenants a team of 4 threads waits
// at every barrier for its slowest vCPU. In an interleaved test on the
// reference host (README.md), stack time spread 31% between runs with
// 1 worker × 4 threads, against 14% with 4 workers × 1 thread.
#include <omp.h>

#include <algorithm>
#include <memory>

#include "batch/batch.hpp"
#include "bench.hpp"
#include "perf/timer.hpp"
#include "solve/block.hpp"

namespace memxct::bench {

namespace {

struct StackSpec {
  idx_t angles = 0;
  idx_t channels = 0;
  int stack = 0;  ///< Slices per submitted stack (all distinct inputs).
  int width = 8;
  Gate gate;
};

StackSpec spec_for(const Options& opt) {
  // Gates about 1 dB / 10% inside the worst slice at each size.
  if (opt.smoke) return {48, 32, 16, 8, {28.5, 0.0040}};
  return {256, 192, 32, 8, {32.5, 0.0039}};
}

core::Config config_for(const StackSpec& spec) {
  core::Config config;
  config.iterations = 20;
  config.block_width = spec.width;
  return config;
}

constexpr int kWorkers = 4;
constexpr int kThreadsPerWorker = 1;

batch::BatchOptions engine_options(const StackSpec& spec) {
  batch::BatchOptions o;
  o.workers = kWorkers;
  o.omp_threads_per_worker = kThreadsPerWorker;
  o.queue_capacity = spec.stack;
  o.block_width = spec.width;
  return o;
}

/// Sets this thread's OpenMP team size for its lifetime.
class OmpThreads {
 public:
  explicit OmpThreads(int threads) { omp_set_num_threads(threads); }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int saved_ = omp_get_max_threads();
};

/// The preprocessed operator and its batch engine. The engine is declared
/// last, so it joins its workers before the operator goes.
struct Engine {
  Engine(const geometry::Geometry& g, const StackSpec& spec)
      : recon(g, config_for(spec)), batch(recon, engine_options(spec)) {}
  core::Reconstructor recon;
  batch::BatchReconstructor batch;
};

/// Submits inputs [first, first + count) and waits; checks every slice.
/// Returns the wall time; `blocked` receives the time spent in submit().
double run_round(Engine& e, const std::vector<Slice>& inputs,
                 std::size_t first, std::size_t count, SliceChecker& checker,
                 double* blocked) {
  perf::WallTimer wall;
  double in_submit = 0.0;
  for (std::size_t j = 0; j < count; ++j) {
    perf::WallTimer t;
    e.batch.submit(inputs[(first + j) % inputs.size()].sinogram);
    in_submit += t.seconds();
  }
  const std::vector<batch::SliceResult> results = e.batch.wait_all();
  const double seconds = wall.seconds();
  for (std::size_t j = 0; j < results.size(); ++j) {
    const std::size_t input = (first + j) % inputs.size();
    if (results[j].status != batch::SliceStatus::Ok)
      checker.reject(std::string("slice status ") +
                     batch::to_string(results[j].status) + ": " +
                     results[j].error);
    else
      checker.check(input, results[j].image, results[j].solve);
  }
  if (blocked != nullptr) *blocked = in_submit;
  return seconds;
}

void untraced(const Options& opt, const StackSpec& spec,
              const geometry::Geometry& g, const std::vector<Slice>& inputs,
              Record& rec) {
  const auto make = [&] { return std::make_unique<Engine>(g, spec); };
  perf::WallTimer first_setup;
  std::unique_ptr<Engine> e = make();
  std::vector<double> setup = {first_setup.seconds()};

  SliceChecker checker(inputs, spec.gate, rec);
  (void)run_round(*e, inputs, 0, static_cast<std::size_t>(spec.width), checker,
                  nullptr);  // warm-up wave

  // wait_all() delivers every slice of a stack at once, so the item whose
  // latency is measured is the stack: one sample per stack.
  std::vector<double> latency, blocked, wave_width;
  perf::WallTimer loop;
  while (keep_going(opt.seconds, loop.seconds(), latency.size())) {
    double in_submit = 0.0;
    latency.push_back(run_round(*e, inputs, 0,
                                static_cast<std::size_t>(spec.stack), checker,
                                &in_submit));
    blocked.push_back(in_submit);
    wave_width.push_back(e->batch.report().avg_wave_width);
  }
  double busy = 0.0;
  for (const double s : latency) busy += s;
  const auto stacks = static_cast<std::int64_t>(latency.size());
  const std::int64_t slices = stacks * spec.stack;
  const double rss = peak_rss_mib();
  e.reset();  // one operator resident at a time
  repeat_setup(setup, make);

  rec.add("setup_s", median(setup), "s", kSetupRepeats);
  rec.add("latency_p50_s", median(latency), "s", stacks);
  rec.add("throughput_per_s", static_cast<double>(slices) / busy, "1/s",
          slices);
  rec.add("psnr_db", checker.mean_psnr(), "dB",
          static_cast<std::int64_t>(inputs.size()));
  rec.add("peak_rss_mib", rss, "MiB");
  checker.add_margins(rec, "quality.");
  rec.add("batch.wave_width_avg", median(wave_width), "count", stacks);
  rec.add("batch.submit_blocked_s", median(blocked), "s", stacks);
}

void traced(const Options& opt, const StackSpec& spec,
            const geometry::Geometry& g, const std::vector<Slice>& inputs,
            Record& rec) {
  const HostCeiling host = measure_host(opt.smoke);
  const core::Config config = config_for(spec);
  SliceChecker checker(inputs, spec.gate, rec);
  {
    // The engine's images of one whole stack are the reference every block
    // below must reproduce bit for bit.
    Engine e(g, spec);
    (void)run_round(e, inputs, 0, inputs.size(), checker, nullptr);
  }

  Tracer tracer;
  const Composed c = compose(g, config, tracer);
  const TimedOperator timed(*c.op, tracer);
  const auto k = static_cast<std::size_t>(spec.width);
  const auto m = static_cast<std::size_t>(g.sinogram_extent().size());
  const auto n = static_cast<std::size_t>(g.tomogram_extent().size());
  AlignedVector<real> y_slab(m * k);
  core::SliceWorkspace ws;
  solve::BlockCglsOptions block_opt;
  block_opt.max_iterations = config.iterations;
  block_opt.early_stop = config.early_stop;
  block_opt.early_stop_tol = config.early_stop_tol;
  block_opt.tikhonov_lambda = config.tikhonov_lambda;

  // One block of `width` slices on each side, alternating:
  // core::reconstruct_block on the re-composed operator (untraced), then
  // the same slices re-composed from ingest_and_order, cgls_block on the
  // timed operator and depermute_image. Both run on the thread count of
  // one engine worker.
  const OmpThreads team(kThreadsPerWorker);
  std::vector<double> untraced_s;
  std::size_t first = 0;
  perf::WallTimer loop;
  while (keep_going(opt.seconds, loop.seconds(), untraced_s.size())) {
    std::vector<std::span<const real>> sinograms;
    for (std::size_t j = 0; j < k; ++j)
      sinograms.push_back(inputs[(first + j) % inputs.size()].sinogram);
    perf::WallTimer t;
    const std::vector<core::ReconstructionResult> untraced_block =
        core::reconstruct_block(*c.op, g, config, *c.sino, *c.tomo,
                                sinograms);
    untraced_s.push_back(t.seconds());

    std::vector<std::vector<real>> images(k, std::vector<real>(n));
    solve::BlockSolveResult solved;
    {
      Scope wave(tracer, "wave");
      for (std::size_t j = 0; j < k; ++j) {
        Scope s(tracer, "core.ingest");
        (void)core::ingest_and_order(g, config, *c.sino, sinograms[j], ws);
        std::copy(ws.ordered.begin(), ws.ordered.end(),
                  y_slab.begin() + static_cast<std::ptrdiff_t>(j * m));
      }
      {
        Scope s(tracer, "solve");
        solved = solve::cgls_block(timed, y_slab, static_cast<idx_t>(k),
                                   block_opt);
        tracer.set_count(s.id(), solved.rounds);
      }
      for (std::size_t j = 0; j < k; ++j) {
        Scope s(tracer, "core.depermute");
        core::depermute_image(*c.tomo, solved.slices[j].x, images[j]);
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t input = (first + j) % inputs.size();
      checker.check(input, untraced_block[j].image, untraced_block[j].solve);
      checker.check(input, images[j], solved.slices[j]);
    }
    first += k;
  }

  add_layer_metrics(rec, tracer, host, c, spec.width, "wave", untraced_s);
  rec.add("psnr_db", checker.mean_psnr(), "dB");
  tracer.write_chrome(opt.trace_path);
}

}  // namespace

void run_stack(const Options& opt, Record& rec) {
  const StackSpec spec = spec_for(opt);
  const auto g = geometry::make_geometry(spec.angles, spec.channels);
  const std::vector<Slice> inputs = make_slices(g, spec.stack, opt.seed);
  if (opt.traced())
    traced(opt, spec, g, inputs, rec);
  else
    untraced(opt, spec, g, inputs, rec);
}

}  // namespace memxct::bench
