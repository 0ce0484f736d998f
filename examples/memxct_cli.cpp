// memxct_cli: command-line reconstruction driver.
//
//   memxct_cli --angles M --channels N [options] --input sino.vec --output img.pgm
//   memxct_cli --demo shepp|shale|brain [options]     (synthesizes input)
//
// Options:
//   --solver cg|sirt|gd|os-sirt|os-sart                    (default cg)
//   --iterations K             iteration count             (default 30;
//                              full sweeps for the os- solvers)
//   --subsets N                ordered-subsets count        (default 8)
//   --stream-chunk M           feed the sinogram M angles at a time through
//                              the streaming-ingest path, warm-starting each
//                              preview from the last (os- solvers only)
//   --lambda L                 Tikhonov damping for cg     (default 0)
//   --ordering hilbert|rowmajor|morton                     (default hilbert)
//   --kernel buffered|baseline|ell|library                 (default buffered)
//   --schedule static|dynamic  apply-loop scheduling        (default static)
//   --partsize N               buffered-kernel partition rows (default 128)
//   --buffsize N               buffered-kernel buffer elements (default 4096)
//   --autotune off|cached|force   resolve kernel/schedule/buffer from
//                              measurements on the traced matrix (src/tune);
//                              cached replays an intact .tune decision from
//                              --cache DIR, force always re-measures
//   --autotune-json FILE       write the measured candidate table (the same
//                              schema bench_fig10_tuning --json emits)
//   --precision fp32|bf16|fp16 operator value storage      (default fp32;
//                              bf16/fp16 store 16-bit values beside the
//                              16-bit slots, buffered kernel only)
//   --shards P                 partition the operator across P simulated
//                              ranks (bitwise identical to P=1; fp32
//                              buffered/baseline, full-pass solvers only)
//   --shard-groups G           group size for the hierarchical two-level
//                              shard exchange (default 1 = flat)
//   --shard-tiles T            pipeline tiles per sharded apply (default 0
//                              = auto)
//   --noise I0                 Poisson dose for --demo     (default clean)
//   --ingest passthrough|reject|sanitize                   (default passthrough)
//   --cache DIR                checksummed preprocessing cache directory
//   --checkpoint FILE          solver checkpoint/restart file
//   --checkpoint-interval K    snapshot every K iterations (default 10)
//   --slices S                 reconstruct S slices through one operator
//   --batch-workers K          batch worker pool size       (default 1)
//   --batch-queue Q            bounded submit queue depth   (default 2K)
//   --deadline-ms D            wall-clock budget for the single-slice solve;
//                              the solver stops at the next iteration
//                              boundary once it expires
//   --degrade                  salvage a deadline-interrupted solve: write
//                              the best-so-far iterate and exit 6 instead
//                              of failing
//   --max-retries R            attempts for transient preprocessing faults
//                              (default 1 = no retry)
//   --retry-backoff-ms B       base retry backoff, doubled per attempt
//                              with deterministic jitter (default 10)
//   --watchdog-ms W            force-cancel the solve when no iteration
//                              completes for W ms (default off)
//   --block-width W            lockstep multi-RHS width: each worker solves
//                              waves of W slices per matrix stream (cg
//                              only; default 1)
//   --save-sino file.vec       dump the sinogram used
//   --fbp filter               also run FBP (ramp|shepp|hann) for comparison
//
// Input sinograms are .vec files (io::save_vector format), angles-major.
//
// Exit codes: 0 success, 2 usage, 3 invalid argument/data, 4 I/O or
// corruption error, 5 internal invariant violation, 6 degraded (the
// deadline interrupted the solve and --degrade salvaged the best-so-far
// iterate into the output image).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "batch/batch.hpp"
#include "core/reconstructor.hpp"
#include "core/stream.hpp"
#include "io/pgm.hpp"
#include "io/table.hpp"
#include "perf/counters.hpp"
#include "io/serialize.hpp"
#include "phantom/phantom.hpp"
#include "serve/retry.hpp"
#include "solve/fbp.hpp"

namespace {

using namespace memxct;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--input sino.vec --angles M --channels N | "
               "--demo shepp|shale|brain [--size N]) "
               "[--solver cg|sirt|gd|os-sirt|os-sart] [--subsets N] "
               "[--stream-chunk M] "
               "[--iterations K] [--lambda L] [--ordering hilbert|rowmajor|"
               "morton] [--kernel buffered|baseline|ell|library] "
               "[--schedule static|dynamic] [--partsize N] [--buffsize N] "
               "[--precision fp32|bf16|fp16] [--autotune off|cached|force] "
               "[--autotune-json FILE] [--shards P] "
               "[--shard-groups G] [--shard-tiles T] "
               "[--noise I0] [--ingest passthrough|reject|sanitize] "
               "[--cache DIR] [--checkpoint FILE] [--checkpoint-interval K] "
               "[--slices S] [--batch-workers K] [--batch-queue Q] "
               "[--block-width W] "
               "[--deadline-ms D] [--degrade] [--max-retries R] "
               "[--retry-backoff-ms B] [--watchdog-ms W] "
               "[--save-sino f.vec] [--fbp ramp|shepp|hann] "
               "[--output img.pgm]\n",
               argv0);
  std::exit(2);
}

int run(int argc, char** argv);

}  // namespace

// One-line diagnostics with distinct exit codes per error class, instead of
// std::terminate backtraces: scripts driving the CLI can distinguish "your
// input is wrong" (3) from "a file is corrupt" (4) from "this is a bug" (5).
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const InvalidArgument& e) {
    std::fprintf(stderr, "memxct_cli: invalid argument: %s\n", e.what());
    return 3;
  } catch (const IoError& e) {
    std::fprintf(stderr, "memxct_cli: I/O error: %s\n", e.what());
    return 4;
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "memxct_cli: internal invariant violated: %s\n",
                 e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memxct_cli: error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(int argc, char** argv) {
  std::string input, output = "reconstruction.pgm", demo, save_sino, fbp;
  std::string autotune_json;
  core::Config config;
  idx_t angles = 0, channels = 0, size = 128;
  double noise = 0.0;
  int slices = 1;
  int stream_chunk = 0;
  batch::BatchOptions batch_opt;
  double deadline_ms = 0.0;
  bool degrade = false;
  int max_retries = 1;
  double retry_backoff_ms = 10.0;
  double watchdog_ms = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--input") input = next();
    else if (arg == "--output") output = next();
    else if (arg == "--demo") demo = next();
    else if (arg == "--size") size = static_cast<idx_t>(std::atoi(next()));
    else if (arg == "--angles") angles = static_cast<idx_t>(std::atoi(next()));
    else if (arg == "--channels")
      channels = static_cast<idx_t>(std::atoi(next()));
    else if (arg == "--iterations") config.iterations = std::atoi(next());
    else if (arg == "--subsets") config.num_subsets = std::atoi(next());
    else if (arg == "--stream-chunk") stream_chunk = std::atoi(next());
    else if (arg == "--lambda") config.tikhonov_lambda = std::atof(next());
    else if (arg == "--shards") config.num_shards = std::atoi(next());
    else if (arg == "--shard-groups")
      config.shard_group_size = std::atoi(next());
    else if (arg == "--shard-tiles")
      config.shard_pipeline_tiles = std::atoi(next());
    else if (arg == "--noise") noise = std::atof(next());
    else if (arg == "--save-sino") save_sino = next();
    else if (arg == "--fbp") fbp = next();
    else if (arg == "--cache") config.cache_dir = next();
    else if (arg == "--checkpoint") config.checkpoint_path = next();
    else if (arg == "--checkpoint-interval")
      config.checkpoint_interval = std::atoi(next());
    else if (arg == "--slices") slices = std::atoi(next());
    else if (arg == "--batch-workers") batch_opt.workers = std::atoi(next());
    else if (arg == "--batch-queue")
      batch_opt.queue_capacity = std::atoi(next());
    else if (arg == "--deadline-ms") deadline_ms = std::atof(next());
    else if (arg == "--degrade") degrade = true;
    else if (arg == "--max-retries") max_retries = std::atoi(next());
    else if (arg == "--retry-backoff-ms") retry_backoff_ms = std::atof(next());
    else if (arg == "--watchdog-ms") watchdog_ms = std::atof(next());
    else if (arg == "--block-width") {
      batch_opt.block_width = std::atoi(next());
      config.block_width = batch_opt.block_width;
    }
    else if (arg == "--ingest") {
      const std::string v = next();
      if (v == "passthrough")
        config.ingest.policy = resil::IngestPolicy::Passthrough;
      else if (v == "reject") config.ingest.policy = resil::IngestPolicy::Reject;
      else if (v == "sanitize")
        config.ingest.policy = resil::IngestPolicy::Sanitize;
      else usage(argv[0]);
    } else if (arg == "--solver") {
      const std::string v = next();
      if (v == "cg") config.solver = core::SolverKind::CGLS;
      else if (v == "sirt") config.solver = core::SolverKind::SIRT;
      else if (v == "gd") config.solver = core::SolverKind::GradientDescent;
      else if (v == "os-sirt") config.solver = core::SolverKind::OsSirt;
      else if (v == "os-sart") config.solver = core::SolverKind::OsSart;
      else usage(argv[0]);
    } else if (arg == "--ordering") {
      const std::string v = next();
      if (v == "hilbert") config.ordering = hilbert::CurveKind::Hilbert;
      else if (v == "rowmajor") config.ordering = hilbert::CurveKind::RowMajor;
      else if (v == "morton") config.ordering = hilbert::CurveKind::Morton;
      else usage(argv[0]);
    } else if (arg == "--kernel") {
      const std::string v = next();
      if (v == "buffered") config.kernel = core::KernelKind::Buffered;
      else if (v == "baseline") config.kernel = core::KernelKind::Baseline;
      else if (v == "ell") config.kernel = core::KernelKind::EllBlock;
      else if (v == "library") config.kernel = core::KernelKind::Library;
      else usage(argv[0]);
    } else if (arg == "--schedule") {
      const std::string v = next();
      if (v == "static") config.schedule = core::ScheduleKind::StaticPlan;
      else if (v == "dynamic") config.schedule = core::ScheduleKind::Dynamic;
      else usage(argv[0]);
    } else if (arg == "--partsize") {
      config.buffer.partsize = static_cast<idx_t>(std::atoi(next()));
    } else if (arg == "--buffsize") {
      config.buffer.buffsize = static_cast<idx_t>(std::atoi(next()));
    } else if (arg == "--precision") {
      if (!sparse::parse_value_storage(next(), config.precision))
        usage(argv[0]);
    } else if (arg == "--autotune") {
      const std::string v = next();
      if (v == "off") config.autotune = core::AutotuneMode::Off;
      else if (v == "cached") config.autotune = core::AutotuneMode::Cached;
      else if (v == "force") config.autotune = core::AutotuneMode::Force;
      else usage(argv[0]);
    } else if (arg == "--autotune-json") {
      autotune_json = next();
    } else {
      usage(argv[0]);
    }
  }

  AlignedVector<real> sinogram, clean_base;
  if (!demo.empty()) {
    angles = angles > 0 ? angles : size * 3 / 2;
    channels = size;
    const auto g = geometry::make_geometry(angles, channels);
    std::vector<real> image;
    if (demo == "shepp") image = phantom::shepp_logan(size);
    else if (demo == "shale") image = phantom::shale_phantom(size, 7);
    else if (demo == "brain") image = phantom::brain_phantom(size, 7);
    else usage(argv[0]);
    sinogram = phantom::forward_project(g, image);
    if (slices > 1) clean_base = sinogram;  // per-slice noise needs the base
    if (noise > 0) {
      Rng rng(11);
      phantom::add_poisson_noise(sinogram, noise, rng);
    }
    std::printf("synthesized %s demo: %d x %d sinogram%s\n", demo.c_str(),
                angles, channels, noise > 0 ? " (noisy)" : "");
  } else if (!input.empty()) {
    if (angles <= 0 || channels <= 0) usage(argv[0]);
    sinogram = io::load_vector(input);
    if (static_cast<std::int64_t>(sinogram.size()) !=
        static_cast<std::int64_t>(angles) * channels) {
      std::fprintf(stderr, "error: %s has %zu values, expected %lld\n",
                   input.c_str(), sinogram.size(),
                   static_cast<long long>(angles) * channels);
      return 1;
    }
  } else {
    usage(argv[0]);
  }
  if (!save_sino.empty()) io::save_vector(save_sino, sinogram);

  const auto g = geometry::make_geometry(angles, channels);
  // Transient preprocessing faults retry with the same bounded-backoff
  // policy the serve layer uses; every other exception type is permanent
  // and propagates to the typed exit codes above.
  serve::RetryPolicy retry(
      {.max_attempts = max_retries, .backoff_ms = retry_backoff_ms});
  std::unique_ptr<core::Reconstructor> recon_ptr;
  for (int attempt = 1; recon_ptr == nullptr; ++attempt) {
    try {
      recon_ptr = std::make_unique<core::Reconstructor>(g, config);
    } catch (const TransientError& e) {
      if (!retry.should_retry(attempt)) throw;
      const double delay = retry.delay_seconds(0, attempt);
      std::fprintf(stderr,
                   "transient fault (attempt %d): %s; retrying in %.0f ms\n",
                   attempt, e.what(), delay * 1e3);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }
  const core::Reconstructor& recon = *recon_ptr;
  const auto& report = recon.preprocess_report();
  std::printf("preprocessing %.2f s (%lld nnz, %s regular data%s)\n",
              report.total_seconds, static_cast<long long>(report.nnz),
              io::TablePrinter::bytes(
                  static_cast<double>(report.regular_bytes)).c_str(),
              report.cache_hit ? ", cache hit" : "");
  const tune::TuneReport& tuner = recon.tune_report();
  if (tuner.tuned) {
    if (tuner.cache_hit)
      std::printf("autotune: cache hit — replayed %s (zero measurement)\n",
                  tuner.tune_path.c_str());
    else
      std::printf("autotune: measured %zu candidates in %.0f ms%s%s\n",
                  tuner.candidates.size(), tuner.measure_seconds * 1e3,
                  tuner.cache_corrupt ? " (cached decision was corrupt)" : "",
                  tuner.tune_path.empty() ? " (no --cache: not persisted)"
                                          : "");
    io::TablePrinter tt("Autotune candidates (fwd+bwd pass)");
    tt.header({"kernel", "schedule", "partsize", "buffsize", "GB/s",
               "GFLOP/s", "chosen"});
    for (const tune::Candidate& c : tuner.candidates)
      tt.row({core::to_string(c.kernel), core::to_string(c.schedule),
              std::to_string(c.buffer.partsize),
              std::to_string(c.buffer.buffsize),
              io::TablePrinter::num(c.gbs, 2),
              io::TablePrinter::num(c.gflops, 2), c.chosen ? "<==" : ""});
    tt.print();
    // Print the decision as the exact flags that replay it by hand.
    const char* kernel_flag =
        tuner.chosen.kernel == core::KernelKind::Baseline   ? "baseline"
        : tuner.chosen.kernel == core::KernelKind::EllBlock ? "ell"
        : tuner.chosen.kernel == core::KernelKind::Library  ? "library"
                                                            : "buffered";
    std::printf("autotune chose: --kernel %s --schedule %s --partsize %d "
                "--buffsize %d (%.2f GB/s)\n",
                kernel_flag,
                tuner.chosen.schedule == core::ScheduleKind::Dynamic
                    ? "dynamic"
                    : "static",
                static_cast<int>(tuner.chosen.buffer.partsize),
                static_cast<int>(tuner.chosen.buffer.buffsize),
                tuner.chosen.gbs);
    if (!autotune_json.empty()) {
      std::FILE* out = std::fopen(autotune_json.c_str(), "w");
      if (out == nullptr)
        throw IoError("cannot open " + autotune_json);
      const std::string json = tune::candidates_json(tuner.candidates);
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
      std::printf("wrote %s\n", autotune_json.c_str());
    }
  }
  if (recon.shard_op() != nullptr) {
    const auto* sop = recon.shard_op();
    std::int64_t max_rank = 0;
    for (int p = 0; p < sop->num_shards(); ++p)
      max_rank = std::max(max_rank, sop->rank_bytes(p));
    std::printf("sharded: %d shards, %d pipeline tiles, max per-rank %s\n",
                sop->num_shards(), sop->pipeline_tiles(),
                io::TablePrinter::bytes(static_cast<double>(max_rank))
                    .c_str());
  }
  if (config.precision != sparse::ValueStorage::Fp32 &&
      recon.serial_op() != nullptr) {
    const auto fwd = recon.serial_op()->forward_work();
    std::printf("%s values + 16-bit slots: %.2f matrix B/FMA (fp32 "
                "buffered streams %.0f)\n",
                sparse::to_string(config.precision), fwd.bytes_per_fma(),
                perf::RegularBytes::kBuffered);
  }

  if (slices > 1) {
    // Multi-slice batch: the preprocessing above is paid once and amortized
    // over all S slices. Demo slices get independent noise realizations
    // (seeds 11, 12, ...); file input is replicated as-is.
    batch::BatchReconstructor engine(recon, batch_opt);
    engine.submit(sinogram);
    for (int s = 1; s < slices; ++s) {
      if (!demo.empty() && noise > 0) {
        AlignedVector<real> sino = clean_base;
        Rng rng(11 + static_cast<std::uint64_t>(s));
        phantom::add_poisson_noise(sino, noise, rng);
        engine.submit(sino);
      } else {
        engine.submit(sinogram);
      }
    }
    const auto results = engine.wait_all();
    std::printf("%s\n", engine.report().summary().c_str());
    std::printf("amortized: %.1f ms/slice end-to-end vs %.1f ms/slice batch "
                "wall\n",
                engine.report().per_slice_wall_with_preprocess() * 1e3,
                engine.report().per_slice_wall() * 1e3);
    if (engine.report().block_width > 1 && recon.serial_op() != nullptr) {
      const auto fwd = recon.serial_op()->forward_work();
      const auto bwd = recon.serial_op()->transpose_work();
      std::printf(
          "matrix traffic: %s/slice/iteration at width %d (vs %s at "
          "width 1)\n",
          io::TablePrinter::bytes(engine.report().matrix_bytes_per_slice)
              .c_str(),
          engine.report().block_width,
          io::TablePrinter::bytes(fwd.regular_bytes_at_width(1) +
                                  bwd.regular_bytes_at_width(1))
              .c_str());
    }
    for (const auto& r : results)
      if (r.status != batch::SliceStatus::Ok)
        std::printf("slice %d: %s%s%s\n", r.slice, to_string(r.status),
                    r.error.empty() ? "" : " — ", r.error.c_str());
    if (results[0].status == batch::SliceStatus::Ok) {
      io::write_pgm_autoscale(output, g.tomogram_extent(), results[0].image);
      std::printf("wrote %s (slice 0 of %d)\n", output.c_str(), slices);
    }
    return results[0].status == batch::SliceStatus::Ok ? 0 : 3;
  }

  if (stream_chunk > 0) {
    // Streaming-ingest path: the sinogram is fed chunk-by-chunk as if the
    // detector were delivering it live; each chunk's preview warm-starts
    // the next. The final preview covers every angle.
    const auto previews =
        core::reconstruct_stream(recon, sinogram, stream_chunk);
    for (std::size_t c = 0; c < previews.size(); ++c) {
      const auto& p = previews[c].solve;
      std::printf("chunk %zu/%zu: %d sweeps in %.2f s, residual %.4g\n",
                  c + 1, previews.size(), p.iterations, p.seconds,
                  p.history.empty() ? 0.0 : p.history.back().residual_norm);
    }
    io::write_pgm_autoscale(output, g.tomogram_extent(),
                            previews.back().image);
    std::printf("wrote %s (final of %zu streamed previews)\n", output.c_str(),
                previews.size());
    return 0;
  }

  // Single-slice path with the full resilience kit: deadline via the
  // cooperative CancelToken, per-iteration heartbeat, and an optional
  // watchdog thread that force-cancels a solve whose heartbeat goes silent.
  solve::CancelToken token;
  if (deadline_ms > 0.0) token.set_deadline_after(deadline_ms / 1e3);
  solve::ProgressSink progress;
  std::atomic<bool> watchdog_stop{false};
  std::atomic<bool> watchdog_fired{false};
  std::thread watchdog;
  if (watchdog_ms > 0.0) {
    progress.arm();
    watchdog = std::thread([&] {
      const auto interval = std::chrono::duration<double, std::milli>(
          watchdog_ms / 4.0 > 1.0 ? watchdog_ms / 4.0 : 1.0);
      while (!watchdog_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(interval);
        if (watchdog_stop.load(std::memory_order_relaxed)) break;
        if (progress.seconds_since_tick() * 1e3 > watchdog_ms) {
          watchdog_fired.store(true, std::memory_order_relaxed);
          token.request_cancel();
          break;
        }
      }
    });
  }
  const auto result = core::reconstruct_slice(
      recon.op(), g, config, recon.sinogram_ordering(),
      recon.tomogram_ordering(), sinogram, nullptr, &token, &progress);
  watchdog_stop.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();

  if (config.ingest.policy == resil::IngestPolicy::Sanitize &&
      !result.ingest.clean())
    std::printf("ingest: %s\n", result.ingest.summary().c_str());
  std::printf("%s: %d iterations in %.2f s (%.1f ms/iter), residual %.4g\n",
              to_string(config.solver), result.solve.iterations,
              result.solve.seconds, result.solve.per_iteration_s * 1e3,
              result.solve.history.empty()
                  ? 0.0
                  : result.solve.history.back().residual_norm);
  if (result.solve.cancelled) {
    if (watchdog_fired.load(std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "memxct_cli: watchdog: no solver progress within %.0f ms; "
                   "solve cancelled after iteration %d\n",
                   watchdog_ms, result.solve.iterations);
      return 1;
    }
    if (!degrade || result.solve.iterations == 0) {
      std::fprintf(stderr,
                   "memxct_cli: deadline of %.0f ms exceeded after %d "
                   "iterations (rerun with --degrade to salvage the partial "
                   "image)\n",
                   deadline_ms, result.solve.iterations);
      return 1;
    }
    // Salvage: the last completed iterate is a usable under-iterated image.
    io::write_pgm_autoscale(output, g.tomogram_extent(), result.image);
    std::printf("degraded: deadline hit after %d of %d iterations; wrote "
                "best-so-far iterate to %s\n",
                result.solve.iterations, config.iterations, output.c_str());
    return 6;
  }
  io::write_pgm_autoscale(output, g.tomogram_extent(), result.image);
  std::printf("wrote %s\n", output.c_str());

  if (!fbp.empty()) {
    solve::FbpOptions opt;
    if (fbp == "ramp") opt.filter = solve::FbpFilter::Ramp;
    else if (fbp == "shepp") opt.filter = solve::FbpFilter::SheppLogan;
    else if (fbp == "hann") opt.filter = solve::FbpFilter::Hann;
    else usage(argv[0]);
    const auto img = solve::fbp_reconstruct(g, sinogram, opt);
    const std::string fbp_out = "fbp_" + output;
    io::write_pgm_autoscale(fbp_out, g.tomogram_extent(), img);
    std::printf("wrote %s (FBP %s comparison)\n", fbp_out.c_str(),
                to_string(opt.filter));
  }
  return 0;
}

}  // namespace
