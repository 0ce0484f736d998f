// memxct_serve — drive the in-process reconstruction service with a
// synthetic mixed-geometry workload.
//
// Simulates a beamline front end: several distinct acquisition geometries
// (different angle counts over the same detector), requests spread across
// the three priority classes, all flowing through one serve::Server whose
// OperatorRegistry amortizes preprocessing across requests.
//
//   memxct_serve [--requests N] [--workers K] [--geometries G] [--size S]
//                [--iterations I] [--queue Q] [--budget-bytes B]
//                [--cache-dir DIR] [--deadline-ms D] [--block-width W]
//                [--precision fp32|bf16|fp16] [--autotune off|cached|force]
//                [--degrade]
//                [--max-retries R] [--retry-backoff-ms B] [--watchdog-ms W]
//                [--shards P] [--shard-groups G] [--shard-tiles T]
//
// --shards serves every request on a P-way sharded operator
// (shard/sharded_operator.hpp): per-shard row slices with precomputed
// halo-exchange plans and comm/compute overlap, bitwise identical to the
// unsharded path. The snapshot then reports per-rank exchange traffic and
// the comm-vs-compute split.
//
// --block-width keys every submitted config at that multi-RHS width (the
// registry sizes block workspaces per width, so widths never share an
// operator entry) and reports the amortized per-slice matrix traffic,
// measured from the operator's own work accounting rather than the fp32
// model constant. --precision serves reduced-precision buffered operators
// (16-bit values); the registry's byte budget charges their smaller
// footprint.
//
// --autotune lets the registry resolve each build's kernel/schedule/buffer
// from measurements on the traced matrix (src/tune); with --cache-dir the
// decisions persist as .tune files and later builds replay them. The
// registry table then reports tuned builds, tune cache hits, and
// measurement time.
//
// --degrade enables the default quality ladder (plus mid-solve salvage),
// --max-retries/--retry-backoff-ms configure the transient-fault retry
// policy, --watchdog-ms starts the stalled-solve monitor.
//
// Defaults make a CI-friendly smoke run: small geometries, queue sized to
// the request count (no overload), no deadlines. Exit codes: 0 = every
// request completed Ok and nothing was rejected (the CI smoke gate);
// 6 = some requests completed Degraded (reduced rung or salvaged partial)
// but nothing failed; 1 = rejections or failures.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/reconstructor.hpp"
#include "io/table.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "phantom/phantom.hpp"
#include "serve/server.hpp"

namespace {

using namespace memxct;

int int_flag(const char* value, const char* name) {
  const int v = std::atoi(value);
  if (v <= 0) {
    std::fprintf(stderr, "memxct_serve: %s must be a positive integer\n",
                 name);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 12;
  int workers = 2;
  int geometries = 3;
  int size = 24;
  int iterations = 5;
  int queue = 0;  // 0 = sized to the request count (no overload in smoke)
  long long budget_bytes = 0;
  double deadline_ms = 0.0;
  int block_width = 1;
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
  std::string cache_dir;
  bool degrade = false;
  int max_retries = 1;
  double retry_backoff_ms = 10.0;
  double watchdog_ms = 0.0;
  int shards = 1;
  int shard_groups = 1;
  int shard_tiles = 0;
  core::AutotuneMode autotune = core::AutotuneMode::Off;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "memxct_serve: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--requests") requests = int_flag(next("--requests"), arg.c_str());
    else if (arg == "--workers") workers = int_flag(next("--workers"), arg.c_str());
    else if (arg == "--geometries") geometries = int_flag(next("--geometries"), arg.c_str());
    else if (arg == "--size") size = int_flag(next("--size"), arg.c_str());
    else if (arg == "--iterations") iterations = int_flag(next("--iterations"), arg.c_str());
    else if (arg == "--queue") queue = int_flag(next("--queue"), arg.c_str());
    else if (arg == "--budget-bytes") budget_bytes = std::atoll(next("--budget-bytes"));
    else if (arg == "--deadline-ms") deadline_ms = std::atof(next("--deadline-ms"));
    else if (arg == "--cache-dir") cache_dir = next("--cache-dir");
    else if (arg == "--block-width")
      block_width = int_flag(next("--block-width"), arg.c_str());
    else if (arg == "--degrade") degrade = true;
    else if (arg == "--max-retries")
      max_retries = int_flag(next("--max-retries"), arg.c_str());
    else if (arg == "--retry-backoff-ms")
      retry_backoff_ms = std::atof(next("--retry-backoff-ms"));
    else if (arg == "--watchdog-ms")
      watchdog_ms = std::atof(next("--watchdog-ms"));
    else if (arg == "--shards")
      shards = int_flag(next("--shards"), arg.c_str());
    else if (arg == "--shard-groups")
      shard_groups = int_flag(next("--shard-groups"), arg.c_str());
    else if (arg == "--shard-tiles")
      shard_tiles = std::atoi(next("--shard-tiles"));
    else if (arg == "--autotune") {
      const std::string v = next("--autotune");
      if (v == "off") autotune = core::AutotuneMode::Off;
      else if (v == "cached") autotune = core::AutotuneMode::Cached;
      else if (v == "force") autotune = core::AutotuneMode::Force;
      else {
        std::fprintf(stderr,
                     "memxct_serve: unknown --autotune '%s' (expected "
                     "off|cached|force)\n",
                     v.c_str());
        return 2;
      }
    } else if (arg == "--precision") {
      const char* v = next("--precision");
      if (!sparse::parse_value_storage(v, precision)) {
        std::fprintf(stderr,
                     "memxct_serve: unknown --precision '%s' (expected "
                     "fp32|bf16|fp16)\n",
                     v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "memxct_serve: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // One geometry per angle count; every geometry keys a distinct operator.
  std::vector<geometry::Geometry> geoms;
  std::vector<AlignedVector<real>> sinos;
  const auto image = phantom::shepp_logan(static_cast<idx_t>(size));
  for (int g = 0; g < geometries; ++g) {
    const auto geom = geometry::make_geometry(
        static_cast<idx_t>(size * 3 / 2 + 8 * g), static_cast<idx_t>(size));
    const auto sino = phantom::forward_project(geom, image);
    geoms.push_back(geom);
    sinos.emplace_back(sino.begin(), sino.end());
  }

  core::Config config;
  config.iterations = iterations;
  config.block_width = block_width;
  config.precision = precision;
  config.autotune = autotune;
  config.num_shards = shards;
  config.shard_group_size = shard_groups;
  config.shard_pipeline_tiles = shard_tiles;

  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = queue > 0 ? queue : requests;
  options.registry.byte_budget = budget_bytes;
  options.registry.disk_cache_dir = cache_dir;
  if (degrade) {
    options.degrade.enabled = true;
    options.degrade.rungs = serve::default_ladder();
  }
  options.retry.max_attempts = max_retries;
  options.retry.backoff_ms = retry_backoff_ms;
  options.watchdog_ms = watchdog_ms;
  serve::Server server(options);

  std::printf("serving %d requests over %d geometries (size %d) on %d "
              "workers, registry budget %s\n",
              requests, geometries, size, workers,
              budget_bytes > 0
                  ? io::TablePrinter::bytes(static_cast<double>(budget_bytes))
                        .c_str()
                  : "unlimited");

  perf::WallTimer wall;
  std::vector<std::int64_t> ids;
  int rejected = 0;
  for (int i = 0; i < requests; ++i) {
    serve::RequestOptions ropt;
    ropt.priority = static_cast<serve::Priority>(i % serve::kNumPriorities);
    ropt.deadline_seconds = deadline_ms > 0.0 ? deadline_ms / 1e3 : 0.0;
    const int g = i % geometries;
    try {
      ids.push_back(server.submit(geoms[static_cast<std::size_t>(g)], config,
                                  sinos[static_cast<std::size_t>(g)], ropt));
    } catch (const serve::RejectedError& e) {
      ++rejected;
      std::fprintf(stderr, "request %d rejected: %s\n", i, e.what());
    }
  }

  int not_ok = 0;
  int degraded_done = 0;
  for (const std::int64_t id : ids) {
    const auto r = server.wait(id);
    if (r.status == serve::RequestStatus::Degraded) {
      // Degraded is a success with a quality tag, not a failure: report the
      // rung (or salvage) and the achieved residual so the operator can see
      // what quality the ladder actually delivered.
      ++degraded_done;
      std::fprintf(stderr,
                   "request %lld degraded (%s, residual %.3g, %d attempts)\n",
                   static_cast<long long>(r.id),
                   r.salvaged ? "salvaged partial"
                              : ("rung " + std::to_string(r.rung)).c_str(),
                   r.achieved_residual, r.attempts);
    } else if (r.status != serve::RequestStatus::Ok) {
      ++not_ok;
      std::fprintf(stderr, "request %lld finished %s%s%s\n",
                   static_cast<long long>(r.id), to_string(r.status),
                   r.error.empty() ? "" : ": ", r.error.c_str());
    }
  }
  const double wall_s = wall.seconds();
  const auto m = server.snapshot();

  {
    io::TablePrinter table("Per-priority outcome");
    table.header(
        {"priority", "submitted", "ok", "degraded", "p50", "p95", "max"});
    for (int p = 0; p < serve::kNumPriorities; ++p) {
      const auto& pm = m.priority[static_cast<std::size_t>(p)];
      table.row({to_string(static_cast<serve::Priority>(p)),
                 std::to_string(pm.submitted), std::to_string(pm.ok),
                 std::to_string(pm.degraded),
                 io::TablePrinter::time_s(pm.latency.quantile(0.50)),
                 io::TablePrinter::time_s(pm.latency.quantile(0.95)),
                 io::TablePrinter::time_s(pm.latency.max_seconds())});
    }
    table.print();
  }
  {
    io::TablePrinter table("Operator registry");
    table.header({"hits", "misses", "hit rate", "evictions", "resident",
                  "peak", "disk hits"});
    table.row({std::to_string(m.registry.hits),
               std::to_string(m.registry.misses),
               io::TablePrinter::num(m.registry.hit_rate(), 3),
               std::to_string(m.registry.evictions),
               io::TablePrinter::bytes(
                   static_cast<double>(m.registry.resident_bytes)),
               io::TablePrinter::bytes(
                   static_cast<double>(m.registry.peak_resident_bytes)),
               std::to_string(m.registry.disk_tier_hits)});
    table.print();
  }
  if (m.registry.tuned_builds > 0) {
    io::TablePrinter table("Autotuner");
    table.header({"tuned builds", "tune cache hits", "measurement"});
    table.row({std::to_string(m.registry.tuned_builds),
               std::to_string(m.registry.tune_cache_hits),
               io::TablePrinter::time_s(m.registry.tune_measure_ms / 1e3)});
    table.print();
  }
  if (degrade || max_retries > 1 || watchdog_ms > 0.0) {
    io::TablePrinter table("Degradation / resilience");
    table.header({"degraded", "salvaged", "at admission", "retries",
                  "exhausted", "abandoned", "watchdog"});
    table.row({std::to_string(m.degraded), std::to_string(m.salvaged),
               std::to_string(m.degraded_admissions),
               std::to_string(m.retries), std::to_string(m.retry_exhausted),
               std::to_string(m.retry_abandoned),
               std::to_string(m.watchdog_cancelled)});
    table.print();
    for (int r = 0; r < serve::kMaxRungs; ++r) {
      const auto n = m.degraded_by_rung[static_cast<std::size_t>(r)];
      if (n > 0) std::printf("  rung %d: %lld requests\n", r + 1,
                             static_cast<long long>(n));
    }
    if (m.retries > 0)
      std::printf("  retry backoff p50 %s, p95 %s, max %s\n",
                  io::TablePrinter::time_s(m.retry_backoff.quantile(0.50))
                      .c_str(),
                  io::TablePrinter::time_s(m.retry_backoff.quantile(0.95))
                      .c_str(),
                  io::TablePrinter::time_s(m.retry_backoff.max_seconds())
                      .c_str());
  }
  if (m.shard.sharded_requests > 0) {
    io::TablePrinter table("Sharded exchange (per rank, cumulative)");
    table.header({"rank", "bytes sent", "bytes received"});
    for (std::size_t p = 0; p < m.shard.rank_bytes_sent.size(); ++p)
      table.row({std::to_string(p),
                 io::TablePrinter::bytes(
                     static_cast<double>(m.shard.rank_bytes_sent[p])),
                 io::TablePrinter::bytes(
                     static_cast<double>(m.shard.rank_bytes_received[p]))});
    table.print();
    std::printf("  comm %.4f s measured on the critical path (model: %.4f s "
                "total), compute %.4f s, overlap hid %.4f s\n",
                m.shard.comm_seconds, m.shard.comm_modeled_seconds,
                m.shard.compute_seconds, m.shard.overlap_saved_seconds);
  }
  std::printf("%s\n", m.summary().c_str());
  std::printf("wall %.3f s, %.2f requests/s, setup total %.3f s, solve "
              "total %.3f s\n",
              wall_s, wall_s > 0 ? m.completed / wall_s : 0.0,
              m.setup_seconds_sum, m.solve_seconds_sum);
  if (shards == 1 &&
      (block_width > 1 || precision != sparse::ValueStorage::Fp32)) {
    // Measured, not modeled: preprocess one representative operator through
    // the same pipeline the server uses and read its work accounting, so
    // the number reflects actual stored value widths instead of the fp32
    // buffered constant.
    const core::Reconstructor probe(geoms[0], config);
    const perf::KernelWork fwd = probe.serial_op()->forward_work();
    std::printf("%s matrix stream: %.2f B/FMA at width 1, amortized to "
                "%.2f B/FMA per slice at width %d\n",
                sparse::to_string(precision), fwd.bytes_per_fma(),
                fwd.bytes_per_fma() / block_width, block_width);
  }

  // Smoke gate: any rejection or failure is exit 1; a clean run where some
  // requests were served degraded (ladder or salvage) is exit 6 so callers
  // can distinguish reduced quality from both success and failure.
  if (rejected > 0 || m.rejected() > 0 || not_ok > 0) {
    std::fprintf(stderr,
                 "FAIL: %d rejected at submit, %lld rejected in metrics, %d "
                 "not ok\n",
                 rejected, static_cast<long long>(m.rejected()), not_ok);
    return 1;
  }
  if (degraded_done > 0) {
    std::printf("DEGRADED: %lld of %lld requests served below full quality\n",
                static_cast<long long>(m.degraded),
                static_cast<long long>(m.completed));
    return 6;
  }
  std::printf("OK: all %lld requests served\n",
              static_cast<long long>(m.completed));
  return 0;
}
