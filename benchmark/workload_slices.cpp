// recon-large and shard-p4: one natural-layout sinogram at a time through
// core::Reconstructor::reconstruct.
//
// recon-large is offline reconstruction on the default config (Buffered
// kernel, StaticPlan, fp32, Hilbert, CGLS-20) at 576 angles × 320 channels.
// Each matrix direction streams about 460 MiB per apply, 4.4× the 105 MiB
// LLC of the reference host, so every apply runs from DRAM: the paper's
// memory-bound regime, with room for a change to trim a quarter of the
// bytes without the operator turning cache-resident. The cold build (no
// cache_dir) puts trace and buffered build into setup_s. Serve, batch and
// shard are bypassed.
//
// shard-p4 is the same loop at 256 × 192 on a 4-shard operator (flat
// exchange, automatic tile count): it runs the shard build and every
// halo-exchange round.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "perf/timer.hpp"

namespace memxct::bench {

namespace {

struct SliceSpec {
  idx_t angles = 0;
  idx_t channels = 0;
  int inputs = 0;  ///< Distinct seeded slices, cycled by the loops.
  int shards = 1;
  Gate gate;
};

SliceSpec spec_for(const Options& opt) {
  // Gates about 1 dB / 10% inside the worst slice at each size.
  if (opt.workload == "shard-p4") {
    if (opt.smoke) return {48, 32, 4, 4, {30.5, 0.0038}};
    return {256, 192, 8, 4, {32.5, 0.0039}};
  }
  if (opt.smoke) return {48, 32, 4, 1, {30.5, 0.0038}};
  return {576, 320, 6, 1, {34.4, 0.0045}};
}

core::Config config_for(const SliceSpec& spec) {
  core::Config config;
  config.iterations = 20;
  config.num_shards = spec.shards;
  return config;
}

void untraced(const Options& opt, const SliceSpec& spec,
              const geometry::Geometry& g, const std::vector<Slice>& inputs,
              Record& rec) {
  const core::Config config = config_for(spec);
  const auto make = [&] {
    return std::make_unique<core::Reconstructor>(g, config);
  };
  perf::WallTimer first_setup;
  std::unique_ptr<core::Reconstructor> recon = make();
  std::vector<double> setup = {first_setup.seconds()};

  SliceChecker checker(inputs, spec.gate, rec);
  const auto run = [&](std::size_t i) {
    try {
      const core::ReconstructionResult r = recon->reconstruct(inputs[i].sinogram);
      checker.check(i, r.image, r.solve);
    } catch (const std::exception& e) {
      checker.reject(e.what());
    }
  };
  run(0);  // warm-up: first touch of workspaces and plans

  std::vector<double> latency;
  perf::WallTimer loop;
  while (keep_going(opt.seconds, loop.seconds(), latency.size())) {
    perf::WallTimer t;
    run(latency.size() % inputs.size());
    latency.push_back(t.seconds());
  }
  const double wall = loop.seconds();
  const auto n = static_cast<std::int64_t>(latency.size());
  const double rss = peak_rss_mib();
  recon.reset();  // one operator resident at a time
  repeat_setup(setup, make);

  rec.add("setup_s", median(setup), "s", kSetupRepeats);
  rec.add("latency_p50_s", median(latency), "s", n);
  rec.add("throughput_per_s", static_cast<double>(n) / wall, "1/s", n);
  rec.add("psnr_db", checker.mean_psnr(), "dB",
          static_cast<std::int64_t>(inputs.size()));
  rec.add("peak_rss_mib", rss, "MiB");
  checker.add_margins(rec, "quality.");
}

void traced(const Options& opt, const SliceSpec& spec,
            const geometry::Geometry& g, const std::vector<Slice>& inputs,
            Record& rec) {
  const HostCeiling host = measure_host(opt.smoke);
  const core::Config config = config_for(spec);
  SliceChecker checker(inputs, spec.gate, rec);
  reference_images(g, config, inputs, checker);

  Tracer tracer;
  const Composed c = compose(g, config, tracer);

  // Per traced slice: the sharded operator's exchange traffic and the
  // exchange time its pipeline could not hide.
  std::vector<double> comm_s;
  double bytes_sent = 0.0;
  const auto shard_stats = [&] {
    for (int p = 0; p < c.sharded->num_shards(); ++p)
      bytes_sent +=
          static_cast<double>(c.sharded->rank_comm_stats(p).bytes_sent);
    const shard::ShardApplyStats& st = c.sharded->stats();
    comm_s.push_back(st.comm_seconds - st.overlap_saved_seconds);
  };

  const std::vector<double> untraced_s = alternate_slices(
      opt.seconds, g, config, c, inputs, checker, tracer,
      c.sharded ? std::function<void()>(shard_stats) : nullptr);

  add_layer_metrics(rec, tracer, host, c, 1, "slice", untraced_s);
  rec.add("psnr_db", checker.mean_psnr(), "dB");

  if (c.sharded) {
    // Exact counts: bytes through the simulated fabric against the plans'
    // halo elements (4 B each) for every forward and backward apply made.
    const auto fwd_applies =
        static_cast<double>(tracer.seconds("apply.fwd").size());
    const auto bwd_applies =
        static_cast<double>(tracer.seconds("apply.bwd").size());
    const double planned =
        4.0 * (fwd_applies * static_cast<double>(
                                 c.sharded->forward_plan().halo_elements()) +
               bwd_applies * static_cast<double>(
                                 c.sharded->transpose_plan().halo_elements()));
    std::int64_t max_rank = 0;
    for (int p = 0; p < c.sharded->num_shards(); ++p)
      max_rank = std::max(max_rank, c.sharded->rank_bytes(p));
    rec.add("shard.build_s", tracer.total("shard.build"), "s");
    rec.add("shard.build_vs_serial",
            tracer.total("shard.build") / tracer.total("core.build"), "ratio");
    rec.add("shard.comm_s", median(comm_s), "s",
            static_cast<std::int64_t>(comm_s.size()));
    rec.add("shard.exchange_bytes_per_apply",
            bytes_sent / (fwd_applies + bwd_applies), "B");
    rec.add("shard.exchange_vs_plan", bytes_sent / planned, "ratio");
    rec.add("shard.max_rank_mib",
            static_cast<double>(max_rank) / (1024.0 * 1024.0), "MiB");
  }
  tracer.write_chrome(opt.trace_path);
}

}  // namespace

void run_slices(const Options& opt, Record& rec) {
  const SliceSpec spec = spec_for(opt);
  const auto g = geometry::make_geometry(spec.angles, spec.channels);
  const std::vector<Slice> inputs = make_slices(g, spec.inputs, opt.seed);
  if (opt.traced())
    traced(opt, spec, g, inputs, rec);
  else
    untraced(opt, spec, g, inputs, rec);
}

}  // namespace memxct::bench
