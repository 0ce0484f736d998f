#include "tune/tune.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/error.hpp"
#include "core/operator.hpp"
#include "core/opkey.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "resil/checked_io.hpp"

namespace memxct::tune {

namespace {

/// Bumped whenever the Candidate serialization below changes layout, or the
/// kernels change enough that recorded rankings no longer hold (version 2:
/// the buffered kernels prefetch their matrix stream; version 3: block
/// widths > 1 are timed on the block kernels, not the SpMV; version 4:
/// reduced-precision buffered storage is fixed width, so it ranks
/// differently; version 5: reduced precision is Buffered only, so a record
/// naming Baseline at bf16/fp16 would fail validation); an unknown version
/// is treated exactly like corruption (re-measure).
constexpr std::uint32_t kTuneRecordVersion = 5;

/// Same FNV-1a as core/opkey.cpp: stable across platforms and runs.
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Short machine-readable slugs for the JSON schema (the core to_string
/// names are display strings with spaces).
const char* kernel_slug(core::KernelKind kind) noexcept {
  switch (kind) {
    case core::KernelKind::Baseline: return "baseline";
    case core::KernelKind::EllBlock: return "ell";
    case core::KernelKind::Buffered: return "buffered";
    case core::KernelKind::Library: return "library";
  }
  return "?";
}

const char* schedule_slug(core::ScheduleKind kind) noexcept {
  return kind == core::ScheduleKind::StaticPlan ? "static" : "dynamic";
}

/// The Fig 10 seed grid. Full mode brackets the default (128, 4096 elems =
/// 16 KB fp32); quick mode keeps the corners that historically decide the
/// heat map's ridge, for tests and CI smoke runs.
struct Grid {
  std::vector<idx_t> partsizes;
  std::vector<idx_t> buffsizes;
};

Grid seed_grid(bool quick) {
  if (quick) return {{128, 256}, {1024, 4096}};
  return {{64, 128, 256, 512}, {1024, 2048, 4096}};
}

bool same_point(const Candidate& a, const Candidate& b) noexcept {
  if (a.kernel != b.kernel || a.schedule != b.schedule) return false;
  // Buffer only distinguishes Buffered candidates; other kernels ignore it.
  if (a.kernel != core::KernelKind::Buffered) return true;
  return a.buffer.partsize == b.buffer.partsize &&
         a.buffer.buffsize == b.buffer.buffsize;
}

void push_unique(std::vector<Candidate>& out, const Candidate& c,
                 const core::Config& base) {
  for (const Candidate& seen : out)
    if (same_point(seen, c)) return;
  // Prune with the pipeline's own single source of truth so an illegal
  // combination (e.g. EllBlock at bf16) never even gets timed.
  core::Config probe = base;
  probe.kernel = c.kernel;
  probe.schedule = c.schedule;
  probe.buffer = c.buffer;
  probe.autotune = core::AutotuneMode::Off;
  try {
    core::validate_config(probe);
  } catch (const InvalidArgument&) {
    return;
  }
  out.push_back(c);
}

}  // namespace

std::string tune_fingerprint(const geometry::Geometry& geometry,
                             const core::Config& config) {
  // Held-fixed fields only: the tuned-away knobs (kernel, schedule, buffer)
  // must NOT appear, so every way of asking for this operator shares one
  // cached decision. %.17g round-trips the span exactly (as in opkey).
  char buf[256];
  std::snprintf(buf, sizeof(buf), "a%d-c%d-i%d-s%.17g-o%s-t%d-w%d-v%s-e%d",
                static_cast<int>(geometry.num_angles),
                static_cast<int>(geometry.num_channels),
                static_cast<int>(geometry.image_size), geometry.angle_span,
                hilbert::to_string(config.ordering),
                static_cast<int>(config.tile_size), config.block_width,
                sparse::to_string(config.precision),
                static_cast<int>(config.ell_block_rows));
  return buf;
}

std::string tune_file_path(const std::string& dir,
                           const std::string& fingerprint) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(fnv1a(fingerprint)));
  return dir + "/memxct-tune-" + hash + ".tune";
}

void save_tuned_choice(const std::string& path, const TunedChoice& choice) {
  resil::BlobWriter w;
  w.put_scalar<std::uint32_t>(kTuneRecordVersion);
  w.put_array<char>({choice.fingerprint.data(), choice.fingerprint.size()});
  w.put_scalar<std::uint32_t>(
      static_cast<std::uint32_t>(choice.candidates.size()));
  for (const Candidate& c : choice.candidates) {
    w.put_scalar<std::int32_t>(static_cast<std::int32_t>(c.kernel));
    w.put_scalar<std::int32_t>(static_cast<std::int32_t>(c.schedule));
    w.put_scalar<std::int32_t>(c.buffer.partsize);
    w.put_scalar<std::int32_t>(c.buffer.buffsize);
    w.put_scalar<std::int32_t>(static_cast<std::int32_t>(c.precision));
    w.put_scalar<double>(c.apply_seconds);
    w.put_scalar<double>(c.transpose_seconds);
    w.put_scalar<double>(c.gbs);
    w.put_scalar<double>(c.gflops);
    w.put_scalar<std::uint8_t>(c.chosen ? 1 : 0);
  }
  w.put_scalar<std::int32_t>(choice.chosen_index);
  w.put_scalar<double>(choice.measure_seconds);
  resil::write_checked(path, resil::BlobKind::TunedChoice, w.payload());
}

TunedChoice load_tuned_choice(const std::string& path) {
  // A .tune record is tiny; cap the allocation far below the generic limit.
  const auto payload =
      resil::read_checked(path, resil::BlobKind::TunedChoice, 1u << 20);
  resil::BlobReader r(payload, path);
  const auto version = r.get_scalar<std::uint32_t>();
  if (version != kTuneRecordVersion)
    throw IoError(path + ": tune record version " + std::to_string(version) +
                  " (expected " + std::to_string(kTuneRecordVersion) + ")");
  TunedChoice choice;
  std::vector<char> text;
  r.get_array(text);
  choice.fingerprint.assign(text.begin(), text.end());
  const auto count = r.get_scalar<std::uint32_t>();
  if (count > 4096) throw IoError(path + ": implausible candidate count");
  choice.candidates.resize(count);
  for (Candidate& c : choice.candidates) {
    c.kernel = static_cast<core::KernelKind>(r.get_scalar<std::int32_t>());
    c.schedule =
        static_cast<core::ScheduleKind>(r.get_scalar<std::int32_t>());
    c.buffer.partsize = r.get_scalar<std::int32_t>();
    c.buffer.buffsize = r.get_scalar<std::int32_t>();
    c.precision =
        static_cast<sparse::ValueStorage>(r.get_scalar<std::int32_t>());
    c.apply_seconds = r.get_scalar<double>();
    c.transpose_seconds = r.get_scalar<double>();
    c.gbs = r.get_scalar<double>();
    c.gflops = r.get_scalar<double>();
    c.chosen = r.get_scalar<std::uint8_t>() != 0;
  }
  choice.chosen_index = r.get_scalar<std::int32_t>();
  choice.measure_seconds = r.get_scalar<double>();
  r.expect_end();
  if (choice.chosen_index < 0 ||
      choice.chosen_index >= static_cast<int>(choice.candidates.size()))
    throw IoError(path + ": chosen index out of range");
  return choice;
}

std::vector<Candidate> enumerate_candidates(const core::Config& base,
                                            const TuneOptions& options) {
  std::vector<Candidate> out;
  // The caller's own point goes first: on an exact throughput tie the
  // tuner keeps what was asked for (and the default config, when the caller
  // didn't override anything).
  Candidate asked;
  asked.kernel = base.kernel;
  asked.schedule = base.schedule;
  asked.buffer = base.buffer;
  asked.precision = base.precision;
  push_unique(out, asked, base);

  const Grid grid = seed_grid(options.quick);
  Candidate c;
  c.precision = base.precision;

  // Buffered × StaticPlan over the Fig 10 seed grid — the paper's tuned
  // kernel, and the region where partsize/buffsize actually move the dial.
  c.kernel = core::KernelKind::Buffered;
  c.schedule = core::ScheduleKind::StaticPlan;
  for (const idx_t partsize : grid.partsizes)
    for (const idx_t buffsize : grid.buffsizes) {
      c.buffer = {partsize, buffsize};
      push_unique(out, c, base);
    }

  // Buffered × Dynamic at the default buffer: one rung to detect workloads
  // where the static plan's balance assumption loses to work stealing.
  c.schedule = core::ScheduleKind::Dynamic;
  c.buffer = sparse::BufferConfig{};
  push_unique(out, c, base);

  // Baseline and EllBlock rungs (both schedules): buffer is ignored, so
  // carry the base's values to keep the resolved config well-defined.
  for (const auto kind :
       {core::KernelKind::Baseline, core::KernelKind::EllBlock}) {
    c.kernel = kind;
    c.buffer = base.buffer;
    for (const auto schedule :
         {core::ScheduleKind::StaticPlan, core::ScheduleKind::Dynamic}) {
      c.schedule = schedule;
      push_unique(out, c, base);
    }
  }
  return out;
}

TunedChoice measure_candidates(const sparse::CsrMatrix& a,
                               const core::Config& base,
                               const TuneOptions& options) {
  TunedChoice choice;
  choice.candidates = enumerate_candidates(base, options);
  const int reps = std::max(1, options.reps);
  // Time the apply the solver will run: the block kernels at the held-fixed
  // width when it is > 1 (their staging is that many times wider, so
  // buffsize trade-offs differ from the SpMV's), the SpMV otherwise.
  const idx_t k = std::max(1, base.block_width);
  const auto width = static_cast<std::size_t>(k);

  std::vector<real> x(static_cast<std::size_t>(a.num_cols) * width, real(1));
  std::vector<real> y(static_cast<std::size_t>(a.num_rows) * width);
  std::vector<real> xt(static_cast<std::size_t>(a.num_cols) * width);

  for (Candidate& c : choice.candidates) {
    // Each candidate builds from a COPY of the staging CSR: the trace is
    // paid once, and `a` stays pristine for the real build afterwards.
    const core::MemXCTOperator op(sparse::CsrMatrix(a), c.kernel, c.buffer,
                                  base.ell_block_rows, c.schedule,
                                  c.precision);
    const auto forward = [&] {
      if (k > 1) op.apply_block(x, y, k);
      else op.apply(x, y);
    };
    const auto transpose = [&] {
      if (k > 1) op.apply_transpose_block(y, xt, k);
      else op.apply_transpose(y, xt);
    };
    forward();  // warm-up (page-in, plan and block workspaces)
    transpose();
    double apply_best = 1e300, transpose_best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      perf::WallTimer ta;
      forward();
      apply_best = std::min(apply_best, ta.seconds());
      perf::WallTimer tt;
      transpose();
      transpose_best = std::min(transpose_best, tt.seconds());
    }
    c.apply_seconds = apply_best;
    c.transpose_seconds = transpose_best;
    const double pass = apply_best + transpose_best;
    const auto fwd = op.forward_work();
    const auto bwd = op.transpose_work();
    if (pass > 0.0) {
      // Bytes of one k-wide pass: the matrix stream once, the staged x
      // gathers per slice.
      c.gbs = (fwd.regular_bytes_at_width(k) + bwd.regular_bytes_at_width(k)) *
              static_cast<double>(k) / pass * 1e-9;
      c.gflops = static_cast<double>(fwd.flops() + bwd.flops()) *
                 static_cast<double>(k) / pass * 1e-9;
    }
  }

  // Argmax measured bandwidth; strict > keeps the earliest (the caller's
  // own point) on ties — deterministic for a fixed candidate table.
  choice.chosen_index = 0;
  for (int i = 1; i < static_cast<int>(choice.candidates.size()); ++i)
    if (choice.candidates[static_cast<std::size_t>(i)].gbs >
        choice.candidates[static_cast<std::size_t>(choice.chosen_index)].gbs)
      choice.chosen_index = i;
  if (!choice.candidates.empty())
    choice.candidates[static_cast<std::size_t>(choice.chosen_index)].chosen =
        true;
  return choice;
}

TuneReport autotune_operator(const geometry::Geometry& geometry,
                             core::Config& config, const sparse::CsrMatrix& a,
                             const TuneOptions& options) {
  TuneReport report;
  if (config.autotune == core::AutotuneMode::Off) return report;

  report.fingerprint = tune_fingerprint(geometry, config);
  if (!config.cache_dir.empty())
    report.tune_path = tune_file_path(config.cache_dir, report.fingerprint);

  TunedChoice choice;
  bool have = false;
  if (config.autotune == core::AutotuneMode::Cached &&
      !report.tune_path.empty() && resil::file_exists(report.tune_path)) {
    try {
      choice = load_tuned_choice(report.tune_path);
      if (choice.fingerprint != report.fingerprint)
        throw IoError(report.tune_path + ": fingerprint mismatch");
      have = true;
      report.cache_hit = true;
    } catch (const IoError&) {
      // Breaker-style: a damaged or mismatched record is never trusted —
      // fall through to a fresh measurement that overwrites it.
      report.cache_corrupt = true;
    }
  }

  if (!have) {
    perf::WallTimer timer;
    choice = measure_candidates(a, config, options);
    choice.fingerprint = report.fingerprint;
    choice.measure_seconds = timer.seconds();
    report.measure_seconds = choice.measure_seconds;
    if (!report.tune_path.empty()) {
      try {
        save_tuned_choice(report.tune_path, choice);
      } catch (const IoError&) {
        // A cache-write failure costs the next build a re-measure; it must
        // not fail THIS build.
      }
    }
  }

  const Candidate& winner =
      choice.candidates.at(static_cast<std::size_t>(choice.chosen_index));
  // Resolve in place: from here on the pipeline cannot tell a tuned config
  // from one the user typed — same build, same key, same bits.
  config.kernel = winner.kernel;
  config.schedule = winner.schedule;
  config.buffer = winner.buffer;
  config.autotune = core::AutotuneMode::Off;

  report.tuned = true;
  report.chosen = winner;
  report.candidates = std::move(choice.candidates);
  return report;
}

std::string candidates_json(const std::vector<Candidate>& candidates) {
  std::string out = "[\n";
  char line[512];
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    std::snprintf(
        line, sizeof(line),
        "{\"kernel\": \"%s\", \"schedule\": \"%s\", \"partsize\": %d, "
        "\"buffsize\": %d, \"precision\": \"%s\", \"apply_seconds\": %.6g, "
        "\"transpose_seconds\": %.6g, \"gbs\": %.6g, \"gflops\": %.6g, "
        "\"chosen\": %s}%s\n",
        kernel_slug(c.kernel), schedule_slug(c.schedule),
        static_cast<int>(c.buffer.partsize),
        static_cast<int>(c.buffer.buffsize), sparse::to_string(c.precision),
        c.apply_seconds, c.transpose_seconds, c.gbs, c.gflops,
        c.chosen ? "true" : "false", i + 1 < candidates.size() ? "," : "");
    out += line;
  }
  out += "]\n";
  return out;
}

}  // namespace memxct::tune
