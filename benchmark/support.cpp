#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "geometry/projector.hpp"
#include "perf/machine_model.hpp"
#include "perf/timer.hpp"
#include "phantom/phantom.hpp"
#include "solve/cgls.hpp"
#include "sparse/buffered.hpp"
#include "sparse/transpose.hpp"

namespace memxct::bench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Incident photons per ray for the Poisson noise: a realistic noisy scan
/// whose CGLS-20 reconstructions stay well above the gates.
constexpr double kIncidentPhotons = 1e5;
/// Seed of the fixed specimen set (phantoms); --seed only draws noise.
constexpr std::uint64_t kSpecimenSeed = 2019;

std::string escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

/// Samples strictly above the q-quantile's interpolation position.
std::int64_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo =
      static_cast<std::int64_t>(std::floor(q * static_cast<double>(n - 1)));
  return static_cast<std::int64_t>(n) - 1 - lo;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- record

void Record::add(const std::string& name, double value,
                 const std::string& unit, std::int64_t samples) {
  metrics.push_back({name, value, unit, samples});
}

void Record::add_quantile(const std::string& name, std::vector<double> samples,
                          double q, const std::string& unit) {
  const std::size_t n = samples.size();
  if (samples_beyond(n, q) < kSamplesBeyond) {
    notes.push_back(name + " left out: " + std::to_string(n) +
                    " samples leave fewer than " +
                    std::to_string(kSamplesBeyond) + " beyond it");
    return;
  }
  add(name, quantile(std::move(samples), q), unit,
      static_cast<std::int64_t>(n));
}

void Record::item(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(problem);
}

void Record::print() const {
  std::printf("%s (%s): %lld attempted, %lld failed\n", workload.c_str(),
              traced ? "traced" : "untraced",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %-6s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0)
      std::printf("  (n=%lld)", static_cast<long long>(m.samples));
    std::printf("\n");
  }
  for (const std::string& n : notes) std::printf("  note: %s\n", n.c_str());
  for (const std::string& e : errors) std::printf("  FAIL: %s\n", e.c_str());
}

std::string Record::json() const {
  std::ostringstream os;
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"traced\": "
     << (traced ? "true" : "false") << ", \"correct\": "
     << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i)
    os << (i ? ", " : "") << '"' << escape(errors[i]) << '"';
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit
       << "\", \"samples\": " << m.samples << '}';
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------- inputs

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + i);
  return sm.next();
}

Slice make_slice(const geometry::Geometry& g, std::vector<real> phantom,
                 std::uint64_t noise_seed) {
  Slice s;
  s.phantom = std::move(phantom);
  s.sinogram = phantom::forward_project(g, s.phantom);
  Rng rng(noise_seed);
  phantom::add_poisson_noise(s.sinogram, kIncidentPhotons, rng);
  double ss = 0.0;
  for (const real v : s.sinogram) ss += static_cast<double>(v) * v;
  s.sinogram_norm = std::sqrt(ss);
  return s;
}

std::vector<Slice> make_slices(const geometry::Geometry& g, int count,
                               std::uint64_t seed) {
  std::vector<Slice> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto index = static_cast<std::uint64_t>(i);
    // The specimens are fixed (the i-th shale phantom is the same in every
    // run) and the seed draws the photon noise, so psnr_db compares like
    // with like across seeds while the measurements still differ.
    out.push_back(make_slice(g,
                             phantom::shale_phantom(
                                 g.image_size, derive_seed(kSpecimenSeed, index)),
                             derive_seed(seed, index)));
  }
  return out;
}

// ---------------------------------------------------------------- quality

double psnr_db(std::span<const real> test, std::span<const real> ref) {
  double peak = 0.0, mse = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    peak = std::max(peak, std::abs(static_cast<double>(ref[i])));
    const double d = static_cast<double>(test[i]) - ref[i];
    mse += d * d;
  }
  mse /= static_cast<double>(ref.size());
  if (mse == 0.0) return 200.0;
  return 10.0 * std::log10(peak * peak / mse);
}

Quality check_quality(const Gate& gate, std::span<const real> image,
                      const Slice& slice, const solve::SolveResult& solved) {
  Quality q;
  if (solved.diverged) q.problem = "solver diverged";
  else if (solved.cancelled) q.problem = "solve cancelled";
  else if (solved.history.empty()) q.problem = "solve recorded no iterations";
  else if (image.size() != slice.phantom.size())
    q.problem = "image has the wrong size";
  if (!q.problem.empty()) return q;
  q.psnr_db = psnr_db(image, slice.phantom);
  q.residual = solved.history.back().residual_norm / slice.sinogram_norm;
  char buf[160];
  if (!(q.psnr_db >= gate.psnr_floor_db)) {
    std::snprintf(buf, sizeof buf, "PSNR %.2f dB below the %.2f dB floor",
                  q.psnr_db, gate.psnr_floor_db);
    q.problem = buf;
  } else if (!(q.residual <= gate.residual_ceiling)) {
    std::snprintf(buf, sizeof buf,
                  "relative residual %.4g above the %.4g ceiling", q.residual,
                  gate.residual_ceiling);
    q.problem = buf;
  }
  return q;
}

SliceChecker::SliceChecker(const std::vector<Slice>& inputs, Gate gate,
                           Record& record)
    : inputs_(inputs), gate_(gate), record_(record), first_(inputs.size()),
      quality_(inputs.size()) {}

void SliceChecker::check(std::size_t input, std::span<const real> image,
                         const solve::SolveResult& solved) {
  std::vector<real>& first = first_[input];
  if (first.empty()) {
    quality_[input] = check_quality(gate_, image, inputs_[input], solved);
    first.assign(image.begin(), image.end());
    record_.item(quality_[input].problem);
    return;
  }
  const bool same = image.size() == first.size() &&
                    std::memcmp(image.data(), first.data(),
                                image.size() * sizeof(real)) == 0;
  record_.item(same ? "" : "image differs from the first result for input " +
                               std::to_string(input));
}

double SliceChecker::mean_psnr() const {
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < first_.size(); ++i)
    if (!first_[i].empty()) {
      sum += quality_[i].psnr_db;
      ++n;
    }
  return n > 0 ? sum / n : 0.0;
}

void SliceChecker::add_margins(Record& rec, const std::string& prefix) const {
  double psnr = 1e300, residual = 0.0;
  for (std::size_t i = 0; i < first_.size(); ++i)
    if (!first_[i].empty()) {
      psnr = std::min(psnr, quality_[i].psnr_db);
      residual = std::max(residual, quality_[i].residual);
    }
  rec.add(prefix + "psnr_min_db", psnr, "dB");
  rec.add(prefix + "residual_max", residual, "ratio");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- host

namespace {

/// Last-level cache of cpu0 in MiB from sysfs ("107520K"); 0 if unknown.
double read_llc_mib() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  double value = 0.0;
  char suffix = 'K';
  if (!(in >> value)) return 0.0;
  in >> suffix;
  switch (suffix) {
    case 'M':
      return value;
    case 'G':
      return value * 1024.0;
    default:
      return value / 1024.0;
  }
}

}  // namespace

HostCeiling measure_host(bool smoke) {
  HostCeiling h;
  h.llc_mib = read_llc_mib();
  // STREAM's rule: each array at least 4× the cache, so the triad streams
  // from DRAM. An unknown cache size falls back to 4× a generous 64 MiB.
  const double llc = h.llc_mib > 0.0 ? h.llc_mib : 64.0;
  h.array_mib = smoke ? 16.0 : 4.0 * llc;
  const auto n = static_cast<std::size_t>(h.array_mib * kMiB / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double scalar = 3.0;
  double best = 1e300;
  for (int rep = 0; rep < (smoke ? 3 : 10); ++rep) {
    perf::WallTimer t;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + scalar * c[i];
    best = std::min(best, t.seconds());
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong value");
  h.triad_gbs = 3.0 * static_cast<double>(n) * sizeof(double) / best * 1e-9;
  return h;
}

// ---------------------------------------------------------------- tracing

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().begin_ns = now_ns();
  return id;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  open_.pop_back();
  if (s.parent >= 0)
    spans_[static_cast<std::size_t>(s.parent)].child_ns +=
        s.end_ns - s.begin_ns;
}

void Tracer::add(const char* name, Clock::time_point begin,
                 Clock::time_point end, int tid) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  Span s;
  s.name = name;
  s.begin_ns = ns(begin);
  s.end_ns = ns(end);
  s.tid = tid;
  spans_.push_back(s);
}

std::vector<double> Tracer::seconds(const char* name, bool self) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(self ? s.self_seconds() : s.seconds());
  return out;
}

double Tracer::total(const char* name) const {
  double sum = 0.0;
  for (const double s : seconds(name)) sum += s;
  return sum;
}

std::vector<double> Tracer::child_counts(const char* parent,
                                         const char* child) const {
  std::vector<double> counts(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && std::strcmp(s.name, child) == 0)
      counts[static_cast<std::size_t>(s.parent)] += 1.0;
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (std::strcmp(spans_[i].name, parent) == 0) out.push_back(counts[i]);
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "memxct_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const std::string cat =
        dot != nullptr ? std::string(s.name, dot) : std::string(s.name);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                 i ? ",\n" : "", s.name, cat.c_str(), s.tid,
                 s.begin_ns * 1e-3, (s.end_ns - s.begin_ns) * 1e-3);
    if (s.count >= 0)
      std::fprintf(f, ", \"args\": {\"n\": %lld}",
                   static_cast<long long>(s.count));
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ------------------------------------------------- traced re-composition

Composed compose(const geometry::Geometry& g, const core::Config& config,
                 Tracer& tracer) {
  Composed c;
  Scope pre(tracer, "preprocess");
  {
    Scope s(tracer, "hilbert.order");
    c.sino = std::make_unique<hilbert::Ordering>(
        g.sinogram_extent(), config.ordering, config.tile_size);
    c.tomo = std::make_unique<hilbert::Ordering>(
        g.tomogram_extent(), config.ordering, config.tile_size);
  }
  sparse::CsrMatrix a;
  {
    Scope s(tracer, "geometry.trace");
    a = geometry::build_projection_matrix(g, *c.sino, *c.tomo);
  }
  c.nnz = a.nnz();
  // Probes: the two derived-format builders the operator build runs,
  // called directly on the traced matrix; their results are discarded.
  {
    sparse::CsrMatrix at;
    Scope s(tracer, "sparse.transpose");
    at = sparse::transpose(a);
  }
  {
    sparse::BufferedMatrix bm;
    Scope s(tracer, "sparse.buffer_build");
    bm = sparse::build_buffered(a, config.buffer);
  }
  if (config.num_shards > 1) {
    // The same options core::Reconstructor derives for its sharded path.
    shard::ShardedOperator::Options opt;
    opt.num_shards = config.num_shards;
    opt.kernel = config.kernel == core::KernelKind::Buffered
                     ? shard::LocalKernel::Buffered
                     : shard::LocalKernel::BaselineCsr;
    opt.buffer = config.buffer;
    opt.group_size = config.shard_group_size;
    opt.pipeline_tiles = config.shard_pipeline_tiles;
    opt.machine = perf::machine(config.machine);
    Scope s(tracer, "shard.build");
    c.sharded = std::make_unique<shard::ShardedOperator>(a, opt);
  }
  {
    Scope s(tracer, "core.build");
    c.op = std::make_unique<core::MemXCTOperator>(
        std::move(a), config.kernel, config.buffer, config.ell_block_rows,
        config.schedule, config.precision);
  }
  return c;
}

void reference_images(const geometry::Geometry& g, const core::Config& config,
                      const std::vector<Slice>& inputs,
                      SliceChecker& checker) {
  const core::Reconstructor recon(g, config);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::ReconstructionResult r = recon.reconstruct(inputs[i].sinogram);
    checker.check(i, r.image, r.solve);
  }
}

std::vector<real> traced_slice(const solve::LinearOperator& op,
                               const geometry::Geometry& g,
                               const core::Config& config, const Composed& c,
                               std::span<const real> sinogram,
                               core::SliceWorkspace& ws, Tracer& tracer,
                               solve::SolveResult* solved) {
  Scope slice(tracer, "slice");
  {
    Scope s(tracer, "core.ingest");
    (void)core::ingest_and_order(g, config, *c.sino, sinogram, ws);
  }
  solve::CglsOptions opt;
  opt.max_iterations = config.iterations;
  opt.early_stop = config.early_stop;
  opt.early_stop_tol = config.early_stop_tol;
  opt.tikhonov_lambda = config.tikhonov_lambda;
  // As in core::reconstruct_slice: the sharded operator's statistics cover
  // exactly this solve.
  if (c.sharded) c.sharded->reset_stats();
  {
    Scope s(tracer, "solve");
    *solved = solve::cgls(op, ws.ordered, opt);
    tracer.set_count(s.id(), solved->iterations);
  }
  std::vector<real> image(static_cast<std::size_t>(g.tomogram_extent().size()));
  {
    Scope s(tracer, "core.depermute");
    core::depermute_image(*c.tomo, solved->x, image);
  }
  return image;
}

std::vector<double> alternate_slices(
    double seconds, const geometry::Geometry& g, const core::Config& config,
    const Composed& c, const std::vector<Slice>& inputs, SliceChecker& checker,
    Tracer& tracer, const std::function<void()>& after_traced) {
  const TimedOperator timed(c.path(), tracer);
  core::SliceWorkspace ws, traced_ws;
  std::vector<double> untraced;
  perf::WallTimer loop;
  while (keep_going(seconds, loop.seconds(), untraced.size())) {
    const std::size_t i = untraced.size() % inputs.size();
    perf::WallTimer t;
    const core::ReconstructionResult r =
        core::reconstruct_slice(c.path(), g, config, *c.sino, *c.tomo,
                                inputs[i].sinogram, &ws);
    untraced.push_back(t.seconds());
    checker.check(i, r.image, r.solve);

    solve::SolveResult solved;
    const std::vector<real> image = traced_slice(
        timed, g, config, c, inputs[i].sinogram, traced_ws, tracer, &solved);
    if (after_traced) after_traced();
    checker.check(i, image, solved);
  }
  return untraced;
}

void add_layer_metrics(Record& rec, const Tracer& tracer,
                       const HostCeiling& host, const Composed& c, int width,
                       const char* item,
                       const std::vector<double>& untraced_item_s) {
  // Matrix-stream bytes per apply call: k slices share one pass over the
  // matrix, so a block apply moves regular_bytes_at_width(k) per slice.
  const perf::KernelWork fwd_work = c.op->forward_work();
  const double fwd_bytes = fwd_work.regular_bytes_at_width(width) * width;
  const double bwd_bytes =
      c.op->transpose_work().regular_bytes_at_width(width) * width;
  const auto resident = static_cast<double>(c.sharded ? c.sharded->bytes()
                                                      : c.op->bytes());

  rec.add("host.triad_gbs", host.triad_gbs, "GB/s");
  rec.add("host.llc_mib", host.llc_mib, "MiB");
  rec.add("host.triad_array_mib", host.array_mib, "MiB");

  rec.add("hilbert.order_s", tracer.total("hilbert.order"), "s");
  rec.add("geometry.trace_s", tracer.total("geometry.trace"), "s");
  rec.add("geometry.nnz", static_cast<double>(c.nnz), "count");
  rec.add("sparse.transpose_s", tracer.total("sparse.transpose"), "s");
  rec.add("sparse.buffer_build_s", tracer.total("sparse.buffer_build"), "s");
  rec.add("core.build_s", tracer.total("core.build"), "s");
  rec.add("core.resident_mib", resident / kMiB, "MiB");

  const auto kernel = [&](const char* span, const char* prefix, double bytes) {
    const std::vector<double> t = tracer.seconds(span);
    const auto n = static_cast<std::int64_t>(t.size());
    const double p50 = median(t);
    const double gbs = p50 > 0.0 ? bytes / p50 * 1e-9 : 0.0;
    const std::string p = prefix;
    rec.add(p + "_s_p50", p50, "s", n);
    rec.add(p + "_gbs", gbs, "GB/s", n);
    rec.add(p + "_bw_frac", gbs / host.triad_gbs, "ratio", n);
  };
  kernel("apply.fwd", "apply.fwd", fwd_bytes);
  kernel("apply.bwd", "apply.bwd", bwd_bytes);
  rec.add("apply.bytes_per_fma",
          fwd_bytes / (static_cast<double>(fwd_work.nnz) * width), "B");
  const double item_total = tracer.total(item);
  rec.add("apply.kernel_frac",
          (tracer.total("apply.fwd") + tracer.total("apply.bwd")) / item_total,
          "ratio");

  std::vector<double> iter_s;
  for (const Tracer::Span& s : tracer.spans())
    if (std::strcmp(s.name, "solve") == 0 && s.count > 0)
      iter_s.push_back(s.seconds() / static_cast<double>(s.count));
  const auto solves = static_cast<std::int64_t>(iter_s.size());
  rec.add("solve.iter_s_p50", median(iter_s), "s", solves);
  std::vector<double> applies = tracer.child_counts("solve", "apply.fwd");
  const std::vector<double> bwd = tracer.child_counts("solve", "apply.bwd");
  for (std::size_t i = 0; i < applies.size(); ++i) applies[i] += bwd[i];
  rec.add("solve.applies", median(applies), "count", solves);
  rec.add("solve.self_s", median(tracer.seconds("solve", true)), "s", solves);

  const std::vector<double> ingest = tracer.seconds("core.ingest");
  rec.add("core.ingest_s", median(ingest), "s",
          static_cast<std::int64_t>(ingest.size()));
  const std::vector<double> deperm = tracer.seconds("core.depermute");
  rec.add("core.depermute_s", median(deperm), "s",
          static_cast<std::int64_t>(deperm.size()));

  // Each traced item ran right after its untraced twin on the same input;
  // the median of the pairs' ratios cancels drift between pairs.
  const std::vector<double> traced = tracer.seconds(item);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced.size() && i < untraced_item_s.size(); ++i)
    ratios.push_back(traced[i] / untraced_item_s[i]);
  rec.add("trace.overhead_frac", median(ratios) - 1.0, "ratio",
          static_cast<std::int64_t>(ratios.size()));
}

}  // namespace memxct::bench
