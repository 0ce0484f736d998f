// Shared pieces of memxct_bench: options, the metric record, exact
// quantiles under the sample-count rule, seeded inputs, quality gates, the
// host ceiling, and the span tracer that times layer calls from outside.
//
// The benchmark drives the library only through its public entry points.
// End-to-end numbers come from untraced runs; a traced run re-composes the
// same pipeline from the layers' public functions and records one span per
// call, which gives the per-layer numbers (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "core/reconstructor.hpp"
#include "geometry/geometry.hpp"
#include "solve/operator.hpp"

namespace memxct::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< Measured time per run (loops may run longer
                           ///< to reach the sample-count rule).
  std::string trace_path;  ///< Non-empty: traced run, Chrome trace goes here.
  bool smoke = false;      ///< Tiny sizes for the ctest smoke run.

  [[nodiscard]] bool traced() const { return !trace_path.empty(); }
};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr int kSamplesBeyond = 10;
/// The tail percentile serve-mix reports; with kSamplesBeyond it needs 100
/// samples, which its fixed request counts provide.
inline constexpr double kTailQuantile = 0.9;
/// Every measured loop runs at least this many items (slices, stacks or
/// untraced/traced pairs) behind its median, however long they take.
inline constexpr int kMinItems = 3;
/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Times kSetupRepeats − 1 further calls of `make` (each result destroyed
/// before the next call) and appends the times to `setup`. Workloads run
/// these after the measured phase: freed operators leave pages in the
/// allocator, so a set-up that follows another peaks at a varying height,
/// and peak_rss_mib is read before the repeats.
template <class Make>
void repeat_setup(std::vector<double>& setup, Make make) {
  for (int i = 1; i < kSetupRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto built = make();
    setup.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
}

/// Condition of a measured loop: run at least `seconds` and at least
/// kMinItems items. A slow host makes the run longer, never shorter.
inline bool keep_going(double seconds, double elapsed, std::size_t items) {
  return elapsed < seconds || items < static_cast<std::size_t>(kMinItems);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< Observations behind the value (0 = one
                             ///< reading or an exact count).
};

/// Everything one workload run produces: metrics, attempted/failed items,
/// and run-level errors (a gate that is not tied to one item).
class Record {
 public:
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< Printed with the table; not failures.

  void add(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 0);
  /// Adds the exact q-quantile of `samples` when at least kSamplesBeyond
  /// samples lie beyond it; otherwise the metric is left out and a note
  /// says why.
  void add_quantile(const std::string& name, std::vector<double> samples,
                    double q, const std::string& unit);
  /// Counts one processed item; a non-empty `problem` marks it failed.
  void item(const std::string& problem);
  void error(const std::string& what) { errors.push_back(what); }

  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
  void print() const;
  [[nodiscard]] std::string json() const;
};

/// Exact quantile with linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

// ---------------------------------------------------------------- inputs

/// One seeded slice: shale phantom, its exact sinogram with Poisson noise.
struct Slice {
  std::vector<real> phantom;
  AlignedVector<real> sinogram;  ///< Natural angles-major layout.
  double sinogram_norm = 0.0;    ///< ||y||; the ordering only permutes y.
};

/// `phantom` forward-projected under `g` with noise drawn from `noise_seed`.
[[nodiscard]] Slice make_slice(const geometry::Geometry& g,
                               std::vector<real> phantom,
                               std::uint64_t noise_seed);
/// `count` slices of a fixed specimen set with photon noise from `seed`.
[[nodiscard]] std::vector<Slice> make_slices(const geometry::Geometry& g,
                                             int count, std::uint64_t seed);
/// Seed of the i-th independent stream derived from `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

// ---------------------------------------------------------------- quality

/// Per-workload correctness gate, set about 1 dB / 10% inside the values
/// the workload reaches at its defaults.
struct Gate {
  double psnr_floor_db = 0.0;
  double residual_ceiling = 0.0;  ///< ||A·x − y|| / ||y|| of the last iterate.
};

[[nodiscard]] double psnr_db(std::span<const real> test,
                             std::span<const real> ref);

/// What the quality gate saw for one image; `problem` is empty when it
/// passed.
struct Quality {
  double psnr_db = 0.0;   ///< Against the phantom.
  double residual = 0.0;  ///< ||A·x − y|| / ||y|| of the last iterate.
  std::string problem;
};
[[nodiscard]] Quality check_quality(const Gate& gate,
                                    std::span<const real> image,
                                    const Slice& slice,
                                    const solve::SolveResult& solved);

/// Gates a stream of results over a fixed set of inputs: the first result
/// for each input is checked against the quality gate, every later one must
/// be bitwise equal to it (the library is deterministic).
class SliceChecker {
 public:
  SliceChecker(const std::vector<Slice>& inputs, Gate gate, Record& record);
  void check(std::size_t input, std::span<const real> image,
             const solve::SolveResult& solved);
  /// Counts a failed item that produced no image.
  void reject(const std::string& why) { record_.item(why); }
  /// Mean PSNR over the inputs seen at least once.
  [[nodiscard]] double mean_psnr() const;
  /// Adds `<prefix>psnr_min_db` and `<prefix>residual_max` over the inputs
  /// seen: the margins the gate keeps.
  void add_margins(Record& rec, const std::string& prefix) const;

 private:
  const std::vector<Slice>& inputs_;
  Gate gate_;
  Record& record_;
  std::vector<std::vector<real>> first_;
  std::vector<Quality> quality_;  ///< Per input; valid once first_ is set.
};

/// Peak resident set of this process (getrusage), MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- host

/// The host's memory ceiling, measured in the same run: an OpenMP STREAM
/// triad over arrays of at least 4× the last-level cache each.
struct HostCeiling {
  double llc_mib = 0.0;
  double array_mib = 0.0;
  double triad_gbs = 0.0;
};
[[nodiscard]] HostCeiling measure_host(bool smoke);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans opened while another is open become its
/// children, so a span's self time is its duration minus its children's.
/// Single-threaded by design: the traced re-composition runs on the main
/// thread, and serve requests are added afterwards as completed spans.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";  ///< String literal; category = text before '.'.
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int tid = 0;
    std::int64_t child_ns = 0;  ///< Time covered by direct children.
    std::int64_t count = -1;    ///< Optional "n" argument (e.g. iterations).

    [[nodiscard]] double seconds() const { return (end_ns - begin_ns) * 1e-9; }
    [[nodiscard]] double self_seconds() const {
      return (end_ns - begin_ns - child_ns) * 1e-9;
    }
  };

  Tracer();
  int open(const char* name);
  void close(int id);
  /// Adds a finished span (times from steady_clock) on lane `tid`.
  void add(const char* name, Clock::time_point begin, Clock::time_point end,
           int tid);
  void set_count(int id, std::int64_t n) { spans_[id].count = n; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (or self times) of every span called `name`.
  [[nodiscard]] std::vector<double> seconds(const char* name,
                                            bool self = false) const;
  /// Summed duration of spans called `name`.
  [[nodiscard]] double total(const char* name) const;
  /// Per span called `parent`: how many direct children are `child`.
  [[nodiscard]] std::vector<double> child_counts(const char* parent,
                                                 const char* child) const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Times every operator apply the solver makes as an "apply.fwd" or
/// "apply.bwd" span; block applies keep the inner operator's fused path.
class TimedOperator final : public solve::LinearOperator {
 public:
  TimedOperator(const solve::LinearOperator& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] idx_t num_rows() const override { return inner_.num_rows(); }
  [[nodiscard]] idx_t num_cols() const override { return inner_.num_cols(); }
  void apply(std::span<const real> x, std::span<real> y) const override {
    Scope s(tracer_, "apply.fwd");
    inner_.apply(x, y);
  }
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override {
    Scope s(tracer_, "apply.bwd");
    inner_.apply_transpose(y, x);
  }
  void apply_block(std::span<const real> x, std::span<real> y,
                   idx_t k) const override {
    Scope s(tracer_, "apply.fwd");
    inner_.apply_block(x, y, k);
  }
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             idx_t k) const override {
    Scope s(tracer_, "apply.bwd");
    inner_.apply_transpose_block(y, x, k);
  }

 private:
  const solve::LinearOperator& inner_;
  Tracer& tracer_;
};

// ------------------------------------------------- traced re-composition

/// The preprocessing layers called one by one, each as a span: orderings,
/// ray tracing, the transpose and buffer-build probes, and the operator
/// build(s). `shards` > 1 also builds the sharded operator the workload
/// runs on, from the same traced matrix.
struct Composed {
  std::unique_ptr<hilbert::Ordering> sino;
  std::unique_ptr<hilbert::Ordering> tomo;
  std::unique_ptr<core::MemXCTOperator> op;
  std::unique_ptr<shard::ShardedOperator> sharded;
  nnz_t nnz = 0;

  /// The operator the workload's solves run on.
  [[nodiscard]] const solve::LinearOperator& path() const {
    if (sharded) return *sharded;
    return *op;
  }
};
[[nodiscard]] Composed compose(const geometry::Geometry& g,
                               const core::Config& config, Tracer& tracer);

/// Reconstructs every input once through core::Reconstructor::reconstruct
/// and hands each image to `checker`, which gates it and keeps it as the
/// reference that later images must equal bit for bit. The Reconstructor
/// is destroyed on return, so the re-composed operator is never resident
/// next to a second copy.
void reference_images(const geometry::Geometry& g, const core::Config& config,
                      const std::vector<Slice>& inputs, SliceChecker& checker);

/// One slice through the re-composed pipeline as a "slice" span: ingest,
/// CGLS on `op` (normally a TimedOperator) with the options
/// core::reconstruct_slice derives from `config`, de-permutation.
[[nodiscard]] std::vector<real> traced_slice(
    const solve::LinearOperator& op, const geometry::Geometry& g,
    const core::Config& config, const Composed& c,
    std::span<const real> sinogram, core::SliceWorkspace& ws, Tracer& tracer,
    solve::SolveResult* solved);

/// For `seconds` (and at least kMinItems pairs) alternates, on the same
/// input, core::reconstruct_slice on c.path() (untraced) and traced_slice()
/// on the same operator wrapped in a TimedOperator, so host drift hits both
/// sides alike. Both images go through `checker`. `after_traced` runs after
/// every traced slice. Returns the untraced slice times.
std::vector<double> alternate_slices(
    double seconds, const geometry::Geometry& g, const core::Config& config,
    const Composed& c, const std::vector<Slice>& inputs, SliceChecker& checker,
    Tracer& tracer, const std::function<void()>& after_traced = {});

/// The per-layer metrics every traced run reports, from the spans of the
/// re-composed pipeline `c`. Kernel bytes come from c.op's work accounting
/// at block width `width`; resident bytes from the operator the path runs
/// (the sharded one when present). `item` names the span of one unit of
/// work ("slice" or "wave"); `untraced_item_s` holds the same unit's times
/// from the untraced path, interleaved with the traced ones.
void add_layer_metrics(Record& rec, const Tracer& tracer,
                       const HostCeiling& host, const Composed& c, int width,
                       const char* item,
                       const std::vector<double>& untraced_item_s);

// ---------------------------------------------------------------- workloads

void run_slices(const Options& opt, Record& rec);  // recon-large, shard-p4
void run_stack(const Options& opt, Record& rec);   // stack-k8
void run_serve(const Options& opt, Record& rec);   // serve-mix

}  // namespace memxct::bench
