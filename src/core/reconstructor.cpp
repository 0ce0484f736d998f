#include "core/reconstructor.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "geometry/projector.hpp"
#include "perf/timer.hpp"
#include "resil/checked_io.hpp"
#include "core/subset.hpp"
#include "solve/block.hpp"
#include "solve/gd.hpp"
#include "solve/os.hpp"
#include "solve/sirt.hpp"

namespace memxct::core {

namespace {

/// Cache file name keyed by everything the traced matrix depends on:
/// geometry shape, angular span, ordering scheme, tile size. The entry is
/// the exact fp32 matrix at every precision (reduced precision quantizes
/// during the operator build), so all precisions share one file. A config
/// change keys a different file, so stale caches are simply never opened;
/// a file that *was* tampered with to the right name still fails its
/// checksum or the dimension cross-check below.
std::string cache_file_name(const geometry::Geometry& g, const Config& c) {
  std::ostringstream os;
  os << "memxct-a" << g.num_angles << "-c" << g.num_channels << "-i"
     << g.image_size << "-s" << g.angle_span << "-" << to_string(c.ordering)
     << "-t" << c.tile_size << ".csr";
  return os.str();
}

/// Loads the traced matrix from the cache if possible. Any failure —
/// missing file, checksum mismatch, truncation, wrong dimensions — returns
/// false and the caller rebuilds; corruption is reported on stderr but
/// never crashes preprocessing (the cache is an optimization, not a
/// dependency). A hit yields the same matrix a miss traces, so both build
/// the same operator.
bool try_load_cache(const std::string& path, const geometry::Geometry& g,
                    sparse::CsrMatrix& a, bool* corrupt) {
  if (!resil::file_exists(path)) return false;
  try {
    a = resil::load_csr_checked(path);
    if (static_cast<std::int64_t>(a.num_rows) != g.sinogram_extent().size() ||
        static_cast<std::int64_t>(a.num_cols) != g.tomogram_extent().size())
      throw IoError(path + ": cached matrix shape does not match geometry");
    return true;
  } catch (const IoError& e) {
    std::fprintf(stderr, "memxct: cache unusable (%s); rebuilding\n",
                 e.what());
    if (corrupt != nullptr) *corrupt = true;
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "memxct: cache corrupt (%s); rebuilding\n",
                 e.what());
    if (corrupt != nullptr) *corrupt = true;
  }
  return false;
}

}  // namespace

Reconstructor::Reconstructor(const geometry::Geometry& geometry,
                             const Config& config)
    : geometry_(geometry), config_(config) {
  geometry_.validate();
  // One gate for every illegal field combination (shards+precision,
  // kernel and solver conflicts): the same call serve admission and the
  // tuner's candidate pruning make.
  validate_config(config_);
  perf::WallTimer total;
  perf::WallTimer phase;

  // Preprocessing step 1: two-level orderings of both domains.
  sino_order_ = std::make_unique<hilbert::Ordering>(
      geometry_.sinogram_extent(), config_.ordering, config_.tile_size);
  tomo_order_ = std::make_unique<hilbert::Ordering>(
      geometry_.tomogram_extent(), config_.ordering, config_.tile_size);
  report_.ordering_seconds = phase.seconds();

  // Step 2: memoized ray tracing. When nothing but a buffered operator
  // reads the traced matrix — no trace cache, no tuner measuring it — the
  // rays are traced straight into the buffered forward and the CSR A never
  // exists (DESIGN.md §23); the serial operator and the shard tiles are both
  // built from it. Every other config traces the ordered CSR A, loaded from
  // the checked cache when one is configured and intact, else recomputed
  // (and the cache repopulated with an atomic write).
  phase.reset();
  const bool direct = config_.kernel == KernelKind::Buffered &&
                      config_.autotune == AutotuneMode::Off &&
                      config_.cache_dir.empty();
  sparse::BufferedMatrix fwd;  // the direct route's traced forward
  sparse::CsrMatrix a;         // every other route's traced A
  std::string cache_path;
  if (!config_.cache_dir.empty()) {
    cache_path = config_.cache_dir + "/" + cache_file_name(geometry_, config_);
    report_.cache_hit =
        try_load_cache(cache_path, geometry_, a, &report_.cache_corrupt);
  }
  if (direct) {
    fwd = geometry::build_projection_buffered(geometry_, *sino_order_,
                                              *tomo_order_, config_.buffer);
  } else if (!report_.cache_hit) {
    a = geometry::build_projection_matrix(geometry_, *sino_order_,
                                          *tomo_order_);
    if (!cache_path.empty()) {
      try {
        std::error_code ec;  // a failed mkdir surfaces as the write error
        std::filesystem::create_directories(config_.cache_dir, ec);
        resil::save_csr_checked(cache_path, a);
      } catch (const IoError& e) {
        std::fprintf(stderr, "memxct: cache write failed (%s); continuing\n",
                     e.what());
      }
    }
  }
  report_.trace_seconds = phase.seconds();
  report_.nnz = direct ? fwd.nnz() : a.nnz();
  report_.irregular_bytes = (geometry_.sinogram_extent().size() +
                             geometry_.tomogram_extent().size()) *
                            static_cast<std::int64_t>(sizeof(real));

  // Operator-build autotuning (src/tune): resolve kernel/schedule/buffer
  // from measurements on the traced matrix before anything is built from
  // it. Serial operator path only — the sharded family has its own layout
  // constraints and ignores the flag.
  if (config_.autotune != AutotuneMode::Off && config_.num_shards == 1) {
    phase.reset();
    tune_report_ = tune::autotune_operator(geometry_, config_, a);
    report_.tune_seconds = phase.seconds();
  }

  if (config_.num_shards > 1) {
    // Sharded path: per-shard tiles of A and A^T with precomputed
    // halo-exchange plans (shard/sharded_operator.hpp). Buffered tiles are
    // cut from the staged forward (the direct route's, or one staged from
    // the CSR A, which is released first) and the backward staged from it;
    // Baseline tiles are row slices of A and its CSR transpose. Tiles hold
    // fp32 values (validate_config already rejected reduced precision and
    // non-Baseline/Buffered kernels here — no shard-local forms exist for
    // them).
    phase.reset();
    shard::ShardedOperator::Options opt;
    opt.num_shards = config_.num_shards;
    opt.kernel = config_.kernel == KernelKind::Buffered
                     ? shard::LocalKernel::Buffered
                     : shard::LocalKernel::BaselineCsr;
    opt.buffer = config_.buffer;
    opt.group_size = config_.shard_group_size;
    opt.pipeline_tiles = config_.shard_pipeline_tiles;
    opt.machine = perf::machine(config_.machine);
    if (opt.kernel == shard::LocalKernel::Buffered) {
      if (!direct) {
        // Staged here rather than by the CSR constructor, so that A is
        // consumed by the forward's build and gone before the backward is
        // staged from the forward.
        fwd = sparse::build_buffered(std::move(a), config_.buffer);
        a = sparse::CsrMatrix{};
      }
      shard_op_ = std::make_unique<shard::ShardedOperator>(std::move(fwd), opt);
    } else {
      shard_op_ = std::make_unique<shard::ShardedOperator>(a, opt);
    }
    report_.partition_seconds = phase.seconds();
    report_.regular_bytes = shard_op_->bytes();
    active_op_ = shard_op_.get();
  } else {
    // Steps 3-4: transposition and kernel-specific structures.
    phase.reset();
    serial_op_ =
        direct ? std::make_unique<MemXCTOperator>(
                     std::move(fwd), config_.schedule, config_.precision)
               : std::make_unique<MemXCTOperator>(
                     std::move(a), config_.kernel, config_.buffer,
                     config_.ell_block_rows, config_.schedule,
                     config_.precision);
    report_.transpose_seconds = phase.seconds();
    report_.regular_bytes = serial_op_->regular_bytes();
    active_op_ = serial_op_.get();
  }
  report_.total_seconds = total.seconds();
}

Reconstructor::~Reconstructor() = default;

resil::IngestReport ingest_and_order(const geometry::Geometry& geometry,
                                     const Config& config,
                                     const hilbert::Ordering& sino_order,
                                     std::span<const real> sinogram,
                                     SliceWorkspace& ws) {
  if (static_cast<std::int64_t>(sinogram.size()) !=
      geometry.sinogram_extent().size())
    throw InvalidArgument("sinogram size does not match the geometry");

  // Ingest gate: a NaN here would poison every solver inner product from
  // the first backprojection on, so anomalies are rejected or repaired
  // before any arithmetic sees the data.
  resil::IngestReport ingest;
  std::span<const real> measurements = sinogram;
  switch (config.ingest.policy) {
    case resil::IngestPolicy::Passthrough:
      break;
    case resil::IngestPolicy::Reject:
      ingest = resil::validate_sinogram(geometry.num_angles,
                                        geometry.num_channels, sinogram,
                                        config.ingest);
      if (!ingest.clean())
        throw InvalidArgument("sinogram rejected by ingest validation: " +
                              ingest.summary());
      break;
    case resil::IngestPolicy::Sanitize:
      ws.sanitized.assign(sinogram.begin(), sinogram.end());
      ingest = resil::sanitize_sinogram(geometry.num_angles,
                                        geometry.num_channels, ws.sanitized,
                                        config.ingest);
      measurements = ws.sanitized;
      break;
  }

  // Permute measurements into ordered sinogram space.
  ws.ordered.resize(measurements.size());
  std::span<real> y = ws.ordered;
  const auto& to_grid = sino_order.to_grid();
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = measurements[static_cast<std::size_t>(to_grid[i])];
  return ingest;
}

void depermute_image(const hilbert::Ordering& tomo_order,
                     std::span<const real> solved_x, std::span<real> image) {
  const auto& tomo_to_grid = tomo_order.to_grid();
  MEMXCT_CHECK(image.size() == tomo_to_grid.size());
  MEMXCT_CHECK(solved_x.size() >= image.size());
  for (std::size_t i = 0; i < image.size(); ++i)
    image[static_cast<std::size_t>(tomo_to_grid[i])] = solved_x[i];
}

namespace {

/// Gathers a natural-layout tomogram image into ordered space: the inverse
/// of depermute_image.
AlignedVector<real> order_image(const hilbert::Ordering& tomo_order,
                                std::span<const real> image) {
  const auto& tomo_to_grid = tomo_order.to_grid();
  AlignedVector<real> x(tomo_to_grid.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = image[static_cast<std::size_t>(tomo_to_grid[i])];
  return x;
}

}  // namespace

solve::CglsOptions cgls_options(const Config& config,
                                const solve::CancelToken* cancel,
                                solve::ProgressSink* progress) {
  solve::CglsOptions opt;
  opt.max_iterations = config.iterations;
  opt.early_stop = config.early_stop;
  opt.early_stop_tol = config.early_stop_tol;
  opt.tikhonov_lambda = config.tikhonov_lambda;
  opt.checkpoint.path = config.checkpoint_path;
  if (!config.checkpoint_path.empty())
    opt.checkpoint.interval = config.checkpoint_interval;
  opt.cancel = cancel;
  opt.progress = progress;
  return opt;
}

ReconstructionResult reconstruct_slice(const solve::LinearOperator& op,
                                       const geometry::Geometry& geometry,
                                       const Config& config,
                                       const hilbert::Ordering& sino_order,
                                       const hilbert::Ordering& tomo_order,
                                       std::span<const real> sinogram,
                                       SliceWorkspace* workspace,
                                       const solve::CancelToken* cancel,
                                       solve::ProgressSink* progress,
                                       const SolveExtras* extras) {
  // Local scratch when the caller did not provide a reusable workspace
  // (one-shot reconstructions); batch workers pass a persistent one so the
  // resize calls below are no-ops after the first slice.
  SliceWorkspace local;
  SliceWorkspace& ws = workspace != nullptr ? *workspace : local;

  if (extras != nullptr) validate_extras(geometry, config, *extras);

  resil::IngestReport ingest =
      ingest_and_order(geometry, config, sino_order, sinogram, ws);
  std::span<const real> y = ws.ordered;

  // Per-solve metric scope: the sharded operator accumulates apply-side
  // statistics since construction, which would fold registry warm-up
  // applies (and earlier requests on a cached operator) into this
  // request's serve metrics. Zero them so the post-solve snapshot covers
  // exactly this solve.
  if (const auto* sop = dynamic_cast<const shard::ShardedOperator*>(&op))
    sop->reset_stats();

  // The CGLS mapping; the other solvers share its checkpoint policy.
  const solve::CglsOptions cgls_opt = cgls_options(config, cancel, progress);
  const solve::CheckpointOptions& checkpoint = cgls_opt.checkpoint;

  // Extras arrive in natural layout; the solvers work in ordered space.
  AlignedVector<real> x0;
  if (extras != nullptr && !extras->warm_start_image.empty())
    x0 = order_image(tomo_order, extras->warm_start_image);

  solve::SolveResult solved;
  switch (config.solver) {
    case SolverKind::CGLS: {
      solve::CglsOptions opt = cgls_opt;
      // A prior substitutes d = x - x_prev: min ||A d - (y - A x_prev)||² +
      // λ_z²||d||² is plain damped CGLS on the shifted data (a warm start
      // x0 seeds d0 = x0 - x_prev).
      AlignedVector<real> previous, shifted;
      if (extras != nullptr && extras->prior_lambda > 0.0 &&
          !extras->prior_image.empty()) {
        previous = order_image(tomo_order, extras->prior_image);
        shifted.resize(y.size());
        op.apply(previous, shifted);
        for (std::size_t i = 0; i < y.size(); ++i)
          shifted[i] = y[i] - shifted[i];
        for (std::size_t i = 0; i < x0.size(); ++i) x0[i] -= previous[i];
        opt.tikhonov_lambda = extras->prior_lambda;
        y = shifted;
      }
      solved = solve::cgls_warm(op, y, x0, opt);
      for (std::size_t i = 0; i < previous.size(); ++i)
        solved.x[i] += previous[i];
      break;
    }
    case SolverKind::SIRT: {
      solve::SirtOptions opt;
      opt.max_iterations = config.iterations;
      opt.checkpoint = checkpoint;
      opt.cancel = cancel;
      opt.progress = progress;
      solved = solve::sirt(op, y, opt);
      break;
    }
    case SolverKind::GradientDescent: {
      solve::GdOptions opt;
      opt.max_iterations = config.iterations;
      opt.checkpoint = checkpoint;
      opt.cancel = cancel;
      opt.progress = progress;
      solved = solve::gradient_descent(op, y, opt);
      break;
    }
    case SolverKind::OsSirt:
    case SolverKind::OsSart: {
      // The OS sweep needs row-range views of the memoized storage; only
      // the serial operator exposes them (subset_view). validate_config
      // rejects the sharded configs up front; this guards callers that
      // hand in some other operator directly.
      const auto* mem = dynamic_cast<const MemXCTOperator*>(&op);
      if (mem == nullptr)
        throw InvalidArgument(
            "ordered-subsets solvers require the serial memoized operator "
            "(sharded and wrapper operators have no subset views)");
      const std::vector<std::unique_ptr<SubsetOperatorView>> views =
          make_subset_views(*mem, config.num_subsets);
      std::vector<solve::OsSubset> subs;
      subs.reserve(views.size());
      for (const auto& v : views) subs.push_back({v.get(), v->first_row()});

      solve::OsOptions opt;
      opt.kind = config.solver == SolverKind::OsSart ? solve::OsKind::Sart
                                                     : solve::OsKind::Sirt;
      opt.max_sweeps = config.iterations;
      opt.early_stop = config.early_stop;
      opt.early_stop_tol = config.early_stop_tol;
      opt.checkpoint = checkpoint;
      opt.cancel = cancel;
      opt.progress = progress;

      // The per-angle mask expands to per-row through the sinogram
      // ordering (natural sinogram index = angle · num_channels + channel).
      AlignedVector<real> row_mask;
      opt.x0 = x0;
      if (extras != nullptr && !extras->angle_mask.empty()) {
        const auto& sino_to_grid = sino_order.to_grid();
        row_mask.resize(sino_to_grid.size());
        for (std::size_t i = 0; i < row_mask.size(); ++i) {
          const auto angle = static_cast<std::size_t>(
              sino_to_grid[i] / geometry.num_channels);
          row_mask[i] = extras->angle_mask[angle] != real{0} ? real{1}
                                                             : real{0};
        }
        opt.row_mask = row_mask;
      }
      solved = solve::os_solve(subs, y, opt);
      break;
    }
  }

  // De-permute the solution into natural row-major layout.
  ReconstructionResult result;
  result.ingest = std::move(ingest);
  result.image.resize(
      static_cast<std::size_t>(geometry.tomogram_extent().size()));
  depermute_image(tomo_order, solved.x, result.image);
  result.solve = std::move(solved);
  return result;
}

std::vector<ReconstructionResult> reconstruct_block(
    const solve::LinearOperator& op, const geometry::Geometry& geometry,
    const Config& config, const hilbert::Ordering& sino_order,
    const hilbert::Ordering& tomo_order,
    const std::vector<std::span<const real>>& sinograms,
    const solve::CancelToken* cancel) {
  MEMXCT_CHECK(!sinograms.empty());
  if (config.solver != SolverKind::CGLS)
    throw InvalidArgument(
        "reconstruct_block requires the CGLS solver (block_width > 1 is a "
        "lockstep CGLS path)");

  const auto m = static_cast<std::size_t>(geometry.sinogram_extent().size());
  const auto n = static_cast<std::size_t>(geometry.tomogram_extent().size());

  // Each slice goes through the exact single-slice ingest + permutation;
  // the ordered vectors are stacked into the contiguous slab the block
  // solver expects (slice s at y_slab[s·m, (s+1)·m)).
  std::vector<ReconstructionResult> results(sinograms.size());
  AlignedVector<real> y_slab(m * sinograms.size());
  SliceWorkspace ws;
  for (std::size_t s = 0; s < sinograms.size(); ++s) {
    results[s].ingest =
        ingest_and_order(geometry, config, sino_order, sinograms[s], ws);
    std::copy(ws.ordered.begin(), ws.ordered.end(),
              y_slab.begin() + static_cast<std::ptrdiff_t>(s * m));
  }

  solve::BlockSolveResult solved = solve::cgls_block(
      op, y_slab, static_cast<idx_t>(sinograms.size()),
      cgls_options(config, cancel));

  for (std::size_t s = 0; s < results.size(); ++s) {
    results[s].image.resize(n);
    depermute_image(tomo_order, solved.slices[s].x, results[s].image);
    results[s].solve = std::move(solved.slices[s]);
  }
  return results;
}

ReconstructionResult Reconstructor::reconstruct(
    std::span<const real> sinogram, const SolveExtras* extras) const {
  return reconstruct_slice(*active_op_, geometry_, config_, *sino_order_,
                           *tomo_order_, sinogram, nullptr, nullptr, nullptr,
                           extras);
}

}  // namespace memxct::core
