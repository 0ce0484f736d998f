// The MemXCT end-to-end pipeline: preprocessing (ordering, ray tracing,
// transposition, partitioning/buffer construction — Section 3.5) followed
// by iterative reconstruction.
//
// This is the library's primary public entry point:
//
//   auto geometry = geometry::make_geometry(angles, channels);
//   core::Reconstructor recon(geometry, core::Config{});
//   auto result = recon.reconstruct(sinogram);   // natural row-major image
//
// Preprocessing is paid once per geometry and reused across slices
// (Table 5's amortization argument).
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/operator.hpp"
#include "geometry/geometry.hpp"
#include "hilbert/ordering.hpp"
#include "shard/sharded_operator.hpp"
#include "solve/cgls.hpp"
#include "solve/solver.hpp"
#include "tune/tune.hpp"

namespace memxct::core {

/// Per-phase preprocessing timings and footprints (Table 4's "Preproc."
/// column broken down).
struct PreprocessReport {
  double ordering_seconds = 0.0;
  /// Ray tracing / matrix construction. On the direct route (Buffered,
  /// one shard, autotune Off, no trace cache) the rays are traced straight
  /// into the buffered forward, so this covers the trace plus the forward's
  /// staging; elsewhere it is the CSR trace or cache load.
  double trace_seconds = 0.0;
  /// Serial path: the whole MemXCTOperator build after the trace. On the
  /// direct route that is the backward staged from the traced forward plus
  /// both plans; on the other Buffered routes also the buffered forward
  /// built from the CSR A (no CSR transpose either way); for the other
  /// kernels the scan transpose and both derived-format builds.
  double transpose_seconds = 0.0;
  /// Sharded path: the whole ShardedOperator build, row slices, tiles and
  /// exchange plans included (transpose_seconds stays 0 there).
  double partition_seconds = 0.0;
  double tune_seconds = 0.0;  ///< Autotune step wall time (replay or
                              ///< measurement; 0 when autotune is Off).
  double total_seconds = 0.0;
  nnz_t nnz = 0;
  std::int64_t regular_bytes = 0;    ///< Memoized matrix footprint.
  std::int64_t irregular_bytes = 0;  ///< Tomogram + sinogram vectors.
  bool cache_hit = false;  ///< Ray tracing was loaded from the checked
                           ///< cache instead of being recomputed.
  bool cache_corrupt = false;  ///< A cache file was present but unusable
                               ///< (checksum/shape/format failure) and the
                               ///< matrix was rebuilt. Distinct from a plain
                               ///< miss so the serve layer's disk-tier
                               ///< circuit breaker can count real failures.
};

/// Reconstruction output in natural (row-major) tomogram layout.
struct ReconstructionResult {
  std::vector<real> image;
  solve::SolveResult solve;
  /// What ingest validation/sanitization found (empty per-angle stats under
  /// the Passthrough policy).
  resil::IngestReport ingest;
};

/// Reusable scratch for reconstruct_slice: the ingest-sanitize staging copy
/// and the ordered-space measurement vector. A caller looping over slices
/// (the batch engine's workers) passes the same workspace each time, so the
/// steady-state hot path performs no slice-sized allocations.
struct SliceWorkspace {
  AlignedVector<real> sanitized;
  AlignedVector<real> ordered;
};

/// Front half of reconstruct_slice: ingest gate (validate / sanitize per
/// config.ingest) followed by permutation into ordered sinogram space.
/// Fills ws.ordered with the solver-ready measurement vector and returns
/// the ingest report. Throws InvalidArgument for a sinogram whose size does
/// not match the geometry, and under the Reject policy when the sinogram
/// fails validation. Shared verbatim by the single-slice and
/// block paths, so both see identical solver inputs.
resil::IngestReport ingest_and_order(const geometry::Geometry& geometry,
                                     const Config& config,
                                     const hilbert::Ordering& sino_order,
                                     std::span<const real> sinogram,
                                     SliceWorkspace& ws);

/// Back half of reconstruct_slice: de-permutes an ordered-space solution
/// into the natural row-major tomogram layout. `image` must already be
/// sized to the tomogram extent.
void depermute_image(const hilbert::Ordering& tomo_order,
                     std::span<const real> solved_x, std::span<real> image);

/// Optional solver inputs beyond the sinogram. Every span is in *natural*
/// layout — the caller-facing coordinate system — and is converted to
/// ordered space inside reconstruct_slice, so callers never touch the
/// Hilbert permutations. validate_extras says which solver takes which.
struct SolveExtras {
  /// Warm start as a natural row-major tomogram image, e.g. a stream's last
  /// preview or a volume's neighbouring slice. Empty = zero start.
  std::span<const real> warm_start_image;
  /// 0/1 per projection angle (length = geometry.num_angles); 0 marks angles
  /// whose measurements have not arrived yet — their sinogram rows are
  /// excluded from corrections, normalizations, and residual norms. Empty =
  /// all angles present.
  std::span<const real> angle_mask;
  /// Inter-slice prior (empty or prior_lambda == 0 disables):
  /// min ||A x - y||² + prior_lambda² ||x - prior_image||² in place of the
  /// config's Tikhonov term — the paper's Eq. 1 R(x) pulling a slice toward
  /// its z-neighbour, which suppresses per-slice noise.
  std::span<const real> prior_image;
  double prior_lambda = 0.0;
};

/// The one extras rule, applied by reconstruct_slice and serve admission:
/// angle_mask needs an OS solver, prior_image CGLS, warm_start_image either;
/// spans must fit the geometry. Throws InvalidArgument otherwise.
void validate_extras(const geometry::Geometry& geometry, const Config& config,
                     const SolveExtras& extras);

/// The one Config → CGLS options mapping (reconstruct_slice,
/// reconstruct_block and the batch engine's waves).
[[nodiscard]] solve::CglsOptions cgls_options(
    const Config& config, const solve::CancelToken* cancel = nullptr,
    solve::ProgressSink* progress = nullptr);

/// One-slice reconstruction against an explicit operator: ingest gate,
/// permutation into ordered space, solve, de-permutation. This is the slice
/// engine shared by Reconstructor::reconstruct (which passes its own active
/// operator) and batch::BatchReconstructor (which passes per-worker operator
/// views sharing the preprocessed storage). The arithmetic is identical on
/// both paths, so batch results are bitwise-equal to single-slice results.
/// `cancel` (optional) is polled by the solver at iteration granularity;
/// on cancellation the result carries solve.cancelled and the last
/// completed iterate. `progress` (optional) receives a heartbeat per
/// completed iteration for watchdog monitoring. `extras` (optional) carries
/// warm-start, partial-data and prior inputs (checked by validate_extras);
/// the OS solvers additionally require `op` to be a serial MemXCTOperator
/// (subset views need the memoized storage; any other operator throws
/// InvalidArgument, though validate_config already rejects the configs
/// that would build one).
[[nodiscard]] ReconstructionResult reconstruct_slice(
    const solve::LinearOperator& op, const geometry::Geometry& geometry,
    const Config& config, const hilbert::Ordering& sino_order,
    const hilbert::Ordering& tomo_order, std::span<const real> sinogram,
    SliceWorkspace* workspace = nullptr,
    const solve::CancelToken* cancel = nullptr,
    solve::ProgressSink* progress = nullptr,
    const SolveExtras* extras = nullptr);

/// Multi-slice lockstep reconstruction: the sinograms are ingested and
/// ordered individually, solved together by the block CGLS solver (one
/// matrix stream per iteration for all slices — the SpMM amortization),
/// and de-permuted individually. Per-slice results are bitwise identical
/// to reconstruct_slice on the same operator (solve/block.hpp's parity
/// contract). Throws InvalidArgument unless config.solver == CGLS, for a
/// checkpoint path with more than one slice (one file holds one slice), and
/// under the Reject ingest policy on the first bad slice — the batch engine
/// gates each slice itself for per-slice isolation.
[[nodiscard]] std::vector<ReconstructionResult> reconstruct_block(
    const solve::LinearOperator& op, const geometry::Geometry& geometry,
    const Config& config, const hilbert::Ordering& sino_order,
    const hilbert::Ordering& tomo_order,
    const std::vector<std::span<const real>>& sinograms,
    const solve::CancelToken* cancel = nullptr);

class Reconstructor {
 public:
  Reconstructor(const geometry::Geometry& geometry, const Config& config);
  ~Reconstructor();

  /// Reconstructs one slice from a natural-layout sinogram (angles-major).
  /// A volume is a loop over slices passing each image to the next as
  /// warm start or prior (SolveExtras).
  [[nodiscard]] ReconstructionResult reconstruct(
      std::span<const real> sinogram,
      const SolveExtras* extras = nullptr) const;

  [[nodiscard]] const PreprocessReport& preprocess_report() const noexcept {
    return report_;
  }
  /// The RESOLVED configuration: when the ctor ran the autotuner this is
  /// the config with kernel/schedule/buffer replaced by the measured winner
  /// and autotune cleared — i.e. what was actually built (and what
  /// operator_key should be computed from).
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  /// What the autotune step did (tune_report().tuned == false when
  /// config.autotune was Off or the path ignores it).
  [[nodiscard]] const tune::TuneReport& tune_report() const noexcept {
    return tune_report_;
  }
  [[nodiscard]] const geometry::Geometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] const hilbert::Ordering& sinogram_ordering() const noexcept {
    return *sino_order_;
  }
  [[nodiscard]] const hilbert::Ordering& tomogram_ordering() const noexcept {
    return *tomo_order_;
  }
  /// The operator actually used (MemXCTOperator or ShardedOperator).
  [[nodiscard]] const solve::LinearOperator& op() const noexcept {
    return *active_op_;
  }
  /// Non-null only on the serial path (num_shards == 1). The batch engine
  /// builds per-worker views from it.
  [[nodiscard]] const MemXCTOperator* serial_op() const noexcept {
    return serial_op_.get();
  }
  /// Non-null only on the sharded path (num_shards > 1). The batch engine
  /// and the serve workers build per-worker views from it, exactly as they
  /// do from serial_op on the unsharded path.
  [[nodiscard]] const shard::ShardedOperator* shard_op() const noexcept {
    return shard_op_.get();
  }

 private:
  geometry::Geometry geometry_;
  Config config_;
  PreprocessReport report_;
  tune::TuneReport tune_report_;
  std::unique_ptr<hilbert::Ordering> sino_order_;
  std::unique_ptr<hilbert::Ordering> tomo_order_;
  std::unique_ptr<MemXCTOperator> serial_op_;
  std::unique_ptr<shard::ShardedOperator> shard_op_;
  solve::LinearOperator* active_op_ = nullptr;
};

}  // namespace memxct::core
