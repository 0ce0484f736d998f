// MemXCT pipeline configuration.
#pragma once

#include <string>

#include "hilbert/ordering.hpp"
#include "resil/ingest.hpp"
#include "sparse/buffered.hpp"
#include "sparse/precision.hpp"

namespace memxct::core {

/// Kernel flavour applied to the memoized matrices (the Fig 9 series plus
/// the general-library reference).
enum class KernelKind {
  Baseline,  ///< Listing 2 CSR kernel.
  EllBlock,  ///< Partition-level zero-padded column-major ELL (GPU layout).
  Buffered,  ///< Listing 3 multi-stage input buffering (full optimization).
  Library,   ///< General-purpose CSR SpMV (MKL/cuSPARSE stand-in).
};

[[nodiscard]] const char* to_string(KernelKind kind) noexcept;

/// Thread work-sharing strategy for operator applies.
enum class ScheduleKind {
  Dynamic,     ///< Per-apply `schedule(dynamic)` partition distribution.
  StaticPlan,  ///< nnz-balanced static plan: fixed partition → thread map,
               ///< persistent workspaces, bitwise-deterministic output.
};

[[nodiscard]] const char* to_string(ScheduleKind kind) noexcept;

/// Iterative scheme (Section 3.5.2's plug-and-play solvers). OsSirt/OsSart
/// are the ordered-subsets accelerators (solve/os.hpp): they sweep
/// partition-aligned row subsets of the memoized operator in bit-reversed
/// order, converging in far fewer full-matrix passes; `iterations` then
/// counts full sweeps. Supported on the serial Baseline/Buffered fp32
/// operator families (subset views, core/subset.hpp).
enum class SolverKind { CGLS, SIRT, GradientDescent, OsSirt, OsSart };

[[nodiscard]] const char* to_string(SolverKind kind) noexcept;

/// Operator-build autotuning policy (src/tune). The tuner micro-benchmarks
/// a pruned kernel × schedule × partsize/buffsize candidate set on the
/// actual traced matrix and resolves kernel/schedule/buffer to the measured
/// winner before the operator is constructed. Measurement picks the CONFIG,
/// never the arithmetic: a tuned build is bitwise identical to an untuned
/// build forced to the same resolved config.
enum class AutotuneMode {
  Off,     ///< Use the config's kernel/schedule/buffer as given.
  Cached,  ///< Replay a cached `.tune` decision when one exists (and is
           ///< intact) in cache_dir; measure and record otherwise.
  Force,   ///< Always re-measure; overwrites any cached decision.
};

[[nodiscard]] const char* to_string(AutotuneMode mode) noexcept;

struct Config {
  /// Domain ordering; Hilbert is the paper's scheme, RowMajor the naive
  /// baseline, Morton the Section 3.2.3 comparison.
  hilbert::CurveKind ordering = hilbert::CurveKind::Hilbert;
  idx_t tile_size = 0;  ///< 0 = auto (default_tile_size).

  KernelKind kernel = KernelKind::Buffered;
  sparse::BufferConfig buffer;  ///< partsize/buffsize tuning (Fig 10).
  idx_t ell_block_rows = 64;    ///< Partition size for the ELL layout.
  /// Apply-time work sharing; StaticPlan is the allocation-free default.
  ScheduleKind schedule = ScheduleKind::StaticPlan;
  /// Multi-RHS block width: slices solved in lockstep per matrix pass
  /// (sparse/spmm.hpp). 1 = single-RHS behavior; >1 requires the CGLS
  /// solver. Part of the operator identity (keyed by the serve registry:
  /// block workspaces are sized per width).
  int block_width = 1;
  /// Operator value storage (sparse/precision.hpp). Fp32 keeps 4-byte
  /// values; Bf16/Fp16 store the buffered matrices' values in 16 bits
  /// beside the same 16-bit slots (sparse::compress_buffered), supported
  /// for the Buffered kernel only. Part of the operator identity (opkey
  /// suffix "-v<precision>").
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;

  /// Operator-build autotuning (src/tune): Off keeps the fields above as
  /// given; Cached/Force let the in-process tuner resolve kernel, schedule,
  /// and buffer from measurements on the traced matrix (serial operator
  /// path only — sharded builds ignore it). NOT part of the
  /// operator identity: the registry and the Reconstructor key operators by
  /// the RESOLVED config, so a tuned operator and an explicitly-configured
  /// twin share one cache entry.
  AutotuneMode autotune = AutotuneMode::Off;

  SolverKind solver = SolverKind::CGLS;
  int iterations = 30;      ///< Paper's CG default (full sweeps for OS).
  /// Subset count for the ordered-subsets solvers; ignored by the others.
  /// Clamped to the operator's row-partition count at solve time.
  int num_subsets = 8;
  bool early_stop = false;  ///< Heuristic termination at the L-curve knee.
  /// Relative-improvement tolerance for early_stop (CGLS and the OS
  /// solvers, which evaluate it on full-sweep boundaries only). Larger
  /// values stop sooner — the degradation ladder relaxes this to trade
  /// residual for latency under deadline pressure.
  double early_stop_tol = 1e-3;
  /// Tikhonov damping for CGLS (the R(x) = λ²||x||² regularizer of Eq. 1);
  /// 0 disables.
  double tikhonov_lambda = 0.0;

  /// Measurement ingest policy: how reconstruct() treats NaN/Inf samples,
  /// dead/hot detector channels, and zingers in the incoming sinogram.
  /// Passthrough (the default) trusts the caller; Reject throws
  /// InvalidArgument on any anomaly; Sanitize repairs in place and reports.
  resil::IngestOptions ingest;

  /// Directory for the checksummed preprocessing cache; empty disables
  /// caching. A corrupt or stale cache file is rebuilt, never trusted.
  std::string cache_dir;

  /// Solver checkpoint file; empty disables on-disk checkpoint/restart.
  /// When set, reconstruct() resumes from a compatible checkpoint and
  /// snapshots every checkpoint_interval iterations.
  std::string checkpoint_path;
  int checkpoint_interval = 10;

  /// >1 partitions the operator across this many simulated ranks
  /// (shard/sharded_operator.hpp): per-shard row slices of A and A^T with
  /// precomputed halo-exchange plans and a comm/compute overlap pipeline,
  /// bitwise identical to num_shards == 1 for any value. The library's one
  /// partitioned operator. Part of the operator identity (opkey suffix
  /// "-sh<P>" when > 1). Supported for the Baseline/Buffered kernels at
  /// Fp32 with the full-pass solvers (no subset views).
  int num_shards = 1;
  /// Shard group size for the hierarchical two-level exchange; <= 1 keeps
  /// the flat single-round exchange. Only meaningful when num_shards > 1.
  int shard_group_size = 1;
  /// Pipeline tiles per sharded apply (exchange for tile t+1 posted while
  /// tile t computes); 0 = auto.
  int shard_pipeline_tiles = 0;
  /// Machine whose interconnect models communication time (Table 2 name).
  std::string machine = "Theta";
};

/// Single source of truth for configuration-combination support: throws
/// InvalidArgument for out-of-range scalar fields and the typed
/// UnsupportedConfigError for pairwise flag conflicts (shards+precision,
/// shards+kernel, kernel+precision, solver+shards, solver+kernel).
/// Called by the Reconstructor build path, serve admission, and the
/// autotuner's candidate pruning, so all three agree on what is legal.
void validate_config(const Config& config);

}  // namespace memxct::core
