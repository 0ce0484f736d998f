// Sharded forward/backprojection: the library's one partitioned operator,
// built on the dual-domain factorization A = R·C·A_p (paper Section 3.4.3,
// extended per Petascale XCT) behind the LinearOperator interface.
//
// P simulated shards each own one contiguous sinogram row range and one
// contiguous tomogram row range. The paper's forward projection computes
// partial sinogram sums per rank and reduces them at the owner (R·C);
// shard::reduce_traffic counts that traffic for the paper benches. This
// operator instead runs owner-computes in BOTH directions: a shard computes
// every output row it owns, over a column-compacted row slice of A
// (forward) or A^T (backprojection), cut from the serial build's staged
// pair for the buffered kernel, and the exchange C moves exact *input
// copies* (halo duplication, the paper's backprojection strategy) instead
// of partial sums. Every floating-point accumulation therefore happens wholly
// inside one shard, in the serial kernel's order — which is what buys the
// serving stack bitwise parity with the P=1 operator for any P, kernel
// family, and SpMM width (reductions of FP partials would reassociate).
//
// Shard and pipeline-tile cuts snap to the local kernel's row-partition
// size (shard/partition.hpp), so the buffered kernel's stage structure —
// hence its per-row accumulation grouping — is identical to the serial
// build. Exchanges are precomputed plans (shard/plan.hpp), optionally
// hierarchical (group proxies deduplicate inter-group halo traffic — the
// two-level reduction tree of Petascale XCT run in the duplication
// direction), and pipelined: the exchange for tile t+1 is posted before
// tile t's compute, with the modeled comm/compute overlap reported in
// ShardApplyStats. Network bytes and messages are exact (dist::SimComm);
// wall time for the network is the α–β model of the target machine.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dist/partition.hpp"
#include "dist/simmpi.hpp"
#include "perf/machine_model.hpp"
#include "shard/plan.hpp"
#include "solve/operator.hpp"
#include "solve/solver.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::shard {

/// Local kernel each shard runs on its row slices. shard/ keeps its own
/// enum so it never depends on core/ (core constructs ShardedOperator, not
/// the other way around).
enum class LocalKernel {
  BaselineCsr,  ///< Listing 2 per shard.
  Buffered,     ///< Listing 3 multi-stage buffering per shard.
};

/// Per-view accumulated apply statistics. Compute times are max-over-shards
/// per tile (the SPMD wall time); comm is the modeled α–β exchange time;
/// overlap_saved is the portion of comm hidden behind compute by the
/// tile pipeline (min(comm of prefetched tile, compute of current tile)).
struct ShardApplyStats {
  std::int64_t applies = 0;
  double compute_seconds = 0.0;      ///< Max-over-shards local kernel time.
  double compute_sum_seconds = 0.0;  ///< Total single-core kernel work.
  /// MEASURED exchange time: the timed per-round copy blocks of the actual
  /// in-process data movement (SimComm's measured tier).
  double comm_seconds = 0.0;
  /// The same exchanges' α–β model cost on the configured machine, kept
  /// alongside the measurement so model-vs-measured skew is observable
  /// (bench_shard_scaling reports it).
  double comm_modeled_seconds = 0.0;
  double overlap_saved_seconds = 0.0;
  std::int64_t cancel_polls = 0;
  std::int64_t depipelined_tiles = 0;  ///< Prefetches skipped after a
                                       ///< cancel/deadline poll fired.

  /// Wall seconds: compute plus the comm the pipeline failed to hide.
  [[nodiscard]] double total() const noexcept {
    return compute_seconds + comm_seconds - overlap_saved_seconds;
  }
  void reset() noexcept { *this = ShardApplyStats{}; }
};

class ShardedOperator final : public solve::LinearOperator {
 public:
  struct Options {
    int num_shards = 2;
    LocalKernel kernel = LocalKernel::Buffered;
    sparse::BufferConfig buffer;
    /// > 1 enables the hierarchical two-level exchange with groups of this
    /// many consecutive shards (first member is the group proxy).
    int group_size = 1;
    /// Pipeline tiles per apply; 0 picks min(4, max shard partition count).
    int pipeline_tiles = 0;
    perf::MachineSpec machine = perf::machine("Theta");
  };

  /// Builds the shard tiles of both directions plus the exchange plans.
  /// `a` is the full operator in ordered index space — the same matrix the
  /// serial MemXCTOperator memoizes. Buffered: the constructor below on
  /// build_buffered(a, opt.buffer). BaselineCsr: row slices of `a` and of
  /// its CSR transpose.
  ShardedOperator(const sparse::CsrMatrix& a, const Options& opt);

  /// Buffered only: builds from A's fp32 staged forward, staged in
  /// opt.buffer (geometry::build_projection_buffered or build_buffered).
  /// The backward is staged from it (sparse::build_buffered_transpose) and
  /// every tile is cut from the pair (sparse::cut_partitions), which each
  /// cut consumes, so no CSR A or A^T exists during the build and its peak
  /// is forward + backward + one tile in flight per thread.
  ShardedOperator(sparse::BufferedMatrix fwd, const Options& opt);

  [[nodiscard]] idx_t num_rows() const override { return num_rows_; }
  [[nodiscard]] idx_t num_cols() const override { return num_cols_; }

  void apply(std::span<const real> x, std::span<real> y) const override;
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override;
  void apply_block(std::span<const real> x, std::span<real> y,
                   idx_t k) const override;
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             idx_t k) const override;

  /// Shares the immutable shard structure (matrices, plans); the view gets
  /// fresh communication buffers and statistics, so worker threads can
  /// apply concurrently.
  [[nodiscard]] std::unique_ptr<ShardedOperator> make_view() const;

  [[nodiscard]] int num_shards() const noexcept;
  [[nodiscard]] int pipeline_tiles() const noexcept;

  /// Total resident bytes across shards (matrices + plans) — the registry's
  /// eviction currency.
  [[nodiscard]] std::int64_t bytes() const;
  /// One shard's resident bytes (both directions) — the per-rank accounting
  /// the serve metrics report; max over ranks shows the 1/P scaling.
  [[nodiscard]] std::int64_t rank_bytes(int shard) const;

  /// Cumulative exact network statistics for one shard (this view).
  [[nodiscard]] const perf::CommStats& rank_comm_stats(int shard) const {
    return comm_.total_stats(shard);
  }

  /// Installs the token polled between pipeline tiles (nullptr clears).
  /// Applies always complete — output correctness is unconditional — but
  /// once the token fires the pipeline stops prefetching exchanges, so the
  /// apply winds down without posting speculative communication.
  void set_cancel_token(const solve::CancelToken* token) noexcept {
    cancel_ = token;
  }

  [[nodiscard]] const ShardApplyStats& stats() const noexcept { return stats_; }
  /// Const because solves see `const LinearOperator&`, and stats are
  /// apply-side scratch, not operator identity.
  void reset_stats() const noexcept {
    stats_.reset();
    comm_.reset_stats();
  }

  [[nodiscard]] const ExchangePlan& forward_plan() const;
  [[nodiscard]] const ExchangePlan& transpose_plan() const;
  [[nodiscard]] const dist::DomainPartition& sino_partition() const;
  [[nodiscard]] const dist::DomainPartition& tomo_partition() const;

  /// The simulated interconnect of THIS view (validation, fault hooks).
  [[nodiscard]] dist::SimComm& comm() noexcept { return comm_; }

 private:
  /// One shard × pipeline-tile row slice with columns compacted to the
  /// shard's footprint (monotone remap — per-row entry order preserved).
  /// An empty tile holds no matrix.
  struct TileBlock {
    idx_t row_begin = 0;  ///< Global row of the slice's first row.
    idx_t rows = 0;
    sparse::CsrMatrix local;          ///< LocalKernel::BaselineCsr.
    sparse::BufferedMatrix buffered;  ///< LocalKernel::Buffered.
  };

  /// Everything one apply direction needs. Aggregate (DomainPartition has
  /// no default constructor; sides are built with aggregate init).
  struct Side {
    dist::DomainPartition rows;  ///< Output-row ownership.
    std::vector<std::vector<idx_t>> footprint;  ///< [shard] sorted input ids.
    std::vector<std::vector<TileBlock>> tiles;  ///< [shard][tile].
    ExchangePlan plan;
  };

  struct Storage {
    Options opt;
    idx_t num_rows;
    idx_t num_cols;
    int tiles;  ///< Resolved pipeline tile count.
    Side fwd;   ///< Rows = sinogram (from A).
    Side bwd;   ///< Rows = tomogram (from A^T).
    std::vector<std::int64_t> rank_bytes;
  };

  /// Per-view mutable exchange scratch for one direction.
  struct SideState {
    std::vector<AlignedVector<real>> x_local;  ///< [shard] footprint values.
    std::vector<AlignedVector<real>> staging;  ///< [shard] proxy buffers.
    std::vector<AlignedVector<real>> send;
    std::vector<AlignedVector<real>> recv;
    /// Plan send_displ scaled by the current block width (k=1 uses the
    /// plan's own arrays; SimComm charges element counts, so k-wide lanes
    /// are billed k× automatically).
    std::vector<std::vector<std::vector<nnz_t>>> scaled_displ;
    idx_t scaled_k = 0;
    AlignedVector<real> y_tile;  ///< Interleaved SpMM tile output scratch.
  };

  explicit ShardedOperator(std::shared_ptr<const Storage> storage);

  [[nodiscard]] static std::shared_ptr<const Storage> build_storage(
      const sparse::CsrMatrix& a, Options opt);
  [[nodiscard]] static std::shared_ptr<const Storage> build_storage(
      sparse::BufferedMatrix fwd, Options opt);
  /// Cuts one direction's tiles from `m` (a CsrMatrix for BaselineCsr, a
  /// BufferedMatrix rvalue for Buffered, consumed block by block) and plans
  /// its exchange.
  template <class Matrix>
  [[nodiscard]] static Side build_side(Matrix&& m,
                                       dist::DomainPartition rows,
                                       const dist::DomainPartition& input_owner,
                                       const Options& opt, idx_t partsize,
                                       int tiles);
  /// Fills the per-rank byte counts.
  [[nodiscard]] static std::shared_ptr<const Storage> finish_storage(
      Storage st);

  /// Gathers self-owned entries and returns the resolved tile count.
  void gather_self(const Side& side, SideState& state, std::span<const real> x,
                   idx_t k, idx_t n) const;
  /// Runs all rounds of tile `t`'s exchange; returns modeled seconds.
  double run_exchange(const Side& side, SideState& state,
                      std::span<const real> x, idx_t k, idx_t n, int t) const;
  /// The shared pipelined executor; k = 1 runs the SpMV kernels, k > 1 the
  /// interleaved SpMM kernels with slab (de)interleaving at the edges.
  void pipelined_apply(const Side& side, SideState& state,
                       std::span<const real> x, std::span<real> y, idx_t k,
                       idx_t n, idx_t m) const;

  std::shared_ptr<const Storage> storage_;
  idx_t num_rows_;
  idx_t num_cols_;
  const solve::CancelToken* cancel_ = nullptr;
  mutable dist::SimComm comm_;
  mutable SideState fwd_state_;
  mutable SideState bwd_state_;
  mutable ShardApplyStats stats_;
};

}  // namespace memxct::shard
