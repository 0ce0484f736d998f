// Serial memoized operator: forward/backprojection as explicit SpMV with a
// selectable kernel flavour.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "perf/counters.hpp"
#include "solve/operator.hpp"
#include "sparse/buffered.hpp"
#include "sparse/plan.hpp"

namespace memxct::core {

class MemXCTOperator;
class SubsetOperatorView;

/// Scratch for one block-apply width: the interleaved (slice-major) vector
/// images of the per-slice slabs, plus staging/output buffers for the
/// planned kernels (sparse::apply_scratch at width k: k wide for ELL,
/// sparse::block_lanes(k) wide for Buffered). Created by
/// MemXCTOperator::make_block_workspace(k) and reusable across applies of
/// the same width; pack/unpack between the caller's per-slice slabs and the
/// interleaved layout happens inside apply_block via common/interleave.hpp.
class BlockWorkspace {
 public:
  BlockWorkspace() = default;

  /// Block width this workspace was sized for (0 = default-constructed).
  [[nodiscard]] idx_t width() const noexcept { return k_; }

  /// Per-slot planned-kernel buffers of each direction (slot-less unless
  /// the operator runs a StaticPlan ELL or Buffered kernel).
  [[nodiscard]] const sparse::Workspace& forward_buffers() const noexcept {
    return ws_fwd_;
  }
  [[nodiscard]] const sparse::Workspace& transpose_buffers() const noexcept {
    return ws_bwd_;
  }

 private:
  friend class MemXCTOperator;

  idx_t k_ = 0;
  AlignedVector<real> x_interleaved_;  ///< num_cols · k, padded.
  AlignedVector<real> y_interleaved_;  ///< num_rows · k, padded.
  sparse::Workspace ws_fwd_, ws_bwd_;  ///< Per-slot kernel buffers.
};

/// Owns the forward matrix A (and its transpose) in whichever storage the
/// configured kernel needs, and dispatches apply/apply_transpose to it.
///
/// Under ScheduleKind::StaticPlan (the default) construction also builds an
/// nnz-balanced static execution plan per direction plus persistent
/// per-thread workspaces, so every apply is allocation-free, runs the same
/// partitions on the same threads, and produces bitwise-identical output
/// independent of thread count.
///
/// The matrices and plans are immutable after construction and held behind a
/// shared pointer; the workspaces are the only mutable per-instance scratch.
/// Concurrent applies on ONE instance are therefore not supported (solvers
/// apply serially), but make_view() produces additional instances that share
/// the storage while owning private workspaces — one view per worker thread
/// gives safe concurrent applies with zero matrix duplication (the batch
/// engine's amortization contract).
class MemXCTOperator final : public solve::LinearOperator {
 public:
  /// Takes the ordered-space forward matrix; builds the transpose and any
  /// derived (ELL / buffered) structures, then releases storage the chosen
  /// kernel does not need. A non-Fp32 `precision` keeps the buffered layout
  /// with bf16/fp16 values (sparse::compress_buffered); combining it with
  /// any kernel but Buffered throws InvalidArgument.
  MemXCTOperator(sparse::CsrMatrix a, KernelKind kind,
                 const sparse::BufferConfig& buffer = {},
                 idx_t ell_block_rows = 64,
                 ScheduleKind schedule = ScheduleKind::StaticPlan,
                 sparse::ValueStorage precision = sparse::ValueStorage::Fp32);
  /// A Buffered operator from its fp32 buffered forward (as
  /// geometry::build_projection_buffered traces it, or build_buffered
  /// stages it): the backward is staged from it in its final precision, in
  /// the forward's BufferConfig, and the forward is then compressed to
  /// `precision`. The CSR constructor's Buffered branch is build_buffered
  /// followed by this one.
  explicit MemXCTOperator(
      sparse::BufferedMatrix fwd,
      ScheduleKind schedule = ScheduleKind::StaticPlan,
      sparse::ValueStorage precision = sparse::ValueStorage::Fp32);
  ~MemXCTOperator() override;

  // Movable (storage is shared, workspaces transfer); not copyable — use
  // make_view() for a second instance with private workspaces.
  MemXCTOperator(MemXCTOperator&&) noexcept = default;
  MemXCTOperator& operator=(MemXCTOperator&&) noexcept = default;

  /// A second operator sharing this one's immutable matrices and plans but
  /// owning private apply workspaces. Cost: workspace allocation only (no
  /// matrix copy). Views from distinct threads may apply concurrently.
  [[nodiscard]] std::unique_ptr<MemXCTOperator> make_view() const;

  /// Row-partition granularity of the stored forward matrix: kCsrPartsize
  /// for Baseline, the buffer partsize for Buffered. Subset row ranges must
  /// align to it. Throws InvalidArgument for kinds without subset support
  /// (EllBlock, Library).
  [[nodiscard]] idx_t row_partition_size() const;

  /// Row-range view over rows [first_row, first_row + num_rows) behind the
  /// same apply interface (core/subset.hpp): shares this operator's Storage
  /// (keepalive, no matrix copy), slices the forward matrix by existing
  /// partitions, and filters the stored transpose by column range through
  /// indices built here once. The range must align to row_partition_size().
  /// Supported for Buffered and Baseline; throws InvalidArgument otherwise.
  [[nodiscard]] std::unique_ptr<SubsetOperatorView> subset_view(
      idx_t first_row, idx_t num_rows) const;

  [[nodiscard]] idx_t num_rows() const override;
  [[nodiscard]] idx_t num_cols() const override;

  void apply(std::span<const real> x, std::span<real> y) const override;
  void apply_transpose(std::span<const real> y,
                       std::span<real> x) const override;

  /// Workspace for apply_block at width k (1 <= k <= sparse::kMaxBlockWidth).
  [[nodiscard]] BlockWorkspace make_block_workspace(idx_t k) const;

  /// Fused multi-RHS applies: slices arrive/leave as contiguous per-slice
  /// slabs (LinearOperator layout); internally they are interleaved
  /// slice-major so the SpMM kernels stream each nonzero once per
  /// ws.width() slices. Per slice the result is bitwise identical to
  /// apply()/apply_transpose() — same plans, same accumulation order.
  void apply_block(std::span<const real> x, std::span<real> y,
                   BlockWorkspace& ws) const;
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             BlockWorkspace& ws) const;

  /// LinearOperator overrides: same as above through an internally cached
  /// workspace (lazily rebuilt when k changes). Concurrent applies on one
  /// instance are not supported (class contract above); use explicit
  /// workspaces or per-thread views when in doubt.
  void apply_block(std::span<const real> x, std::span<real> y,
                   idx_t k) const override;
  void apply_transpose_block(std::span<const real> y, std::span<real> x,
                             idx_t k) const override;

  [[nodiscard]] KernelKind kind() const noexcept;
  [[nodiscard]] ScheduleKind schedule() const noexcept;
  [[nodiscard]] sparse::ValueStorage precision() const noexcept;
  [[nodiscard]] nnz_t nnz() const noexcept;

  /// Load-balance summaries of the static plans (empty when the kernel has
  /// no planned path, e.g. Library, or schedule is Dynamic).
  [[nodiscard]] sparse::PlanStats forward_plan_stats() const noexcept;
  [[nodiscard]] sparse::PlanStats transpose_plan_stats() const noexcept;

  /// Work accounting of one forward apply (for GFLOPS / bandwidth).
  [[nodiscard]] perf::KernelWork forward_work() const;
  /// Work accounting of one backprojection (the transpose direction).
  [[nodiscard]] perf::KernelWork transpose_work() const;

  /// Total regular-data bytes held (both directions), the Table 3 metric.
  /// Views share this storage; the bytes are not duplicated per view.
  [[nodiscard]] std::int64_t regular_bytes() const noexcept;

  /// Resident footprint of the shared Storage: matrix data (regular_bytes)
  /// plus both static apply plans. This is the quantity the serve-layer
  /// OperatorRegistry budgets against — it is paid once per geometry no
  /// matter how many views exist (views add only workspace scratch).
  [[nodiscard]] std::int64_t bytes() const noexcept;

 private:
  /// Immutable post-construction state: matrices in kernel storage plus the
  /// static plans. Shared (not copied) across views.
  struct Storage;

  explicit MemXCTOperator(std::shared_ptr<const Storage> storage);
  /// Storage of each public constructor.
  static std::shared_ptr<const Storage> build_storage(
      sparse::CsrMatrix a, KernelKind kind, const sparse::BufferConfig& buffer,
      idx_t ell_block_rows, ScheduleKind schedule,
      sparse::ValueStorage precision);
  static std::shared_ptr<const Storage> build_storage(
      sparse::BufferedMatrix fwd, ScheduleKind schedule,
      sparse::ValueStorage precision);
  /// Sums the matrix bytes and builds the static plans of a Storage whose
  /// matrices are in place.
  static void finish_storage(Storage& s);
  /// The planned-kernel buffers of one direction at width k (empty unless
  /// the schedule is StaticPlan and the kernel stages or accumulates).
  [[nodiscard]] sparse::Workspace make_workspace(bool transpose,
                                                 idx_t k) const;
  /// The one kernel dispatch: the width-k apply of the forward matrix, or of
  /// the stored transpose, with `ws` as the planned slots' buffers.
  void run(bool transpose, sparse::Workspace& ws, idx_t k,
           std::span<const real> in, std::span<real> out) const;
  /// run() on per-slice slabs, interleaved through `ws`.
  void run_block(bool transpose, std::span<const real> in,
                 std::span<real> out, BlockWorkspace& ws) const;

  std::shared_ptr<const Storage> store_;
  // Apply-time scratch, persistent so apply() never allocates; mutable
  // because LinearOperator::apply is const (see class comment on reentrancy).
  mutable sparse::Workspace ws_fwd_, ws_bwd_;
  // Lazily built scratch for the virtual apply_block path, rebuilt when the
  // requested width changes (same reentrancy caveat as above).
  mutable std::unique_ptr<BlockWorkspace> block_ws_;
};

}  // namespace memxct::core
