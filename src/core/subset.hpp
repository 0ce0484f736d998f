// Subset row-range views of the memoized operator.
//
// A SubsetOperatorView is a LinearOperator over the rows [first_row,
// first_row + num_rows) of a MemXCTOperator, sharing the parent's immutable
// Storage (no matrix duplication, no re-trace). Both directions run the
// parent's width-1 apply through a window (sparse/subset.hpp): the forward
// apply over the range's partitions, bitwise equal to the same rows of a
// full apply; the transpose apply over the stored transpose with runs
// clipped to the column range by indices precomputed at view-build time,
// costing O(nnz_subset) rather than O(nnz).
//
// Supported for the Buffered family at every value precision and the
// Baseline (CSR) family — the families the ordered-subsets solvers target.
// EllBlock and Library throw InvalidArgument from subset_view().
#pragma once

#include <memory>
#include <vector>

#include "core/operator.hpp"
#include "solve/operator.hpp"
#include "sparse/subset.hpp"

namespace memxct::core {

/// Row-range view created by MemXCTOperator::subset_view(). Holds a
/// shared_ptr keepalive on the parent's Storage plus private workspaces, so
/// views outlive the operator instance that made them and views on distinct
/// threads may apply concurrently (same contract as make_view()).
class SubsetOperatorView final : public solve::LinearOperator {
 public:
  [[nodiscard]] idx_t num_rows() const override { return range_.count; }
  [[nodiscard]] idx_t num_cols() const override { return num_cols_; }

  /// y_sub = A[range, :] · x; bitwise equal to rows [first_row, last) of the
  /// parent's apply().
  void apply(std::span<const real> x, std::span<real> y_sub) const override;
  /// x = A[range, :]^T · y_sub (full-length x; zero outside the subset's
  /// column support).
  void apply_transpose(std::span<const real> y_sub,
                       std::span<real> x) const override;

  [[nodiscard]] idx_t first_row() const noexcept { return range_.first; }
  [[nodiscard]] const sparse::RowRange& range() const noexcept {
    return range_;
  }
  /// In-range nonzeros (both directions store the same count).
  [[nodiscard]] nnz_t nnz() const noexcept { return nnz_sub_; }

 private:
  friend class MemXCTOperator;
  SubsetOperatorView() = default;

  std::shared_ptr<const void> keepalive_;  ///< Parent Storage.
  sparse::RowRange range_;
  idx_t num_cols_ = 0;
  nnz_t nnz_sub_ = 0;
  bool planned_ = false;

  // Exactly one family pair below is set, matching the parent's kind.
  const sparse::CsrMatrix* csr_fwd_ = nullptr;
  const sparse::CsrMatrix* csr_bwd_ = nullptr;
  const sparse::BufferedMatrix* buf_fwd_ = nullptr;
  const sparse::BufferedMatrix* buf_bwd_ = nullptr;

  // Column-range restriction of the stored transpose (one of the two).
  sparse::ColRangeIndex colrange_;
  sparse::BufferedColRange buf_colrange_;

  // StaticPlan state: fwd plan covers the in-range partitions, bwd plan all
  // transpose partitions weighted by in-range nnz. Workspaces are private
  // per view (buffered family only).
  sparse::ApplyPlan plan_fwd_, plan_bwd_;
  mutable sparse::Workspace ws_fwd_, ws_bwd_;
};

/// Partition-aligned subset views tiling [0, num_rows) for an ordered-
/// subsets sweep: `num_subsets` contiguous ranges (clamped to the partition
/// count), each behind the same apply interface. Union covers every row
/// exactly once.
[[nodiscard]] std::vector<std::unique_ptr<SubsetOperatorView>>
make_subset_views(const MemXCTOperator& op, int num_subsets);

}  // namespace memxct::core
