#include "core/subset.hpp"

#include "common/error.hpp"

namespace memxct::core {

void SubsetOperatorView::apply(std::span<const real> x,
                               std::span<real> y_sub) const {
  const sparse::Schedule sched =
      planned_ ? sparse::Schedule{&plan_fwd_, &ws_fwd_} : sparse::Schedule{};
  if (csr_fwd_ != nullptr)
    sparse::apply(*csr_fwd_, range_, sched, x, y_sub);
  else
    sparse::apply(*buf_fwd_, range_, sched, x, y_sub);
}

void SubsetOperatorView::apply_transpose(std::span<const real> y_sub,
                                         std::span<real> x) const {
  const sparse::Schedule sched =
      planned_ ? sparse::Schedule{&plan_bwd_, &ws_bwd_} : sparse::Schedule{};
  if (csr_bwd_ != nullptr)
    sparse::apply(*csr_bwd_, colrange_, sched, y_sub, x);
  else
    sparse::apply(*buf_bwd_, buf_colrange_, sched, y_sub, x);
}

std::vector<std::unique_ptr<SubsetOperatorView>> make_subset_views(
    const MemXCTOperator& op, int num_subsets) {
  const auto ranges = sparse::make_subset_ranges(op.num_rows(), num_subsets,
                                                 op.row_partition_size());
  std::vector<std::unique_ptr<SubsetOperatorView>> views;
  views.reserve(ranges.size());
  for (const auto& r : ranges) views.push_back(op.subset_view(r.first, r.count));
  return views;
}

}  // namespace memxct::core
