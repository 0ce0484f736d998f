#include "sparse/plan.hpp"

#include <omp.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/spmm.hpp"

namespace memxct::sparse {

ApplyPlan ApplyPlan::build(std::span<const nnz_t> part_nnz, int num_slots) {
  MEMXCT_CHECK(num_slots >= 1);
  const auto numparts = static_cast<idx_t>(part_nnz.size());
  ApplyPlan plan;
  plan.bounds_.resize(static_cast<std::size_t>(num_slots) + 1);
  plan.slot_nnz_.resize(static_cast<std::size_t>(num_slots));

  std::vector<nnz_t> prefix(static_cast<std::size_t>(numparts) + 1, 0);
  for (idx_t p = 0; p < numparts; ++p) {
    MEMXCT_CHECK(part_nnz[static_cast<std::size_t>(p)] >= 0);
    prefix[static_cast<std::size_t>(p) + 1] =
        prefix[static_cast<std::size_t>(p)] +
        part_nnz[static_cast<std::size_t>(p)];
  }
  const nnz_t total = prefix.back();

  plan.bounds_[0] = 0;
  plan.bounds_[static_cast<std::size_t>(num_slots)] = numparts;
  for (int s = 1; s < num_slots; ++s) {
    // First partition boundary whose prefix reaches the ideal s/num_slots
    // share; clamped monotone so slots stay contiguous and disjoint.
    const nnz_t target =
        static_cast<nnz_t>((static_cast<double>(total) * s) / num_slots);
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    const auto cut = static_cast<idx_t>(it - prefix.begin());
    plan.bounds_[static_cast<std::size_t>(s)] = std::clamp<idx_t>(
        cut, plan.bounds_[static_cast<std::size_t>(s) - 1], numparts);
  }
  for (int s = 0; s < num_slots; ++s)
    plan.slot_nnz_[static_cast<std::size_t>(s)] =
        prefix[static_cast<std::size_t>(
            plan.bounds_[static_cast<std::size_t>(s) + 1])] -
        prefix[static_cast<std::size_t>(
            plan.bounds_[static_cast<std::size_t>(s)])];
  return plan;
}

PlanStats ApplyPlan::stats() const noexcept {
  PlanStats st;
  st.num_slots = num_slots();
  if (st.num_slots == 0) return st;
  st.min_slot_nnz = slot_nnz_.front();
  for (const nnz_t w : slot_nnz_) {
    st.total_nnz += w;
    st.max_slot_nnz = std::max(st.max_slot_nnz, w);
    st.min_slot_nnz = std::min(st.min_slot_nnz, w);
  }
  return st;
}

Workspace::Workspace(int num_slots, idx_t input_capacity,
                     idx_t output_capacity) {
  MEMXCT_CHECK(num_slots >= 0);
  MEMXCT_CHECK(input_capacity >= 0 && output_capacity >= 0);
  slots_.resize(static_cast<std::size_t>(num_slots));
  // First-touch: each slot's buffers are allocated and zero-filled by the
  // thread that will execute the slot under the round-robin slot → thread
  // map, placing the pages on that thread's NUMA node.
#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      auto& buffers = slots_[static_cast<std::size_t>(s)];
      buffers.input.assign(static_cast<std::size_t>(input_capacity), real{0});
      buffers.output.assign(static_cast<std::size_t>(output_capacity),
                            real{0});
    }
  }
}

std::vector<nnz_t> partition_nnz(const CsrMatrix& a, idx_t partsize) {
  MEMXCT_CHECK(partsize > 0);
  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));
  std::vector<nnz_t> weights(static_cast<std::size_t>(numparts));
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t r0 = std::min<idx_t>(p * partsize, a.num_rows);
    const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
    weights[static_cast<std::size_t>(p)] = a.displ[r1] - a.displ[r0];
  }
  return weights;
}

std::vector<nnz_t> partition_nnz(const EllBlockMatrix& a) {
  std::vector<nnz_t> weights(static_cast<std::size_t>(a.num_blocks()));
  for (idx_t b = 0; b < a.num_blocks(); ++b)
    weights[static_cast<std::size_t>(b)] =
        a.block_displ[static_cast<std::size_t>(b) + 1] -
        a.block_displ[static_cast<std::size_t>(b)];
  return weights;
}

std::vector<nnz_t> partition_nnz(const BufferedMatrix& a) {
  const idx_t partsize = a.config.partsize;
  std::vector<nnz_t> weights(static_cast<std::size_t>(a.num_partitions()));
  for (idx_t p = 0; p < a.num_partitions(); ++p) {
    // A partition's entries span one contiguous run of the stage-major
    // layout, bounded by its first and one-past-last stage rows.
    const auto cell0 = static_cast<std::size_t>(
                           a.partdispl[static_cast<std::size_t>(p)]) *
                       partsize;
    const auto cell1 = static_cast<std::size_t>(
                           a.partdispl[static_cast<std::size_t>(p) + 1]) *
                       partsize;
    weights[static_cast<std::size_t>(p)] = a.displ[cell1] - a.displ[cell0];
  }
  return weights;
}

void check_planned(const ApplyPlan& plan, idx_t numparts, const Workspace* ws,
                   const Scratch& need) {
  MEMXCT_CHECK_MSG(plan.num_partitions() == numparts,
                   "plan does not cover the kernel's partitions");
  if (need.input == 0 && need.output == 0) return;
  MEMXCT_CHECK_MSG(ws != nullptr && ws->num_slots() >= plan.num_slots(),
                   "workspace has fewer slots than the plan");
  for (int s = 0; s < plan.num_slots(); ++s)
    MEMXCT_CHECK_MSG(
        static_cast<idx_t>(ws->input(s).size()) >= need.input &&
            static_cast<idx_t>(ws->output(s).size()) >= need.output,
        "workspace slot is smaller than the kernel's scratch");
}

void spmv_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, std::span<const real> x,
                      std::span<real> y) {
  apply(a, {&plan}, 1, x, y, partsize);
}

void spmv_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, std::span<const real> x,
                      std::span<real> y) {
  apply(a, {&plan, &ws}, 1, x, y);
}

void spmv_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, std::span<const real> x,
                           std::span<real> y) {
  apply(a, {&plan, &ws}, 1, x, y);
}

}  // namespace memxct::sparse
