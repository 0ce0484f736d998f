// Static nnz-balanced apply plans and persistent per-thread workspaces.
//
// Every kernel flavour iterates over row partitions (CSR chunks, ELL blocks,
// buffered partitions). The dynamic `schedule(dynamic)` loops rebalance those
// partitions across threads at every apply, which costs scheduler overhead,
// destroys cache/NUMA affinity between iterations, and makes the partition →
// thread assignment timing-dependent. An ApplyPlan fixes the assignment once
// at operator-construction time: a prefix sum over per-partition nnz is split
// into contiguous, nnz-balanced slot ranges, so every iteration of a solver
// runs the same partitions on the same thread and the output is
// bitwise-deterministic regardless of thread count or timing.
//
// A Workspace pairs with the plan: the per-thread staging/output buffers the
// buffered and ELL kernels need are allocated once (first-touch initialized
// by the owning thread, which places pages NUMA-locally) so apply() performs
// zero heap allocations.
#pragma once

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"

namespace memxct::sparse {

/// Per-slot load-balance summary of a plan, for the perf layer.
struct PlanStats {
  int num_slots = 0;
  nnz_t total_nnz = 0;
  nnz_t max_slot_nnz = 0;
  nnz_t min_slot_nnz = 0;

  /// max / mean slot load; 1.0 is a perfect split, values near 1 mean the
  /// static partition loses nothing to a dynamic schedule.
  [[nodiscard]] double imbalance() const noexcept {
    if (num_slots <= 0 || total_nnz <= 0) return 1.0;
    const double mean =
        static_cast<double>(total_nnz) / static_cast<double>(num_slots);
    return static_cast<double>(max_slot_nnz) / mean;
  }
};

/// Static partition → execution-slot assignment. Slot s owns the contiguous
/// partition range [slot_begin(s), slot_end(s)); executing thread t runs
/// slots t, t + nthreads, ... so the full plan executes correctly (and
/// produces identical output) even when fewer threads than slots are
/// available at apply time.
class ApplyPlan {
 public:
  ApplyPlan() = default;

  /// Splits partitions with the given nnz weights into `num_slots`
  /// contiguous ranges at the ideal prefix-sum targets k·total/num_slots.
  [[nodiscard]] static ApplyPlan build(std::span<const nnz_t> part_nnz,
                                       int num_slots);

  [[nodiscard]] int num_slots() const noexcept {
    return bounds_.empty() ? 0 : static_cast<int>(bounds_.size()) - 1;
  }
  [[nodiscard]] idx_t num_partitions() const noexcept {
    return bounds_.empty() ? 0 : bounds_.back();
  }
  [[nodiscard]] idx_t slot_begin(int s) const noexcept {
    return bounds_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] idx_t slot_end(int s) const noexcept {
    return bounds_[static_cast<std::size_t>(s) + 1];
  }
  [[nodiscard]] nnz_t slot_nnz(int s) const noexcept {
    return slot_nnz_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] PlanStats stats() const noexcept;

  /// Resident footprint of the plan itself (slot bounds + weights), for
  /// the operator-level byte accounting the serve registry budgets on.
  [[nodiscard]] std::int64_t bytes() const noexcept {
    return static_cast<std::int64_t>(bounds_.size() * sizeof(idx_t) +
                                     slot_nnz_.size() * sizeof(nnz_t));
  }

 private:
  std::vector<idx_t> bounds_;    ///< Slot s owns [bounds_[s], bounds_[s+1]).
  std::vector<nnz_t> slot_nnz_;  ///< nnz weight of each slot.
};

/// Persistent per-slot staging/output buffers. Constructed once per operator;
/// each slot's buffers are first-touch initialized inside a parallel region
/// by the thread that will execute the slot under the plan.
class Workspace {
 public:
  Workspace() = default;
  Workspace(int num_slots, idx_t input_capacity, idx_t output_capacity);

  [[nodiscard]] int num_slots() const noexcept {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] std::span<real> input(int s) noexcept {
    return slots_[static_cast<std::size_t>(s)].input;
  }
  [[nodiscard]] std::span<real> output(int s) noexcept {
    return slots_[static_cast<std::size_t>(s)].output;
  }
  [[nodiscard]] std::span<const real> input(int s) const noexcept {
    return slots_[static_cast<std::size_t>(s)].input;
  }
  [[nodiscard]] std::span<const real> output(int s) const noexcept {
    return slots_[static_cast<std::size_t>(s)].output;
  }

 private:
  struct SlotBuffers {
    AlignedVector<real> input;
    AlignedVector<real> output;
  };
  std::vector<SlotBuffers> slots_;
};

/// Per-partition nnz weights for each kernel form, the plan-build input.
/// Partition boundaries match the corresponding kernel's work units: row
/// chunks of `partsize` for CSR, blocks for ELL, staged partitions for the
/// buffered layout.
[[nodiscard]] std::vector<nnz_t> partition_nnz(const CsrMatrix& a,
                                               idx_t partsize);
[[nodiscard]] std::vector<nnz_t> partition_nnz(const EllBlockMatrix& a);
[[nodiscard]] std::vector<nnz_t> partition_nnz(const BufferedMatrix& a);

/// y = A·x, baseline CSR kernel over a static plan (partitions of `partsize`
/// rows, matching partition_nnz(a, partsize)). Allocation-free.
void spmv_csr_planned(const CsrMatrix& a, idx_t partsize,
                      const ApplyPlan& plan, std::span<const real> x,
                      std::span<real> y);

/// y = A·x over block-ELL slices with a static plan; `ws` provides the
/// per-slot accumulator (output capacity >= a.block_rows). Allocation-free.
void spmv_ell_planned(const EllBlockMatrix& a, const ApplyPlan& plan,
                      Workspace& ws, std::span<const real> x,
                      std::span<real> y);

/// y = A·x with the multi-stage buffered kernel over a static plan; `ws`
/// provides per-slot staging (input capacity >= buffsize) and output
/// (capacity >= partsize) buffers. Allocation-free.
void spmv_buffered_planned(const BufferedMatrix& a, const ApplyPlan& plan,
                           Workspace& ws, std::span<const real> x,
                           std::span<real> y);

}  // namespace memxct::sparse
