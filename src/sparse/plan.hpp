// Static nnz-balanced apply plans, persistent per-thread workspaces, and the
// one partition driver every partitioned apply kernel runs under.
//
// Every kernel iterates over row partitions (CSR chunks, ELL blocks,
// buffered partitions). for_each_partition below is the only place that
// hands them to threads, in one of two modes:
//   * dynamic (no plan): `schedule(dynamic)` over the partitions, with
//     per-thread scratch allocated inside the parallel region;
//   * planned: an ApplyPlan fixes the assignment once at operator
//     construction. A prefix sum over per-partition nnz is split into
//     contiguous, nnz-balanced slot ranges, so every iteration of a solver
//     runs the same partitions on the same thread and the output is
//     bitwise-deterministic regardless of thread count or timing.
//
// A Workspace pairs with the plan: the per-slot staging/output buffers the
// buffered and ELL kernels need are allocated once (first-touch initialized
// by the owning thread, which places pages NUMA-locally) so apply() performs
// zero heap allocations. The driver checks the workspace against the
// kernel's Scratch before it opens the parallel region, so an undersized
// workspace throws InvariantError to the caller.
#pragma once

#include <omp.h>

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"

namespace memxct::sparse {

/// Default row-partition size of the CSR kernels; plans for them
/// (partition_nnz below) partition with the same granularity.
inline constexpr idx_t kCsrPartsize = 128;

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
                                               idx_t partsize = kCsrPartsize);
[[nodiscard]] std::vector<nnz_t> partition_nnz(const EllBlockMatrix& a);
[[nodiscard]] std::vector<nnz_t> partition_nnz(const BufferedMatrix& a);

/// Per-slot scratch, in reals, that one partition of a kernel needs: a
/// staging buffer (`input`) and a row-sum buffer (`output`).
struct Scratch {
  idx_t input = 0;
  idx_t output = 0;
};

/// How a partitioned kernel is scheduled: dynamically when `plan` is null,
/// otherwise over `plan` with each slot's buffers taken from `ws` (unused,
/// and may be null or slot-less, when the kernel needs no scratch).
struct Schedule {
  const ApplyPlan* plan = nullptr;
  Workspace* ws = nullptr;
};

/// Throws InvariantError unless `plan` covers `numparts` partitions and, when
/// `need` is non-empty, `ws` gives each of the plan's slots at least `need`.
void check_planned(const ApplyPlan& plan, idx_t numparts, const Workspace* ws,
                   const Scratch& need);

/// The partition driver: calls body(part, input, output) once for every
/// part in [0, numparts), where input/output point at `need.input` and
/// `need.output` reals of scratch private to the executing thread. Planned,
/// slot s runs on thread s mod nthreads with its Workspace buffers; dynamic,
/// `schedule(dynamic)` hands out partitions one at a time. This holds the
/// only parallel region of the partitioned apply kernels; the body must not
/// throw.
template <class Body>
void for_each_partition(idx_t numparts, const Schedule& sched,
                        const Scratch& need, Body&& body) {
  if (sched.plan == nullptr) {
#pragma omp parallel
    {
      AlignedVector<real> input(static_cast<std::size_t>(need.input));
      AlignedVector<real> output(static_cast<std::size_t>(need.output));
#pragma omp for schedule(dynamic)
      for (idx_t part = 0; part < numparts; ++part)
        body(part, input.data(), output.data());
    }
    return;
  }
  const ApplyPlan& plan = *sched.plan;
  check_planned(plan, numparts, sched.ws, need);
  // Slot buffers are taken only when the kernel needs scratch: only then
  // has check_planned vouched for the workspace's slots.
  Workspace* const ws =
      need.input > 0 || need.output > 0 ? sched.ws : nullptr;
  const int num_slots = plan.num_slots();
#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      real* const input = ws != nullptr ? ws->input(s).data() : nullptr;
      real* const output = ws != nullptr ? ws->output(s).data() : nullptr;
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part)
        body(part, input, output);
    }
  }
}

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
