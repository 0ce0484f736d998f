// Subset row-range windows over the memoized operator's stored matrices.
//
// Ordered-subsets solvers (solve/os.hpp) sweep row subsets of the forward
// matrix A. Because rows live in pseudo-Hilbert ordered space, a subset is a
// contiguous ordered-row range aligned to the kernel's existing partition
// boundaries (kCsrPartsize row chunks for CSR, staged partitions for the
// buffered layout) — consecutive ordered rows are geometrically nearby rays,
// so sweeping ranges in bit-reversed order approximates the classic
// interleaved-angle subset schedule. A subset is not separate kernel code:
// the forward window runs the width-1 apply of sparse/spmm.hpp over the
// range's partitions only, so its result is bitwise equal to the
// corresponding rows of a full apply — no matrix duplication, no re-trace.
//
// The transpose direction cannot slice rows (the stored transpose is
// indexed by columns of A), so it is a *column-range* filter over the
// stored transpose matrix: the same width-1 apply with index walkers that
// clip each run to the range. Both storage layouts keep columns sorted —
// CSR rows are column-sorted, and the buffered footprint `map` is
// ascending within each partition — so the in-range entries of every row
// (or stage) form one contiguous run that is located once at view-build
// time. Cost per subset transpose apply is O(nnz_sub + rows), not O(nnz).
#pragma once

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"
#include "sparse/plan.hpp"

namespace memxct::sparse {

/// Contiguous row range [first, first + count) in ordered row space.
struct RowRange {
  idx_t first = 0;
  idx_t count = 0;

  [[nodiscard]] idx_t last() const noexcept { return first + count; }
};

/// Splits [0, num_rows) into `num_subsets` contiguous ranges aligned to
/// `partsize` partition boundaries (the last range absorbs the tail).
/// Clamps the subset count to the number of partitions so every returned
/// range is non-empty; the union covers every row exactly once. Throws
/// InvalidArgument for num_rows < 1, partsize < 1, or num_subsets < 1.
[[nodiscard]] std::vector<RowRange> make_subset_ranges(idx_t num_rows,
                                                       int num_subsets,
                                                       idx_t partsize);

/// Validates that `range` is non-empty, within [0, num_rows), starts on a
/// `partsize` boundary, and ends on one (or at num_rows). Throws
/// InvalidArgument otherwise. All subset kernels require this alignment —
/// it is what lets them reuse the full kernels' partition structure.
void check_range_aligned(const RowRange& range, idx_t num_rows,
                         idx_t partsize);

/// y_sub = A[rows, :] · x, y_sub holding rows.count entries: the width-1
/// apply over the partitions of `rows` only, bitwise equal to rows
/// [first, last) of a full apply. A planned `sched` covers the in-range
/// partitions only (partition_nnz(a) sliced to them); a buffered plan needs
/// apply_scratch(a, 1) per workspace slot.
void apply(const CsrMatrix& a, const RowRange& rows, const Schedule& sched,
           std::span<const real> x, std::span<real> y_sub,
           idx_t partsize = kCsrPartsize);
void apply(const BufferedMatrix& a, const RowRange& rows,
           const Schedule& sched, std::span<const real> x,
           std::span<real> y_sub);

// ---------------------------------------------------------------------------
// Transpose direction: x = A[range, :]^T · y_sub, computed as a column-range
// filter over the stored transpose matrix At (columns of At = rows of A).
// The output is the full-length x; rows of At with no in-range entries are
// written as zero.
// ---------------------------------------------------------------------------

/// Per-row contiguous entry runs of At restricted to columns [first, last):
/// columns are sorted within each CSR row, so the in-range entries of row r
/// are exactly [lo[r], hi[r]). Built once per subset view by binary search
/// (O(rows · log nnz/row)); applies then touch only nnz_sub entries.
struct ColRangeIndex {
  RowRange range;               ///< Column range in At (= A's row range).
  AlignedVector<nnz_t> lo, hi;  ///< Per At row: in-range entry run.
  nnz_t nnz_sub = 0;            ///< Total in-range entries.

  [[nodiscard]] static ColRangeIndex build(const CsrMatrix& at,
                                           const RowRange& range);
};

/// Per-partition nnz weights of the column-range restriction, partitioned in
/// `partsize` row chunks of At — the plan-build input for the planned
/// column-range kernel (same partition granularity as the full kernel).
[[nodiscard]] std::vector<nnz_t> colrange_partition_nnz(
    const ColRangeIndex& index, idx_t num_rows, idx_t partsize);

/// x = At[:, range] · y_sub over the precomputed runs, y_sub indexed
/// relative to range.first (length range.count). A planned `sched` covers
/// ALL At partitions (weights from colrange_partition_nnz), so
/// out-of-range partitions cost only the zero store of their rows.
void apply(const CsrMatrix& at, const ColRangeIndex& index,
           const Schedule& sched, std::span<const real> y_sub,
           std::span<real> x, idx_t partsize = kCsrPartsize);

/// Column-range restriction of a buffered transpose matrix. The staged
/// footprint `map` is ascending within each partition (sorted distinct
/// columns, chunked into stages), so the in-range stages of partition p form
/// one contiguous window [stage_begin[p], stage_end[p]); only the window's
/// first and last stage can be partially in range. Those boundary stages are
/// clipped once here: their in-range footprint slots and every row's
/// clipped run are stored, so applies walk them without searching. Interior
/// stages walk their runs unclipped.
struct BufferedColRange {
  /// A partially in-range stage: footprint slots [blo, bhi) hold the
  /// in-range columns.
  struct Clip {
    idx_t stage = 0;
    idx_t blo = 0, bhi = 0;
  };

  RowRange range;                 ///< Column range (global x indices in map).
  std::vector<idx_t> stage_begin; ///< Per partition: first in-range stage.
  std::vector<idx_t> stage_end;   ///< Per partition: one past last in-range.
  std::vector<nnz_t> part_nnz;    ///< Per partition: in-range entries (plan
                                  ///< weights for the planned kernel).
  std::vector<idx_t> clip_begin;  ///< Per partition: its first clip; one
                                  ///< more entry closes the last partition.
  std::vector<Clip> clips;        ///< Boundary stages, by ascending stage.
  AlignedVector<nnz_t> clip_runs; ///< Clip c, row j: the run [b, e) of
                                  ///< in-range entries at 2·(c·partsize + j).
  nnz_t nnz_sub = 0;              ///< Total in-range entries.

  [[nodiscard]] static BufferedColRange build(const BufferedMatrix& at,
                                              const RowRange& range);
};

/// x = At[:, range] · y_sub with the staged apply restricted to the
/// precomputed stage windows. A planned `sched` covers ALL At partitions
/// (weights = part_nnz) with apply_scratch(at, 1) per workspace slot.
void apply(const BufferedMatrix& at, const BufferedColRange& index,
           const Schedule& sched, std::span<const real> y_sub,
           std::span<real> x);

}  // namespace memxct::sparse
