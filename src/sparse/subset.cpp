#include "sparse/subset.hpp"

#include <omp.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"

namespace memxct::sparse {

std::vector<RowRange> make_subset_ranges(idx_t num_rows, int num_subsets,
                                         idx_t partsize) {
  if (num_rows < 1) throw InvalidArgument("make_subset_ranges: num_rows < 1");
  if (partsize < 1) throw InvalidArgument("make_subset_ranges: partsize < 1");
  if (num_subsets < 1)
    throw InvalidArgument("make_subset_ranges: num_subsets < 1");
  const idx_t numparts = std::max<idx_t>(1, ceil_div(num_rows, partsize));
  const auto k = static_cast<idx_t>(
      std::min<idx_t>(static_cast<idx_t>(num_subsets), numparts));
  std::vector<RowRange> ranges(static_cast<std::size_t>(k));
  for (idx_t s = 0; s < k; ++s) {
    // Even partition split at the ideal s/k boundaries; every subset gets at
    // least one partition because k <= numparts.
    const idx_t p0 = static_cast<idx_t>(
        (static_cast<std::int64_t>(numparts) * s) / k);
    const idx_t p1 = static_cast<idx_t>(
        (static_cast<std::int64_t>(numparts) * (s + 1)) / k);
    const idx_t r0 = p0 * partsize;
    const idx_t r1 = std::min<idx_t>(p1 * partsize, num_rows);
    ranges[static_cast<std::size_t>(s)] = RowRange{r0, r1 - r0};
  }
  return ranges;
}

void check_range_aligned(const RowRange& range, idx_t num_rows,
                         idx_t partsize) {
  if (partsize < 1) throw InvalidArgument("subset range: partsize < 1");
  if (range.count < 1) throw InvalidArgument("subset range: empty range");
  if (range.first < 0 || range.last() > num_rows)
    throw InvalidArgument("subset range: out of [0, num_rows)");
  if (range.first % partsize != 0)
    throw InvalidArgument(
        "subset range: first row not on a partition boundary");
  if (range.last() != num_rows && range.count % partsize != 0)
    throw InvalidArgument(
        "subset range: last row not on a partition boundary");
}

// ---------------------------------------------------------------------------
// Forward row ranges.
// ---------------------------------------------------------------------------

void spmv_csr_range(const CsrMatrix& a, idx_t partsize, const RowRange& range,
                    std::span<const real> x, std::span<real> y_sub) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == range.count);
  check_range_aligned(range, a.num_rows, partsize);
  const idx_t first = range.first;
  const idx_t last = range.last();
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y_sub.data();
#pragma omp parallel for schedule(dynamic, 128)
  for (idx_t i = first; i < last; i += partsize) {
    const idx_t end = i + partsize < last ? i + partsize : last;
    for (idx_t r = i; r < end; ++r) {
      // Strict scalar order, identical to spmv_csr: the subset result is
      // bitwise equal to rows [first, last) of a full apply.
      real acc = 0;
      for (nnz_t j = displ[r]; j < displ[r + 1]; ++j)
        acc += xp[ind[j]] * val[j];
      yp[r - first] = acc;
    }
  }
}

void spmv_csr_range_planned(const CsrMatrix& a, idx_t partsize,
                            const RowRange& range, const ApplyPlan& plan,
                            std::span<const real> x, std::span<real> y_sub) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == range.count);
  check_range_aligned(range, a.num_rows, partsize);
  MEMXCT_CHECK(plan.num_partitions() == ceil_div(range.count, partsize));
  const idx_t first = range.first;
  const idx_t last = range.last();
  const nnz_t* const displ = a.displ.data();
  const idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const real* const xp = x.data();
  real* const yp = y_sub.data();
  const int num_slots = plan.num_slots();

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part) {
        const idx_t r0 = std::min<idx_t>(first + part * partsize, last);
        const idx_t r1 = std::min<idx_t>(r0 + partsize, last);
        for (idx_t r = r0; r < r1; ++r) {
          real acc = 0;
          for (nnz_t j = displ[r]; j < displ[r + 1]; ++j)
            acc += xp[ind[j]] * val[j];
          yp[r - first] = acc;
        }
      }
    }
  }
}

void spmv_buffered_range(const BufferedMatrix& a, const RowRange& range,
                         std::span<const real> x, std::span<real> y_sub) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == range.count);
  check_range_aligned(range, a.num_rows, a.config.partsize);
  const idx_t partsize = a.config.partsize;
  const idx_t p0 = range.first / partsize;
  const idx_t p1 = p0 + ceil_div(range.count, partsize);
  const real* const xp = x.data();
  real* const yp = y_sub.data();

#pragma omp parallel
  {
    AlignedVector<real> input(static_cast<std::size_t>(a.config.buffsize));
    AlignedVector<real> output(static_cast<std::size_t>(partsize));
#pragma omp for schedule(dynamic)
    for (idx_t part = p0; part < p1; ++part)
      buffered_partition(a, part, xp, input.data(), output.data(), yp,
                         range.first, range.last());
  }
}

void spmv_buffered_range_planned(const BufferedMatrix& a,
                                 const RowRange& range, const ApplyPlan& plan,
                                 Workspace& ws, std::span<const real> x,
                                 std::span<real> y_sub) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == range.count);
  check_range_aligned(range, a.num_rows, a.config.partsize);
  const idx_t partsize = a.config.partsize;
  MEMXCT_CHECK(plan.num_partitions() == ceil_div(range.count, partsize));
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const idx_t p0 = range.first / partsize;
  const real* const xp = x.data();
  real* const yp = y_sub.data();
  const int num_slots = plan.num_slots();

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      const std::span<real> input_span = ws.input(s);
      const std::span<real> output_span = ws.output(s);
      MEMXCT_CHECK(static_cast<idx_t>(input_span.size()) >= a.config.buffsize);
      MEMXCT_CHECK(static_cast<idx_t>(output_span.size()) >= partsize);
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part)
        buffered_partition(a, p0 + part, xp, input_span.data(),
                           output_span.data(), yp, range.first, range.last());
    }
  }
}

// ---------------------------------------------------------------------------
// Transpose column ranges: CSR.
// ---------------------------------------------------------------------------

ColRangeIndex ColRangeIndex::build(const CsrMatrix& at,
                                   const RowRange& range) {
  MEMXCT_CHECK(range.count >= 1);
  MEMXCT_CHECK(range.first >= 0 && range.last() <= at.num_cols);
  ColRangeIndex ix;
  ix.range = range;
  ix.lo.resize(static_cast<std::size_t>(at.num_rows));
  ix.hi.resize(static_cast<std::size_t>(at.num_rows));
  nnz_t total = 0;
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (idx_t r = 0; r < at.num_rows; ++r) {
    // Columns are sorted within the row, so the in-range entries form one
    // contiguous run located by two binary searches.
    const idx_t* const begin = at.ind.data() + at.displ[r];
    const idx_t* const end = at.ind.data() + at.displ[r + 1];
    const idx_t* const lo = std::lower_bound(begin, end, range.first);
    const idx_t* const hi = std::lower_bound(lo, end, range.last());
    ix.lo[static_cast<std::size_t>(r)] =
        at.displ[r] + static_cast<nnz_t>(lo - begin);
    ix.hi[static_cast<std::size_t>(r)] =
        at.displ[r] + static_cast<nnz_t>(hi - begin);
    total += static_cast<nnz_t>(hi - lo);
  }
  ix.nnz_sub = total;
  return ix;
}

std::vector<nnz_t> colrange_partition_nnz(const ColRangeIndex& index,
                                          idx_t num_rows, idx_t partsize) {
  MEMXCT_CHECK(partsize > 0);
  MEMXCT_CHECK(static_cast<idx_t>(index.lo.size()) == num_rows);
  const idx_t numparts = std::max<idx_t>(1, ceil_div(num_rows, partsize));
  std::vector<nnz_t> weights(static_cast<std::size_t>(numparts), 0);
  for (idx_t r = 0; r < num_rows; ++r)
    weights[static_cast<std::size_t>(r / partsize)] +=
        index.hi[static_cast<std::size_t>(r)] -
        index.lo[static_cast<std::size_t>(r)];
  return weights;
}

namespace {

/// Shared per-row body of the CSR column-range kernels.
inline void csr_colrange_rows(const CsrMatrix& at, const ColRangeIndex& ix,
                              idx_t r0, idx_t r1, const real* yp, real* xp) {
  const idx_t* const ind = at.ind.data();
  const real* const val = at.val.data();
  const idx_t first = ix.range.first;
  for (idx_t r = r0; r < r1; ++r) {
    // Strict scalar order over the in-range run — the same relative order
    // those entries have in a full transpose apply.
    real acc = 0;
    const nnz_t lo = ix.lo[static_cast<std::size_t>(r)];
    const nnz_t hi = ix.hi[static_cast<std::size_t>(r)];
    for (nnz_t j = lo; j < hi; ++j) acc += yp[ind[j] - first] * val[j];
    xp[r] = acc;
  }
}

}  // namespace

void spmv_csr_colrange(const CsrMatrix& at, const ColRangeIndex& index,
                       std::span<const real> y_sub, std::span<real> x) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.lo.size()) == at.num_rows);
  const real* const yp = y_sub.data();
  real* const xp = x.data();
#pragma omp parallel for schedule(dynamic, 128)
  for (idx_t i = 0; i < at.num_rows; i += 128) {
    const idx_t end = std::min<idx_t>(i + 128, at.num_rows);
    csr_colrange_rows(at, index, i, end, yp, xp);
  }
}

void spmv_csr_colrange_planned(const CsrMatrix& at, idx_t partsize,
                               const ColRangeIndex& index,
                               const ApplyPlan& plan,
                               std::span<const real> y_sub,
                               std::span<real> x) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.lo.size()) == at.num_rows);
  MEMXCT_CHECK(partsize > 0);
  MEMXCT_CHECK(plan.num_partitions() ==
               std::max<idx_t>(1, ceil_div(at.num_rows, partsize)));
  const real* const yp = y_sub.data();
  real* const xp = x.data();
  const idx_t num_rows = at.num_rows;
  const int num_slots = plan.num_slots();

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part) {
        const idx_t r0 = std::min<idx_t>(part * partsize, num_rows);
        const idx_t r1 = std::min<idx_t>(r0 + partsize, num_rows);
        csr_colrange_rows(at, index, r0, r1, yp, xp);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transpose column ranges: buffered.
// ---------------------------------------------------------------------------

BufferedColRange BufferedColRange::build(const BufferedMatrix& at,
                                         const RowRange& range) {
  MEMXCT_CHECK(range.count >= 1);
  MEMXCT_CHECK(range.first >= 0 && range.last() <= at.num_cols);
  const idx_t numparts = at.num_partitions();
  const idx_t partsize = at.config.partsize;
  BufferedColRange ix;
  ix.range = range;
  ix.stage_begin.resize(static_cast<std::size_t>(numparts));
  ix.stage_end.resize(static_cast<std::size_t>(numparts));
  ix.part_nnz.assign(static_cast<std::size_t>(numparts), 0);
  nnz_t total = 0;
#pragma omp parallel for schedule(dynamic, 4) reduction(+ : total)
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t s0 = at.partdispl[static_cast<std::size_t>(p)];
    const idx_t s1 = at.partdispl[static_cast<std::size_t>(p) + 1];
    // map is ascending within the partition (sorted distinct columns chunked
    // into stages), so the in-range stages form one contiguous window.
    idx_t sb = s1, se = s0;
    for (idx_t s = s0; s < s1; ++s) {
      const nnz_t m0 = at.stagedispl[static_cast<std::size_t>(s)];
      const idx_t nz = at.stagenz[static_cast<std::size_t>(s)];
      if (nz == 0) continue;
      const idx_t stage_min = at.map[static_cast<std::size_t>(m0)];
      const idx_t stage_max = at.map[static_cast<std::size_t>(m0 + nz - 1)];
      if (stage_max >= range.first && stage_min < range.last()) {
        sb = std::min(sb, s);
        se = std::max(se, s + 1);
      }
    }
    if (sb >= se) {
      sb = s0;
      se = s0;
    }
    ix.stage_begin[static_cast<std::size_t>(p)] = sb;
    ix.stage_end[static_cast<std::size_t>(p)] = se;
    // In-range entry count: per stage, the footprint slots in [blo, bhi)
    // hold the in-range columns; each (stage, row) cell's ascending-`ind`
    // run is clipped to that slot interval.
    nnz_t part_total = 0;
    for (idx_t s = sb; s < se; ++s) {
      const nnz_t m0 = at.stagedispl[static_cast<std::size_t>(s)];
      const idx_t nz = at.stagenz[static_cast<std::size_t>(s)];
      const idx_t* const mp = at.map.data() + m0;
      const auto blo =
          static_cast<idx_t>(std::lower_bound(mp, mp + nz, range.first) - mp);
      const auto bhi =
          static_cast<idx_t>(std::lower_bound(mp, mp + nz, range.last()) - mp);
      const nnz_t dstart = static_cast<nnz_t>(s) * partsize;
      if (blo == 0 && bhi == nz) {
        part_total += at.displ[static_cast<std::size_t>(dstart + partsize)] -
                      at.displ[static_cast<std::size_t>(dstart)];
        continue;
      }
      for (idx_t j = 0; j < partsize; ++j) {
        const buf_idx_t* const ib =
            at.ind.data() + at.displ[static_cast<std::size_t>(dstart + j)];
        const buf_idx_t* const ie =
            at.ind.data() + at.displ[static_cast<std::size_t>(dstart + j + 1)];
        const auto* jlo =
            std::lower_bound(ib, ie, static_cast<buf_idx_t>(blo));
        const auto* jhi =
            std::lower_bound(jlo, ie, static_cast<buf_idx_t>(bhi));
        part_total += static_cast<nnz_t>(jhi - jlo);
      }
    }
    ix.part_nnz[static_cast<std::size_t>(p)] = part_total;
    total += part_total;
  }
  ix.nnz_sub = total;
  return ix;
}

namespace {

/// Shared per-partition body of the buffered column-range kernels: runs the
/// in-range stage window of partition `part` into `output`, then stores the
/// partition's rows (zero when the window is empty).
inline void buffered_colrange_partition(const BufferedMatrix& at,
                                        const BufferedColRange& ix,
                                        idx_t part, const real* yp,
                                        real* input, real* output, real* xp) {
  const idx_t partsize = at.config.partsize;
  const nnz_t* const stagedispl = at.stagedispl.data();
  const idx_t* const stagenz = at.stagenz.data();
  const idx_t* const map = at.map.data();
  const nnz_t* const displ = at.displ.data();
  const buf_idx_t* const ind = at.ind.data();
  const real* const val = at.val.data();
  const nnz_t nnz = at.nnz();
  const idx_t first = ix.range.first;
  const idx_t last = ix.range.last();

  std::fill(output, output + partsize, real{0});
  const idx_t sb = ix.stage_begin[static_cast<std::size_t>(part)];
  const idx_t se = ix.stage_end[static_cast<std::size_t>(part)];
  for (idx_t stage = sb; stage < se; ++stage) {
    const nnz_t mstart = stagedispl[stage];
    const idx_t nz = stagenz[stage];
    const idx_t* const mp = map + mstart;
    const auto blo =
        static_cast<idx_t>(std::lower_bound(mp, mp + nz, first) - mp);
    const auto bhi =
        static_cast<idx_t>(std::lower_bound(mp + blo, mp + nz, last) - mp);
    // Stage only the in-range footprint slots; slots outside [blo, bhi) are
    // left stale and the clipped inner runs below never address them.
#pragma omp simd
    for (idx_t i = blo; i < bhi; ++i) input[i] = yp[mp[i] - first];
    const nnz_t* const run = displ + static_cast<nnz_t>(stage) * partsize;
    const bool interior = blo == 0 && bhi == nz;
    for (idx_t j = 0; j < partsize; ++j) {
      nnz_t b = run[j];
      nnz_t e = run[j + 1];
      if (!interior) {
        // Boundary stage: clip the row's ascending-`ind` run to [blo, bhi).
        const buf_idx_t* const lo =
            std::lower_bound(ind + b, ind + e, static_cast<buf_idx_t>(blo));
        e = std::lower_bound(lo, ind + e, static_cast<buf_idx_t>(bhi)) - ind;
        b = lo - ind;
      }
      real acc = 0;
      for_each_in_run(ind, val, nnz, b, e,
                      [&](buf_idx_t slot, real v) { acc += input[slot] * v; });
      output[j] += acc;
    }
  }
  const idx_t rstart = part * partsize;
  const idx_t rows_here = std::min<idx_t>(partsize, at.num_rows - rstart);
#pragma omp simd
  for (idx_t i = 0; i < rows_here; ++i) xp[rstart + i] = output[i];
}

}  // namespace

void spmv_buffered_colrange(const BufferedMatrix& at,
                            const BufferedColRange& index,
                            std::span<const real> y_sub, std::span<real> x) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.stage_begin.size()) ==
               at.num_partitions());
  const idx_t numparts = at.num_partitions();
  const real* const yp = y_sub.data();
  real* const xp = x.data();

#pragma omp parallel
  {
    AlignedVector<real> input(static_cast<std::size_t>(at.config.buffsize));
    AlignedVector<real> output(static_cast<std::size_t>(at.config.partsize));
#pragma omp for schedule(dynamic)
    for (idx_t part = 0; part < numparts; ++part)
      buffered_colrange_partition(at, index, part, yp, input.data(),
                                  output.data(), xp);
  }
}

void spmv_buffered_colrange_planned(const BufferedMatrix& at,
                                    const BufferedColRange& index,
                                    const ApplyPlan& plan, Workspace& ws,
                                    std::span<const real> y_sub,
                                    std::span<real> x) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.stage_begin.size()) ==
               at.num_partitions());
  MEMXCT_CHECK(plan.num_partitions() == at.num_partitions());
  MEMXCT_CHECK(ws.num_slots() >= plan.num_slots());
  const real* const yp = y_sub.data();
  real* const xp = x.data();
  const int num_slots = plan.num_slots();

#pragma omp parallel
  {
    const int nthreads = omp_get_num_threads();
    for (int s = omp_get_thread_num(); s < num_slots; s += nthreads) {
      const std::span<real> input_span = ws.input(s);
      const std::span<real> output_span = ws.output(s);
      MEMXCT_CHECK(static_cast<idx_t>(input_span.size()) >=
                   at.config.buffsize);
      MEMXCT_CHECK(static_cast<idx_t>(output_span.size()) >=
                   at.config.partsize);
      for (idx_t part = plan.slot_begin(s); part < plan.slot_end(s); ++part)
        buffered_colrange_partition(at, index, part, yp, input_span.data(),
                                    output_span.data(), xp);
    }
  }
}

}  // namespace memxct::sparse
