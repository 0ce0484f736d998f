#include "sparse/subset.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/kernels.hpp"

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
// Forward row ranges: the width-1 apply over the range's partitions.
// ---------------------------------------------------------------------------

void apply(const CsrMatrix& a, const RowRange& rows, const Schedule& sched,
           std::span<const real> x, std::span<real> y_sub, idx_t partsize) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == rows.count);
  check_range_aligned(rows, a.num_rows, partsize);
  detail::run_csr_rows<1>(rows, a.num_rows, partsize, sched, 1, x.data(),
                          y_sub.data(), detail::csr_runs(a));
}

void apply(const BufferedMatrix& a, const RowRange& rows,
           const Schedule& sched, std::span<const real> x,
           std::span<real> y_sub) {
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == a.num_cols);
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == rows.count);
  check_range_aligned(rows, a.num_rows, a.config.partsize);
  with_values(a.storage, [&](auto vals) {
    detail::run_staged<1>(rows, a.num_rows, a.config, sched, 1, x.data(),
                          y_sub.data(),
                          detail::buffered_runs<decltype(vals)>(a));
  });
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

void apply(const CsrMatrix& at, const ColRangeIndex& index,
           const Schedule& sched, std::span<const real> y_sub,
           std::span<real> x, idx_t partsize) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.lo.size()) == at.num_rows);
  MEMXCT_CHECK(partsize > 0);
  const idx_t* const ind = at.ind.data();
  const real* const val = at.val.data();
  const idx_t first = index.range.first;
  // Each row's in-range run, in the relative order those entries have in a
  // full transpose apply, with columns shifted into y_sub.
  const auto runs = [&](idx_t) {
    return [&](idx_t r, auto&& add) {
      for (nnz_t j = index.lo[static_cast<std::size_t>(r)];
           j < index.hi[static_cast<std::size_t>(r)]; ++j)
        add(ind[j] - first, val[j]);
    };
  };
  detail::run_csr_rows<1>(RowRange{0, at.num_rows}, at.num_rows, partsize,
                          sched, 1, y_sub.data(), x.data(), runs);
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
  ix.clip_begin.assign(static_cast<std::size_t>(numparts) + 1, 0);
  // A stage's footprint is ascending, so its two ends tell whether all of
  // it lies in the range.
  const auto partial = [&](idx_t s) {
    const nnz_t m0 = at.stagedispl[static_cast<std::size_t>(s)];
    const idx_t nz = at.stagenz[static_cast<std::size_t>(s)];
    return nz > 0 && (at.map[static_cast<std::size_t>(m0)] < range.first ||
                      at.map[static_cast<std::size_t>(m0 + nz - 1)] >=
                          range.last());
  };

  // Pass 1: each partition's in-range stage window (map is ascending within
  // the partition, so the in-range stages are contiguous) and its count of
  // boundary stages.
#pragma omp parallel for schedule(dynamic, 4)
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t s0 = at.partdispl[static_cast<std::size_t>(p)];
    const idx_t s1 = at.partdispl[static_cast<std::size_t>(p) + 1];
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
    idx_t n = 0;
    if (se > sb) n = partial(sb) + (se - 1 > sb && partial(se - 1));
    ix.clip_begin[static_cast<std::size_t>(p) + 1] = n;
  }
  for (idx_t p = 0; p < numparts; ++p)
    ix.clip_begin[static_cast<std::size_t>(p) + 1] +=
        ix.clip_begin[static_cast<std::size_t>(p)];
  ix.clips.resize(static_cast<std::size_t>(ix.clip_begin.back()));
  ix.clip_runs.resize(ix.clips.size() * static_cast<std::size_t>(partsize) *
                      2);

  // Pass 2: clip the boundary stages and count in-range entries. Per clip,
  // footprint slots [blo, bhi) hold the in-range columns, and each
  // (stage, row) cell's ascending-`ind` run is clipped to that interval.
  nnz_t total = 0;
#pragma omp parallel for schedule(dynamic, 4) reduction(+ : total)
  for (idx_t p = 0; p < numparts; ++p) {
    auto c =
        static_cast<std::size_t>(ix.clip_begin[static_cast<std::size_t>(p)]);
    nnz_t part_total = 0;
    for (idx_t s = ix.stage_begin[static_cast<std::size_t>(p)];
         s < ix.stage_end[static_cast<std::size_t>(p)]; ++s) {
      const nnz_t* const run =
          at.displ.data() + static_cast<nnz_t>(s) * partsize;
      if (!partial(s)) {
        part_total += run[partsize] - run[0];
        continue;
      }
      const idx_t* const mp =
          at.map.data() + at.stagedispl[static_cast<std::size_t>(s)];
      const idx_t nz = at.stagenz[static_cast<std::size_t>(s)];
      Clip& clip = ix.clips[c];
      clip.stage = s;
      clip.blo =
          static_cast<idx_t>(std::lower_bound(mp, mp + nz, range.first) - mp);
      clip.bhi = static_cast<idx_t>(
          std::lower_bound(mp + clip.blo, mp + nz, range.last()) - mp);
      nnz_t* const out = ix.clip_runs.data() + c * partsize * 2;
      for (idx_t j = 0; j < partsize; ++j) {
        const buf_idx_t* const ib = at.ind.data() + run[j];
        const buf_idx_t* const ie = at.ind.data() + run[j + 1];
        const buf_idx_t* const lo =
            std::lower_bound(ib, ie, static_cast<buf_idx_t>(clip.blo));
        const buf_idx_t* const hi =
            std::lower_bound(lo, ie, static_cast<buf_idx_t>(clip.bhi));
        out[2 * j] = lo - at.ind.data();
        out[2 * j + 1] = hi - at.ind.data();
        part_total += hi - lo;
      }
      ++c;
    }
    ix.part_nnz[static_cast<std::size_t>(p)] = part_total;
    total += part_total;
  }
  ix.nnz_sub = total;
  return ix;
}

void apply(const BufferedMatrix& at, const BufferedColRange& index,
           const Schedule& sched, std::span<const real> y_sub,
           std::span<real> x) {
  MEMXCT_CHECK(static_cast<idx_t>(y_sub.size()) == index.range.count);
  MEMXCT_CHECK(static_cast<idx_t>(x.size()) == at.num_rows);
  MEMXCT_CHECK(static_cast<idx_t>(index.stage_begin.size()) ==
               at.num_partitions());
  const idx_t partsize = at.config.partsize;
  const nnz_t* const stagedispl = at.stagedispl.data();
  const idx_t* const stagenz = at.stagenz.data();
  const idx_t* const map = at.map.data();
  const nnz_t* const displ = at.displ.data();
  const buf_idx_t* const ind = at.ind.data();
  const nnz_t nnz = at.nnz();
  const idx_t first = index.range.first;
  // Only the partition's in-range stage window runs (an empty window stores
  // zero rows). A boundary stage stages its clipped slots and walks the
  // stored clipped runs; an interior stage walks its runs whole.
  with_values(at.storage, [&](auto vals) {
    using Vals = decltype(vals);
    const auto* const val = Vals::of(at);
    const auto runs = [&](idx_t part, auto&& body) {
      std::size_t c = static_cast<std::size_t>(
          index.clip_begin[static_cast<std::size_t>(part)]);
      const nnz_t* clipped = nullptr;  // the current stage's clipped runs
      body(
          index.stage_begin[static_cast<std::size_t>(part)],
          index.stage_end[static_cast<std::size_t>(part)],
          [&](idx_t stage, auto&& put) {
            const idx_t* const mp = map + stagedispl[stage];
            idx_t blo = 0, bhi = stagenz[stage];
            clipped = nullptr;
            if (c < index.clips.size() && index.clips[c].stage == stage) {
              blo = index.clips[c].blo;
              bhi = index.clips[c].bhi;
              clipped = index.clip_runs.data() + c * partsize * 2;
              ++c;
            }
            // Slots outside [blo, bhi) are left stale; the clipped runs
            // never address them.
            for (idx_t i = blo; i < bhi; ++i) put(i, mp[i] - first);
          },
          [&](idx_t stage, idx_t j, auto&& add) {
            // Either way run[0], run[1] bound the row's run.
            const nnz_t* const run =
                clipped != nullptr
                    ? clipped + 2 * j
                    : displ + static_cast<nnz_t>(stage) * partsize + j;
            for_each_in_run<Vals>(ind, val, nnz, run[0], run[1], add);
          });
    };
    detail::run_staged<1>(RowRange{0, at.num_rows}, at.num_rows, at.config,
                          sched, 1, y_sub.data(), x.data(), runs);
  });
}

}  // namespace memxct::sparse
