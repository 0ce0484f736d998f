// The apply-kernel bodies: one lane-templated body per index layout (CSR
// rows, staged runs) and the runners that put them under the partition
// driver of sparse/plan.hpp. Included only by the memxct_sparse translation
// units that define apply() (spmm.cpp, subset.cpp), so every instance is
// compiled with the target's -ffp-contract=off; other libraries call the
// entry points.
//
// A storage family plugs in through walkers that visit its streams in stored
// order: index decoding (plain, or clipped to a column range) and
// value decoding (fp32, bf16, fp16; a template argument, sparse/precision.hpp)
// happen inside them, so the arithmetic — strict per-lane j-order,
// `acc += x * v` — is written once below.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/spmm.hpp"
#include "sparse/subset.hpp"

namespace memxct::sparse::detail {

/// Shape check of every apply: 1 <= k <= kMaxBlockWidth; a width-1 apply
/// takes vectors of exactly the matrix's sizes, a block's interleaved
/// vectors may be padded past n·k.
inline void check_shape(idx_t num_rows, idx_t num_cols, idx_t k,
                        std::span<const real> x, std::span<real> y) {
  MEMXCT_CHECK_MSG(k >= 1 && k <= kMaxBlockWidth,
                   "block width out of [1, kMaxBlockWidth]");
  const auto n = static_cast<std::size_t>(num_cols) * k;
  const auto m = static_cast<std::size_t>(num_rows) * k;
  MEMXCT_CHECK(k == 1 ? x.size() == n : x.size() >= n);
  MEMXCT_CHECK(k == 1 ? y.size() == m : y.size() >= m);
}

/// Partitions of `partsize` rows a row window covers (at least one, so an
/// empty matrix still has the one partition its plan was built for).
[[nodiscard]] inline idx_t window_partitions(const RowRange& rows,
                                             idx_t partsize) {
  return std::max<idx_t>(1, ceil_div(rows.count, partsize));
}

/// Calls f(integral_constant<idx_t, L>) with L = 1 for k = 1 and
/// L = kMaxBlockWidth otherwise: the CSR body's lane count.
template <class F>
inline void with_csr_lanes(idx_t k, F&& f) {
  if (k == 1)
    f(std::integral_constant<idx_t, 1>{});
  else
    f(std::integral_constant<idx_t, kMaxBlockWidth>{});
}

/// The CSR-row body: rows [r0, r1), row r stored to y[(r - r0)·k + s].
/// walk(r, add) calls add(col, v) for row r's entries in stored order. x is
/// read in place at stride k, so lanes past k do not exist: the lane loops
/// run to k, L only sizes the accumulator, and L = 1 pins them to one lane.
template <idx_t L, class Walk>
inline void csr_rows(idx_t r0, idx_t r1, idx_t k, const real* x, real* y,
                     Walk&& walk) {
  const auto kk = static_cast<std::size_t>(L == 1 ? 1 : k);
  for (idx_t r = r0; r < r1; ++r) {
    real acc[L];
    for (std::size_t s = 0; s < kk; ++s) acc[s] = 0;
    walk(r, [&](idx_t col, real v) {
      const real* const xr = x + static_cast<std::size_t>(col) * kk;
#pragma omp simd
      for (std::size_t s = 0; s < kk; ++s) acc[s] += xr[s] * v;
    });
    real* const yr = y + static_cast<std::size_t>(r - r0) * kk;
    for (std::size_t s = 0; s < kk; ++s) yr[s] = acc[s];
  }
}

/// Runs csr_rows<L> over the `partsize`-row partitions covering `rows` (a
/// partition-aligned window of a num_rows-row matrix) under `sched`; row r
/// goes to y[(r - rows.first)·k]. walker(part) returns partition part's
/// row walker.
template <idx_t L, class Walker>
void run_csr_rows(const RowRange& rows, idx_t num_rows, idx_t partsize,
                  const Schedule& sched, idx_t k, const real* x, real* y,
                  Walker&& walker) {
  const idx_t part0 = rows.first / partsize;
  for_each_partition(
      window_partitions(rows, partsize), sched, {},
      [&](idx_t p, real*, real*) {
        const idx_t r0 = std::min<idx_t>((part0 + p) * partsize, num_rows);
        const idx_t r1 = std::min<idx_t>(r0 + partsize, num_rows);
        csr_rows<L>(r0, r1, k, x,
                    y + static_cast<std::size_t>(r0 - rows.first) * k,
                    walker(part0 + p));
      });
}

/// Row walker factory of a plain CSR matrix.
inline auto csr_runs(const CsrMatrix& a) {
  return [displ = a.displ.data(), ind = a.ind.data(),
          val = a.val.data()](idx_t) {
    return [=](idx_t r, auto&& add) {
      for (nnz_t j = displ[r]; j < displ[r + 1]; ++j) add(ind[j], val[j]);
    };
  };
}

/// The staged-run body: stages [s0, s1) of one partition of `partsize`
/// rows, its first `nrows` rows stored to y[i·k + s]. gather(stage, put)
/// calls put(i, col) for the stage's footprint entries i (col indexes x);
/// walk(stage, j, add) calls add(slot, v) for row j's run in stream order.
/// `input` holds the staged footprint at stride L (buffsize·L), `output` the
/// row sums at stride L (partsize·L). Lanes k..L-1 are staged as zeros and
/// never stored; at L = 1 staging is the plain gather input[i] = x[col].
/// Every lane loop but the store runs to the constant L (DESIGN.md §20).
template <idx_t L, class Gather, class Walk>
inline void staged_rows(idx_t partsize, idx_t s0, idx_t s1, idx_t nrows,
                        idx_t k, const real* x, real* y, real* input,
                        real* output, Gather&& gather, Walk&& walk) {
  const auto kk = static_cast<std::size_t>(L == 1 ? 1 : k);
  std::fill(output, output + static_cast<std::size_t>(partsize) * L, real{0});
  for (idx_t stage = s0; stage < s1; ++stage) {
    // Staging: one map entry serves all k lanes; the gathered x values
    // themselves stay per-lane (see the traffic model in perf/counters.hpp).
    gather(stage, [&](idx_t i, idx_t col) {
      const real* const src = x + static_cast<std::size_t>(col) * kk;
      real* const dst = input + static_cast<std::size_t>(i) * L;
      if (kk == L) {  // no padding: a plain fixed-width copy
        for (idx_t s = 0; s < L; ++s) dst[s] = src[s];
      } else {
        for (idx_t s = 0; s < L; ++s)
          dst[s] = static_cast<std::size_t>(s) < kk ? src[s] : real{0};
      }
    });
    for (idx_t j = 0; j < partsize; ++j) {
      real acc[L] = {};
      walk(stage, j, [&](idx_t slot, real v) {
        const real* const xr = input + static_cast<std::size_t>(slot) * L;
        // Unrolled outright, the L lanes become one vector expression per
        // entry. Left a loop (an omp simd one included), GCC's
        // unroll-and-jam swaps it with the walker's entry loop and keeps
        // acc in memory. 64 == kMaxBlockWidth.
#pragma GCC unroll 64
        for (idx_t s = 0; s < L; ++s) acc[s] += xr[s] * v;
      });
      real* const out = output + static_cast<std::size_t>(j) * L;
#pragma omp simd
      for (idx_t s = 0; s < L; ++s) out[s] += acc[s];
    }
  }
  for (idx_t i = 0; i < nrows; ++i) {
    real* const yr = y + static_cast<std::size_t>(i) * kk;
    const real* const out = output + static_cast<std::size_t>(i) * L;
    for (std::size_t s = 0; s < kk; ++s) yr[s] = out[s];
  }
}

/// Runs staged_rows<L> over the partitions of a staged layout (`config`,
/// num_rows rows) covering the partition-aligned window `rows` under
/// `sched`; row r goes to y[(r - rows.first)·k]. partition(part, body)
/// calls body(s0, s1, gather, walk) with partition part's stage range and
/// stream walkers, so walkers may share per-partition decode state.
template <idx_t L, class Partition>
void run_staged(const RowRange& rows, idx_t num_rows,
                const BufferConfig& config, const Schedule& sched, idx_t k,
                const real* x, real* y, Partition&& partition) {
  const idx_t partsize = config.partsize;
  const idx_t part0 = rows.first / partsize;
  const Scratch need{config.buffsize * L, partsize * L};
  for_each_partition(
      window_partitions(rows, partsize), sched, need,
      [&](idx_t p, real* input, real* output) {
        const idx_t r0 = (part0 + p) * partsize;
        real* const yr = y + static_cast<std::size_t>(r0 - rows.first) * k;
        const idx_t nrows = std::min<idx_t>(partsize, num_rows - r0);
        partition(part0 + p, [&](idx_t s0, idx_t s1, auto&& gather,
                                 auto&& walk) {
          staged_rows<L>(partsize, s0, s1, nrows, k, x, yr, input, output,
                         gather, walk);
        });
      });
}

/// Stream walkers of a buffered matrix whose values Vals decodes:
/// footprints from `map`, runs through the prefetching for_each_in_run
/// (DESIGN.md §19, §21).
template <class Vals>
inline auto buffered_runs(const BufferedMatrix& a) {
  return [&a](idx_t part, auto&& body) {
    const idx_t partsize = a.config.partsize;
    const nnz_t* const stagedispl = a.stagedispl.data();
    const idx_t* const stagenz = a.stagenz.data();
    const idx_t* const map = a.map.data();
    const nnz_t* const displ = a.displ.data();
    const buf_idx_t* const ind = a.ind.data();
    const auto* const val = Vals::of(a);
    const nnz_t nnz = a.nnz();
    body(
        a.partdispl[static_cast<std::size_t>(part)],
        a.partdispl[static_cast<std::size_t>(part) + 1],
        [&](idx_t stage, auto&& put) {
          const idx_t* const mp = map + stagedispl[stage];
          for (idx_t i = 0; i < stagenz[stage]; ++i) put(i, mp[i]);
        },
        [&](idx_t stage, idx_t j, auto&& add) {
          const nnz_t* const run = displ + static_cast<nnz_t>(stage) * partsize;
          for_each_in_run<Vals>(ind, val, nnz, run[j], run[j + 1], add);
        });
  };
}

}  // namespace memxct::sparse::detail
