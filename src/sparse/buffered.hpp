// Multi-stage input-buffered SpMV (paper Listing 3 and Section 3.3).
//
// Rows are grouped into partitions of `partsize` rows. For each partition
// the distinct input (column) indices — its "data access footprint" — are
// collected in ordered-index order and split into stages of at most
// `buffsize` entries. The kernel then alternates:
//   1. staging: gather x[map[...]] into a small L1-resident buffer;
//   2. compute: per-row FMA loops addressing the buffer with 16-bit indices.
// Per-FMA regular traffic drops from 8 B (4 B index + 4 B value) to 6 B,
// the Section 3.3.5 bandwidth saving; the staging gather replaces scattered
// DRAM-latency-bound accesses with dense buffer reuse.
//
// Pseudo-Hilbert ordering is the enabler: it makes each partition's
// footprint a compact 2D region, so the distinct-column count per partition
// (and hence the number of stages) stays small.
#pragma once

#include <algorithm>
#include <span>

#include "perf/counters.hpp"
#include "sparse/csr.hpp"

namespace memxct::sparse {

/// Tuning parameters (the Fig 10 search space).
struct BufferConfig {
  idx_t partsize = 128;   ///< Rows per partition ("block size").
  idx_t buffsize = 4096;  ///< Buffer capacity in elements (4096 = 16 KB).
};

/// The memoized, staged matrix structure of Listing 3.
struct BufferedMatrix {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  BufferConfig config;

  std::vector<idx_t> partdispl;    ///< Per partition: first stage index.
  std::vector<nnz_t> stagedispl;   ///< Per stage: start into map.
  std::vector<idx_t> stagenz;      ///< Per stage: staged element count.
  AlignedVector<idx_t> map;        ///< Staged global x indices.
  AlignedVector<nnz_t> displ;      ///< Per (stage, row-in-partition) nonzero
                                   ///< range; laid out stage-major as in
                                   ///< Listing 3: displ[stage*partsize + j].
  AlignedVector<buf_idx_t> ind;    ///< 16-bit buffer-local indices.
  AlignedVector<real> val;         ///< Values, reordered stage-major.

  [[nodiscard]] idx_t num_partitions() const noexcept {
    return static_cast<idx_t>(partdispl.size()) - 1;
  }
  [[nodiscard]] idx_t num_stages() const noexcept {
    return static_cast<idx_t>(stagenz.size());
  }
  [[nodiscard]] nnz_t nnz() const noexcept {
    return static_cast<nnz_t>(ind.size());
  }
  /// Total staged words per apply (map traffic), for bandwidth accounting.
  [[nodiscard]] nnz_t total_staged() const noexcept {
    return static_cast<nnz_t>(map.size());
  }

  /// Structural validation (stage sizes, index bounds, coverage).
  void validate() const;
};

/// Matrix-stream prefetch (DESIGN.md §19). One core cannot keep enough
/// misses in flight to stream the matrix at DRAM rate, so the run walker
/// below asks for the stream a fixed distance ahead, once per chunk.
inline constexpr nnz_t kStreamChunk = 16;          ///< Entries per prefetch.
inline constexpr nnz_t kStreamPrefetchAhead = 512;  ///< Distance, in entries.

/// Walks the run [b, e) of a buffered matrix's (ind, val) stream of `nnz`
/// entries, calling f(ind[i], val[i]) for each i in strict ascending order,
/// so any sum the caller forms is bitwise that of the plain loop. The run
/// goes in kStreamChunk-entry chunks with one prefetch of `val` and `ind`
/// kStreamPrefetchAhead entries ahead per chunk (clamped to the last entry,
/// so no pointer leaves the arrays), then a scalar tail. Prefetching per
/// chunk rather than behind a per-entry branch keeps the entry loop clean.
template <class F>
inline void for_each_in_run(const buf_idx_t* ind, const real* val, nnz_t nnz,
                            nnz_t b, nnz_t e, F&& f) {
  nnz_t i = b;
  for (; e - i >= kStreamChunk; i += kStreamChunk) {
    const nnz_t ahead = std::min(i + kStreamPrefetchAhead, nnz - 1);
    __builtin_prefetch(val + ahead);
    __builtin_prefetch(ind + ahead);
    for (nnz_t k = i; k < i + kStreamChunk; ++k) f(ind[k], val[k]);
  }
  for (; i < e; ++i) f(ind[i], val[i]);
}

/// One partition of Listing 3, the body of every fp32 single-RHS buffered
/// kernel: stages each of partition `part`'s footprints from `x` into
/// `input` (buffsize entries), accumulates its rows into `output` (partsize
/// entries), then stores the rows inside the window [row_first, row_last)
/// to y[r - row_first]. Full applies pass [0, num_rows); subset views pass
/// their range, so their rows are bitwise equal to a full apply's.
inline void buffered_partition(const BufferedMatrix& a, idx_t part,
                               const real* x, real* input, real* output,
                               real* y, idx_t row_first, idx_t row_last) {
  const idx_t partsize = a.config.partsize;
  const idx_t* const partdispl = a.partdispl.data();
  const nnz_t* const stagedispl = a.stagedispl.data();
  const idx_t* const stagenz = a.stagenz.data();
  const idx_t* const map = a.map.data();
  const nnz_t* const displ = a.displ.data();
  const buf_idx_t* const ind = a.ind.data();
  const real* const val = a.val.data();
  const nnz_t nnz = a.nnz();

  std::fill(output, output + partsize, real{0});
  for (idx_t stage = partdispl[part]; stage < partdispl[part + 1]; ++stage) {
    // Staging: gather this stage's footprint into the L1 buffer.
    const idx_t* const mp = map + stagedispl[stage];
    const idx_t nz = stagenz[stage];
#pragma omp simd
    for (idx_t i = 0; i < nz; ++i) input[i] = x[mp[i]];
    // Compute: each partition row consumes its run for this stage. Strict
    // scalar order (no simd reduction): the multi-RHS kernels
    // (sparse/spmm.hpp) promise per-slice results bitwise equal to this
    // sum, which only holds if it is not reassociated. SIMD throughput is
    // recovered across slices on the block path instead.
    const nnz_t* const run = displ + static_cast<nnz_t>(stage) * partsize;
    for (idx_t j = 0; j < partsize; ++j) {
      real acc = 0;
      for_each_in_run(ind, val, nnz, run[j], run[j + 1],
                      [&](buf_idx_t slot, real v) { acc += input[slot] * v; });
      output[j] += acc;
    }
  }
  // Tail guard hoisted out of the store loop: full partitions take the
  // branchless full-width path, only the window's last partition truncates.
  const idx_t rstart = part * partsize;
  const idx_t rows_here = std::min<idx_t>(partsize, row_last - rstart);
  real* const yp = y + (rstart - row_first);
#pragma omp simd
  for (idx_t i = 0; i < rows_here; ++i) yp[i] = output[i];
}

/// Builds the staged structure from CSR. Requires buffsize <= 65536 (16-bit
/// buffer addressing) and partsize >= 1. OpenMP-parallel over partitions.
[[nodiscard]] BufferedMatrix build_buffered(const CsrMatrix& a,
                                            const BufferConfig& config = {});

/// y = A·x with the multi-stage buffered kernel (Listing 3).
void spmv_buffered(const BufferedMatrix& a, std::span<const real> x,
                   std::span<real> y);

/// Work accounting: nnz FMAs at 6 B/FMA plus staging traffic.
[[nodiscard]] perf::KernelWork buffered_work(const BufferedMatrix& a);

}  // namespace memxct::sparse
