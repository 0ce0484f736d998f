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
// DRAM-latency-bound accesses with dense buffer reuse. Values may also be
// held in 16 bits (bf16 or fp16, compress_buffered): 4 B/FMA, same index
// streams, same walk, values widened to fp32 as they are read.
//
// Pseudo-Hilbert ordering is the enabler: it makes each partition's
// footprint a compact 2D region, so the distinct-column count per partition
// (and hence the number of stages) stays small.
#pragma once

#include <algorithm>
#include <span>

#include "perf/counters.hpp"
#include "sparse/csr.hpp"
#include "sparse/footprint.hpp"
#include "sparse/precision.hpp"

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
  UninitVector<idx_t> map;         ///< Staged global x indices.
  UninitVector<nnz_t> displ;       ///< Per (stage, row-in-partition) nonzero
                                   ///< range; laid out stage-major as in
                                   ///< Listing 3: displ[stage*partsize + j].
  UninitVector<buf_idx_t> ind;     ///< 16-bit buffer-local indices.
  UninitVector<real> val;          ///< Values, reordered stage-major, when
                                   ///< storage == Fp32.
  UninitVector<std::uint16_t> val16;  ///< The same values as bf16/fp16
                                      ///< bits otherwise.
  ValueStorage storage = ValueStorage::Fp32;

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

  /// Structural validation: partition count, monotone partdispl,
  /// stagedispl and displ within their arrays, stage sizes, map bounds.
  /// Linear in stages·partsize + staged words, not in nnz.
  void validate() const;
  /// Checks that every 16-bit slot lies below its stage's stagenz, so an
  /// apply reads only staged buffer entries. O(nnz): run where untrusted
  /// bytes come in (io::load_buffered), after validate().
  void validate_slots() const;
};

/// Matrix-stream prefetch (DESIGN.md §19). One core cannot keep enough
/// misses in flight to stream the matrix at DRAM rate, so the run walker
/// below asks for the stream a fixed distance ahead, once per chunk.
inline constexpr nnz_t kStreamChunk = 16;          ///< Entries per prefetch.
inline constexpr nnz_t kStreamPrefetchAhead = 512;  ///< Distance, in entries.

/// Walks the run [b, e) of a buffered matrix's (ind, val) stream of `nnz`
/// entries, calling f(ind[i], Vals::decode(val[i])) for each i in strict
/// ascending order, so any sum the caller forms is bitwise that of the plain
/// loop. `val` is the stored value array and Vals its decoder
/// (sparse/precision.hpp). The run goes in kStreamChunk-entry chunks with one
/// prefetch of `val` and `ind` kStreamPrefetchAhead entries ahead per chunk
/// (clamped to the last entry, so no pointer leaves the arrays), then a
/// scalar tail. Prefetching per chunk rather than behind a per-entry branch
/// keeps the entry loop clean.
template <class Vals = Fp32Values, class V, class F>
inline void for_each_in_run(const buf_idx_t* ind, const V* val, nnz_t nnz,
                            nnz_t b, nnz_t e, F&& f) {
  nnz_t i = b;
  for (; e - i >= kStreamChunk; i += kStreamChunk) {
    const nnz_t ahead = std::min(i + kStreamPrefetchAhead, nnz - 1);
    __builtin_prefetch(val + ahead);
    __builtin_prefetch(ind + ahead);
    if constexpr (sizeof(V) == sizeof(real)) {
      for (nnz_t k = i; k < i + kStreamChunk; ++k)
        f(ind[k], Vals::decode(val[k]));
    } else {
      // Unrolled fully, a 16-bit chunk's slot and value loads share one
      // register and GCC parks each slot in a vector register on the way
      // (DESIGN.md §21). Four entries at a time keep the loop clean.
#pragma GCC unroll 4
      for (nnz_t k = i; k < i + kStreamChunk; ++k)
        f(ind[k], Vals::decode(val[k]));
    }
  }
  for (; i < e; ++i) f(ind[i], Vals::decode(val[i]));
}

/// Builds the staged structure from CSR. Requires buffsize <= 65536 (16-bit
/// buffer addressing) and partsize >= 1. OpenMP-parallel over partitions.
[[nodiscard]] BufferedMatrix build_buffered(const CsrMatrix& a,
                                            const BufferConfig& config = {});

/// Partitions [p0, p1) of `b` as a matrix of their own: rows
/// [p0·partsize, min(p1·partsize, num_rows)) with their stages, every
/// offset rebased to the cut, and every map entry c replaced by
/// footprint.position(c). `footprint` must be indexed to `num_cols` sorted
/// columns that include each column the cut's map holds. A build stages a
/// partition from its sorted distinct columns by count alone, and the remap
/// is monotone, so the cut equals build_buffered of the same rows with their
/// columns compacted to that footprint, byte for byte; an empty range gives
/// the one empty partition build_buffered gives a row-less matrix. The
/// value array b holds (val or val16) is copied.
[[nodiscard]] BufferedMatrix cut_partitions(const BufferedMatrix& b, idx_t p0,
                                            idx_t p1,
                                            const FootprintIndex& footprint,
                                            idx_t num_cols);

/// Footprint size and nonzero count of one partition: what the first pass
/// of a staged build measures.
struct PartitionSize {
  idx_t cols = 0;  ///< Distinct columns of the partition's rows.
  nnz_t nnz = 0;
};

/// The second pass of a staged build, shared by build_buffered (rows from a
/// CSR matrix) and geometry::build_projection_buffered (rows traced one
/// partition at a time). Construction sizes every array from the first
/// pass's per-partition sizes and lays out the stages; place() then fills
/// one partition. Distinct partitions may be placed concurrently, and the
/// thread placing a partition first-touches its slices.
class StagedBuilder {
 public:
  /// Partition count of a num_rows-row matrix; checks `config` first.
  [[nodiscard]] static idx_t num_partitions(idx_t num_rows,
                                            const BufferConfig& config);

  StagedBuilder(idx_t num_rows, idx_t num_cols, const BufferConfig& config,
                std::span<const PartitionSize> parts);

  /// Per-thread scratch of place(): O(num_cols + footprint) at any
  /// partsize.
  struct Scratch {
    explicit Scratch(idx_t num_cols) : footprint(num_cols) {}
    FootprintIndex footprint;
    std::vector<nnz_t> counts;  ///< Per (stage, row): count, then start.
    Bitmap row;                 ///< The footprint positions of one row.
    std::vector<real> row_val;  ///< Per footprint position: the row's value.
  };

  /// Fills partition p from rows [r0, r0 + its row count) of `rows`: map,
  /// displ, ind and val. A row may hold its entries in any column order;
  /// the bytes are those of the same rows sorted. A row that holds a
  /// column twice throws InvariantError.
  void place(idx_t p, const CsrMatrix& rows, idx_t r0, Scratch& scratch);

  /// The validated matrix, once every partition is placed.
  [[nodiscard]] BufferedMatrix finish() &&;

 private:
  BufferedMatrix b_;
  std::vector<nnz_t> first_;  ///< Per partition: its first nonzero.
};

/// y = A·x with the multi-stage buffered kernel (Listing 3), dynamic
/// schedule: the width-1 instance of the staged apply in sparse/spmm.hpp.
void spmv_buffered(const BufferedMatrix& a, std::span<const real> x,
                   std::span<real> y);

/// Quantizes the values of a built fp32 buffered matrix into `storage`
/// (bf16 or fp16 bits in val16; identity for Fp32). Structure and index
/// streams are kept as they are, so the reduced-precision apply walks the
/// same runs in the same order. Quantization is idempotent: a matrix whose
/// values are already representable keeps its bits.
[[nodiscard]] BufferedMatrix compress_buffered(BufferedMatrix b,
                                               ValueStorage storage);

/// Work accounting: nnz FMAs at 2 B of index plus the stored value width
/// (6 B/FMA in fp32, 4 B in bf16/fp16), plus staging traffic.
[[nodiscard]] perf::KernelWork buffered_work(const BufferedMatrix& a);

}  // namespace memxct::sparse
