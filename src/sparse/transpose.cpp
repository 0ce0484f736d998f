#include "sparse/transpose.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace memxct::sparse {

namespace {

/// The two-pass scan transpose of a num_rows × num_cols matrix with `nnz`
/// entries, whose rows are split into `blocks` contiguous blocks.
/// walk(blk, f) calls f(row, col, val) for every entry of block blk, in an
/// order that visits each column's entries by ascending row. Both passes
/// walk the same blocks, whichever thread runs each one.
template <class Walk>
CsrMatrix scan_transpose(idx_t num_rows, idx_t num_cols, nnz_t nnz,
                         idx_t blocks, const Walk& walk) {
  CsrMatrix t;
  t.num_rows = num_cols;
  t.num_cols = num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);

  // Pass 1: per-block column histograms.
  std::vector<std::vector<nnz_t>> cursor(static_cast<std::size_t>(blocks));
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < blocks; ++blk) {
    auto& h = cursor[static_cast<std::size_t>(blk)];
    h.assign(static_cast<std::size_t>(num_cols), 0);
    walk(blk, [&](idx_t, idx_t c, real) { ++h[static_cast<std::size_t>(c)]; });
  }

  // Scan, column-major over blocks: each count becomes an exclusive cursor,
  // so block b's entries of column c start at displ[c] plus the counts of
  // column c in blocks 0..b-1.
  nnz_t offset = 0;
  for (idx_t c = 0; c < num_cols; ++c) {
    for (auto& h : cursor) {
      const nnz_t count = h[static_cast<std::size_t>(c)];
      h[static_cast<std::size_t>(c)] = offset;
      offset += count;
    }
    t.displ[static_cast<std::size_t>(c) + 1] = offset;
  }
  MEMXCT_CHECK(offset == nnz);

  t.ind.resize(static_cast<std::size_t>(nnz));
  t.val.resize(static_cast<std::size_t>(nnz));

  // Pass 2: ordered placement, parallel over the same blocks. Within a
  // block each column's entries arrive by ascending row; across blocks,
  // the cursors put lower blocks' entries first. Every transposed row
  // therefore lists its entries by ascending original row — the
  // order-preserving property Section 3.5.1 requires — and entry (r, c)
  // lands at displ[c] plus the count of column c in rows before r, which
  // no block split or thread count changes.
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < blocks; ++blk) {
    auto& cur = cursor[static_cast<std::size_t>(blk)];
    walk(blk, [&](idx_t r, idx_t c, real v) {
      const nnz_t pos = cur[static_cast<std::size_t>(c)]++;
      t.ind[static_cast<std::size_t>(pos)] = r;
      t.val[static_cast<std::size_t>(pos)] = v;
    });
  }
  return t;
}

/// Blocks of `units` (rows or partitions): one per thread, at most one per
/// unit; block blk covers units [first(blk), first(blk + 1)).
struct Blocks {
  idx_t units, count;
  explicit Blocks(idx_t n)
      : units(n),
        count(std::max<idx_t>(1, std::min<idx_t>(omp_get_max_threads(), n))) {}
  [[nodiscard]] idx_t first(idx_t blk) const {
    return static_cast<idx_t>(static_cast<std::int64_t>(units) * blk / count);
  }
};

}  // namespace

CsrMatrix transpose(const CsrMatrix& a) {
  const Blocks rows(a.num_rows);
  return scan_transpose(
      a.num_rows, a.num_cols, a.nnz(), rows.count, [&](idx_t blk, auto&& f) {
        for (idx_t r = rows.first(blk); r < rows.first(blk + 1); ++r)
          for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
            f(r, a.ind[k], a.val[k]);
      });
}

CsrMatrix transpose(const BufferedMatrix& b) {
  MEMXCT_CHECK_MSG(b.storage == ValueStorage::Fp32,
                   "transpose reads fp32 buffered values only");
  const idx_t partsize = b.config.partsize;
  const Blocks parts(b.num_partitions());
  // Partition by partition, stage by stage, row by row: a partition's
  // stages hold disjoint chunks of its distinct columns, so each column's
  // entries in a partition come from one stage, by ascending row.
  return scan_transpose(
      b.num_rows, b.num_cols, b.nnz(), parts.count, [&](idx_t blk, auto&& f) {
        for (idx_t p = parts.first(blk); p < parts.first(blk + 1); ++p)
          for (idx_t s = b.partdispl[static_cast<std::size_t>(p)];
               s < b.partdispl[static_cast<std::size_t>(p) + 1]; ++s) {
            const idx_t* const mp =
                b.map.data() + b.stagedispl[static_cast<std::size_t>(s)];
            const nnz_t* const run =
                b.displ.data() + static_cast<nnz_t>(s) * partsize;
            for (idx_t j = 0; j < partsize; ++j)
              for (nnz_t k = run[j]; k < run[j + 1]; ++k)
                f(p * partsize + j, mp[b.ind[static_cast<std::size_t>(k)]],
                  b.val[static_cast<std::size_t>(k)]);
          }
      });
}

CsrMatrix transpose_atomic(const CsrMatrix& a) {
  CsrMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
      ++t.displ[static_cast<std::size_t>(a.ind[k]) + 1];
  for (idx_t c = 0; c < a.num_cols; ++c)
    t.displ[static_cast<std::size_t>(c) + 1] +=
        t.displ[static_cast<std::size_t>(c)];
  t.ind.resize(static_cast<std::size_t>(a.nnz()));
  t.val.resize(static_cast<std::size_t>(a.nnz()));

  std::vector<std::atomic<nnz_t>> cursor(static_cast<std::size_t>(a.num_cols));
  for (idx_t c = 0; c < a.num_cols; ++c)
    cursor[static_cast<std::size_t>(c)].store(
        t.displ[static_cast<std::size_t>(c)], std::memory_order_relaxed);
  // Dynamic scheduling deliberately interleaves rows across threads; with
  // more than one thread the within-row arrival order becomes
  // nondeterministic (and even single-threaded, the dynamic chunk order
  // need not be ascending).
#pragma omp parallel for schedule(dynamic, 64)
  for (idx_t r = 0; r < a.num_rows; ++r)
    for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
      const nnz_t pos = cursor[static_cast<std::size_t>(a.ind[k])].fetch_add(
          1, std::memory_order_relaxed);
      t.ind[static_cast<std::size_t>(pos)] = r;
      t.val[static_cast<std::size_t>(pos)] = a.val[k];
    }
  return t;
}

}  // namespace memxct::sparse
