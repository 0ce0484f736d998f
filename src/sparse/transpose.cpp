#include "sparse/transpose.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace memxct::sparse {

CsrMatrix transpose(const CsrMatrix& a) {
  CsrMatrix t;
  t.num_rows = a.num_cols;
  t.num_cols = a.num_rows;
  t.displ.assign(static_cast<std::size_t>(t.num_rows) + 1, 0);

  // Contiguous source-row blocks, fixed here from one team size: both
  // passes walk the same blocks, whichever thread runs each one.
  const idx_t blocks =
      std::max<idx_t>(1, std::min<idx_t>(omp_get_max_threads(), a.num_rows));
  const auto block_begin = [&](idx_t blk) {
    return static_cast<idx_t>(static_cast<std::int64_t>(a.num_rows) * blk /
                              blocks);
  };

  // Pass 1: per-block column histograms.
  std::vector<std::vector<nnz_t>> cursor(static_cast<std::size_t>(blocks));
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < blocks; ++blk) {
    auto& h = cursor[static_cast<std::size_t>(blk)];
    h.assign(static_cast<std::size_t>(a.num_cols), 0);
    for (idx_t r = block_begin(blk); r < block_begin(blk + 1); ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k)
        ++h[static_cast<std::size_t>(a.ind[k])];
  }

  // Scan, column-major over blocks: each count becomes an exclusive cursor,
  // so block b's entries of column c start at displ[c] plus the counts of
  // column c in blocks 0..b-1.
  nnz_t offset = 0;
  for (idx_t c = 0; c < a.num_cols; ++c) {
    for (auto& h : cursor) {
      const nnz_t count = h[static_cast<std::size_t>(c)];
      h[static_cast<std::size_t>(c)] = offset;
      offset += count;
    }
    t.displ[static_cast<std::size_t>(c) + 1] = offset;
  }
  MEMXCT_CHECK(offset == a.nnz());

  t.ind.resize(static_cast<std::size_t>(a.nnz()));
  t.val.resize(static_cast<std::size_t>(a.nnz()));

  // Pass 2: ordered placement, parallel over the same blocks. Within a
  // block, source rows are walked in ascending order; across blocks, the
  // cursors put lower blocks' entries first. Every transposed row therefore
  // lists its entries by ascending original row — the order-preserving
  // property Section 3.5.1 requires — and the result is bitwise the same
  // for any thread count.
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < blocks; ++blk) {
    auto& cur = cursor[static_cast<std::size_t>(blk)];
    for (idx_t r = block_begin(blk); r < block_begin(blk + 1); ++r)
      for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
        const nnz_t pos = cur[static_cast<std::size_t>(a.ind[k])]++;
        t.ind[static_cast<std::size_t>(pos)] = r;
        t.val[static_cast<std::size_t>(pos)] = a.val[k];
      }
  }
  return t;
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
