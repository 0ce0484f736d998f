#include "sparse/transpose.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"

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

BufferedMatrix build_buffered_transpose(const BufferedMatrix& fwd,
                                        const BufferConfig& config,
                                        ValueStorage storage) {
  MEMXCT_CHECK_MSG(
      fwd.storage == ValueStorage::Fp32 || fwd.storage == storage,
      "the staged transpose reads fp32 values or values already in its "
      "storage");
  MEMXCT_CHECK(config.partsize >= 1);
  MEMXCT_CHECK_MSG(config.buffsize >= 1 && config.buffsize <= 65536,
                   "16-bit buffer addressing limits buffsize to 65536");
  BufferedMatrix t;
  t.num_rows = fwd.num_cols;
  t.num_cols = fwd.num_rows;
  t.config = config;
  t.storage = storage;
  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;
  const auto numparts = static_cast<std::size_t>(
      std::max<idx_t>(1, ceil_div(t.num_rows, partsize)));

  // Per block of forward partitions, per backward partition P (a run of
  // partsize columns of A): the footprint rank of the block's first row
  // touching P and of its next new one, the last row seen, and that row's
  // first (stage, row) cell and slot; then per backward cell an entry
  // count, later the block's cursor into the cell.
  struct Block {
    std::vector<idx_t> rank0, rank, last;
    std::vector<std::size_t> cell0;
    std::vector<buf_idx_t> slot;
    std::vector<nnz_t> cells;
  };
  const Blocks parts(fwd.num_partitions());
  std::vector<Block> block(static_cast<std::size_t>(parts.count));

  // walk(blk, f) calls f(P, fresh, r, j, k) for every entry (r, c) of block
  // blk's forward partitions, stored at k, c being row j of backward
  // partition P.
  // It goes row by row and, within a row, stage by stage, so rows arrive
  // in ascending order and a row is new to P exactly when it differs from
  // the last row that touched P: `fresh` marks it. Such a row takes the
  // next rank in P's footprint (the sorted rows touching P), counted from
  // rank0[P]; once t.partdispl exists its rank also gives cell0[P] and
  // slot[P]. A row's columns ascend within a stage, so P is kept while c
  // stays in it instead of divided out per entry.
  const idx_t fwd_partsize = fwd.config.partsize;
  const auto walk = [&](idx_t blk, auto&& f) {
    Block& b = block[static_cast<std::size_t>(blk)];
    b.rank = b.rank0;
    b.last.assign(numparts, -1);
    const bool staged = !t.partdispl.empty();
    b.cell0.resize(staged ? numparts : 0);
    b.slot.resize(staged ? numparts : 0);
    std::size_t part = 0;
    idx_t lo = 0;  // first column of P
    for (idx_t p = parts.first(blk); p < parts.first(blk + 1); ++p) {
      const idx_t s0 = fwd.partdispl[static_cast<std::size_t>(p)];
      const idx_t s1 = fwd.partdispl[static_cast<std::size_t>(p) + 1];
      for (idx_t j = 0; j < fwd_partsize; ++j) {
        const idx_t r = p * fwd_partsize + j;
        for (idx_t s = s0; s < s1; ++s) {
          const idx_t* const mp =
              fwd.map.data() + fwd.stagedispl[static_cast<std::size_t>(s)];
          const nnz_t* const run =
              fwd.displ.data() + static_cast<nnz_t>(s) * fwd_partsize;
          for (nnz_t k = run[j]; k < run[j + 1]; ++k) {
            const idx_t c = mp[fwd.ind[static_cast<std::size_t>(k)]];
            if (static_cast<std::uint32_t>(c - lo) >=
                static_cast<std::uint32_t>(partsize)) {
              part = static_cast<std::size_t>(c / partsize);
              lo = static_cast<idx_t>(part) * partsize;
            }
            const bool fresh = b.last[part] != r;
            if (fresh) {
              b.last[part] = r;
              const idx_t rank = b.rank[part]++;
              if (staged) {
                b.cell0[part] =
                    static_cast<std::size_t>(t.partdispl[part] +
                                             rank / buffsize) *
                    static_cast<std::size_t>(partsize);
                b.slot[part] = static_cast<buf_idx_t>(rank % buffsize);
              }
            }
            f(part, fresh, r, c - lo, static_cast<std::size_t>(k));
          }
        }
      }
    }
  };

  // Pass 1: each block's footprint sizes (rank counts up from 0).
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < parts.count; ++blk) {
    block[static_cast<std::size_t>(blk)].rank0.assign(numparts, 0);
    walk(blk, [](std::size_t, bool, idx_t, idx_t, std::size_t) {});
  }

  // Scan over partitions, blocks in order within each: blocks hold
  // ascending row ranges, so P's footprint is the concatenation of the
  // blocks' rows touching it. Its size gives P's stages, as in
  // build_buffered (an empty footprint keeps one empty stage).
  t.partdispl.resize(numparts + 1);
  t.partdispl[0] = 0;
  std::vector<idx_t> width(numparts);
  for (std::size_t part = 0; part < numparts; ++part) {
    idx_t n = 0;
    for (Block& b : block) {
      b.rank0[part] = n;
      n += b.rank[part];
    }
    width[part] = n;
    t.partdispl[part + 1] =
        t.partdispl[part] + std::max<idx_t>(1, ceil_div(n, buffsize));
  }
  const auto stages = static_cast<std::size_t>(t.partdispl.back());
  t.stagenz.resize(stages);
  t.stagedispl.resize(stages + 1);
  t.stagedispl[0] = 0;
  for (std::size_t part = 0; part < numparts; ++part)
    for (idx_t s = t.partdispl[part]; s < t.partdispl[part + 1]; ++s) {
      const idx_t lo = (s - t.partdispl[part]) * buffsize;
      const auto k = static_cast<std::size_t>(s);
      t.stagenz[k] = std::clamp<idx_t>(width[part] - lo, 0, buffsize);
      t.stagedispl[k + 1] = t.stagedispl[k] + t.stagenz[k];
    }
  t.map.resize(static_cast<std::size_t>(t.stagedispl.back()));
  const std::size_t cells = stages * static_cast<std::size_t>(partsize);

  // Pass 2: map (each fresh row at its rank in P's footprint) and entry
  // counts per cell.
#pragma omp parallel for schedule(static)
  for (idx_t blk = 0; blk < parts.count; ++blk) {
    Block& b = block[static_cast<std::size_t>(blk)];
    b.cells.assign(cells, 0);
    walk(blk, [&](std::size_t part, bool fresh, idx_t r, idx_t j,
                  std::size_t) {
      if (fresh)
        t.map[static_cast<std::size_t>(
            t.stagedispl[static_cast<std::size_t>(t.partdispl[part])] +
            b.rank[part] - 1)] = r;
      ++b.cells[b.cell0[part] + static_cast<std::size_t>(j)];
    });
  }

  // Scan, stage-major over cells and block-major within each: displ, and
  // each block's cursor into the cell. Within a block a cell's entries
  // arrive by ascending row, so every run lists its rows in ascending
  // order, as build_buffered lays out the rows of the CSR transpose.
  t.displ.resize(cells + 1);
  t.displ[0] = 0;
  nnz_t offset = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    for (Block& b : block) {
      const nnz_t count = b.cells[i];
      b.cells[i] = offset;
      offset += count;
    }
    t.displ[i + 1] = offset;
  }
  MEMXCT_CHECK(offset == fwd.nnz());

  // Pass 3: placement of slots and values. A forward already in `storage`
  // gives its bits as they are: they are the encoding of its fp32 values.
  const auto nnz = static_cast<std::size_t>(offset);
  t.ind.resize(nnz);
  if (storage == ValueStorage::Fp32)
    t.val.resize(nnz);
  else
    t.val16.resize(nnz);
  // put(k, e) writes the value of forward entry e to backward entry k.
  const auto place = [&](auto&& put) {
#pragma omp parallel for schedule(static)
    for (idx_t blk = 0; blk < parts.count; ++blk) {
      Block& b = block[static_cast<std::size_t>(blk)];
      walk(blk, [&](std::size_t part, bool, idx_t, idx_t j, std::size_t e) {
        const std::size_t i = b.cell0[part] + static_cast<std::size_t>(j);
        const auto k = static_cast<std::size_t>(b.cells[i]++);
        t.ind[k] = b.slot[part];
        put(k, e);
      });
    }
  };
  if (storage == ValueStorage::Fp32)
    place([&](std::size_t k, std::size_t e) { t.val[k] = fwd.val[e]; });
  else if (fwd.storage == storage)
    place([&](std::size_t k, std::size_t e) { t.val16[k] = fwd.val16[e]; });
  else
    place([&](std::size_t k, std::size_t e) {
      t.val16[k] = encode_value(fwd.val[e], storage);
    });
  t.validate();
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
