#include "shard/partition.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"

namespace memxct::shard {

namespace {

// Cuts `rows` rows of `total` nonzeros; nnz_before(r) is the nonzero count
// of rows [0, r) for every r that is a multiple of partsize or is `rows`.
template <class NnzBefore>
dist::DomainPartition cut_aligned(idx_t rows, nnz_t total, int num_shards,
                                  idx_t partsize, NnzBefore nnz_before) {
  MEMXCT_CHECK_MSG(num_shards >= 1, "shard partition: num_shards must be >= 1");
  MEMXCT_CHECK_MSG(partsize >= 1, "shard partition: partsize must be >= 1");

  std::vector<idx_t> displ(static_cast<std::size_t>(num_shards) + 1, 0);
  displ.back() = rows;
  // Cut positions are multiples of partsize; the last partition may be
  // ragged (rows itself need not be a multiple). For shard s, pick the
  // aligned boundary whose cumulative nnz is closest to the ideal
  // total*s/num_shards, never moving left of the previous cut — empty
  // shards are allowed and exchange nothing.
  idx_t prev = 0;
  for (int s = 1; s < num_shards; ++s) {
    const double ideal =
        static_cast<double>(total) * s / static_cast<double>(num_shards);
    // First aligned boundary at or right of prev.
    idx_t cand = ((prev + partsize - 1) / partsize) * partsize;
    if (cand > rows) cand = rows;
    idx_t best = cand;
    double best_err = -1.0;
    for (idx_t b = cand; b <= rows; b += partsize) {
      const idx_t bb = b < rows ? b : rows;
      const double err = std::abs(static_cast<double>(nnz_before(bb)) - ideal);
      if (best_err < 0.0 || err < best_err) {
        best_err = err;
        best = bb;
      } else {
        // Cumulative nnz is monotone, so once the error starts growing it
        // keeps growing — stop scanning.
        break;
      }
      if (bb == rows) break;
    }
    displ[static_cast<std::size_t>(s)] = best;
    prev = best;
  }
  return dist::DomainPartition(num_shards, std::move(displ));
}

}  // namespace

dist::DomainPartition partition_rows_aligned(const sparse::CsrMatrix& a,
                                             int num_shards, idx_t partsize) {
  return cut_aligned(a.num_rows, a.nnz(), num_shards, partsize,
                     [&a](idx_t r) { return a.displ[r]; });
}

dist::DomainPartition partition_rows_aligned(const sparse::BufferedMatrix& b,
                                             int num_shards) {
  // Partition q's entries start at its first stage's first cell.
  const idx_t partsize = b.config.partsize;
  return cut_aligned(b.num_rows, b.nnz(), num_shards, partsize,
                     [&b, partsize](idx_t r) {
                       const idx_t part = ceil_div(r, partsize);
                       const auto stage = static_cast<std::size_t>(
                           b.partdispl[static_cast<std::size_t>(part)]);
                       return b.displ[stage *
                                      static_cast<std::size_t>(partsize)];
                     });
}

}  // namespace memxct::shard
