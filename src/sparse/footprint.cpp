#include "sparse/footprint.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace memxct::sparse {

FootprintIndex::FootprintIndex(idx_t num_cols)
    : seen_(static_cast<std::size_t>(num_cols), 0),
      pos_of_(static_cast<std::size_t>(num_cols), 0) {}

template <class Fn>
void FootprintIndex::for_each_distinct(const CsrMatrix& a, idx_t r0, idx_t r1,
                                       Fn&& fn) {
  if (++stamp_ == 0) {  // wrapped: no stale stamp may equal a new one
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  for (nnz_t k = a.displ[r0]; k < a.displ[r1]; ++k) {
    const idx_t c = a.ind[k];
    auto& s = seen_[static_cast<std::size_t>(c)];
    if (s != stamp_) {
      s = stamp_;
      fn(c);
    }
  }
}

std::vector<idx_t> FootprintIndex::collect(const CsrMatrix& a, idx_t r0,
                                           idx_t r1) {
  std::vector<idx_t> cols;
  for_each_distinct(a, r0, r1, [&cols](idx_t c) { cols.push_back(c); });
  std::sort(cols.begin(), cols.end());
  cols.shrink_to_fit();
  return cols;
}

idx_t FootprintIndex::count(const CsrMatrix& a, idx_t r0, idx_t r1) {
  idx_t n = 0;
  for_each_distinct(a, r0, r1, [&n](idx_t) { ++n; });
  return n;
}

void FootprintIndex::collect(const CsrMatrix& a, idx_t r0, idx_t r1,
                             std::span<idx_t> out) {
  std::size_t n = 0;
  for_each_distinct(a, r0, r1, [&](idx_t c) { out[n++] = c; });
  MEMXCT_CHECK(n == out.size());
  std::sort(out.begin(), out.end());
}

void FootprintIndex::index(std::span<const idx_t> cols) {
  for (std::size_t i = 0; i < cols.size(); ++i)
    pos_of_[static_cast<std::size_t>(cols[i])] = static_cast<idx_t>(i);
}

}  // namespace memxct::sparse
