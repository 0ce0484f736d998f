#include "sparse/footprint.hpp"

#include <algorithm>

namespace memxct::sparse {

FootprintIndex::FootprintIndex(idx_t num_cols)
    : seen_(static_cast<std::size_t>(num_cols), 0),
      pos_of_(static_cast<std::size_t>(num_cols), 0) {}

std::vector<idx_t> FootprintIndex::collect(const CsrMatrix& a, idx_t r0,
                                           idx_t r1) {
  if (++stamp_ == 0) {  // wrapped: no stale stamp may equal a new one
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  std::vector<idx_t> cols;
  for (nnz_t k = a.displ[r0]; k < a.displ[r1]; ++k) {
    const idx_t c = a.ind[k];
    auto& s = seen_[static_cast<std::size_t>(c)];
    if (s != stamp_) {
      s = stamp_;
      cols.push_back(c);
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.shrink_to_fit();
  return cols;
}

void FootprintIndex::index(std::span<const idx_t> cols) {
  for (std::size_t i = 0; i < cols.size(); ++i)
    pos_of_[static_cast<std::size_t>(cols[i])] = static_cast<idx_t>(i);
}

}  // namespace memxct::sparse
