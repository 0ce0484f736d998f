#include "sparse/footprint.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace memxct::sparse {

FootprintIndex::FootprintIndex(idx_t num_cols)
    : seen_(static_cast<std::size_t>(num_cols), 0),
      pos_of_(static_cast<std::size_t>(num_cols), 0) {}

template <class Fn>
void FootprintIndex::for_each_distinct(std::span<const idx_t> cols, Fn&& fn) {
  if (++stamp_ == 0) {  // wrapped: no stale stamp may equal a new one
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  for (const idx_t c : cols) {
    auto& s = seen_[static_cast<std::size_t>(c)];
    if (s != stamp_) {
      s = stamp_;
      fn(c);
    }
  }
}

std::vector<idx_t> FootprintIndex::collect(std::span<const idx_t> cols) {
  std::vector<idx_t> out;
  for_each_distinct(cols, [&out](idx_t c) { out.push_back(c); });
  std::sort(out.begin(), out.end());
  out.shrink_to_fit();
  return out;
}

idx_t FootprintIndex::count(std::span<const idx_t> cols) {
  idx_t n = 0;
  for_each_distinct(cols, [&n](idx_t) { ++n; });
  return n;
}

void FootprintIndex::collect(std::span<const idx_t> cols,
                             std::span<idx_t> out) {
  std::size_t n = 0;
  for_each_distinct(cols, [&](idx_t c) { out[n++] = c; });
  MEMXCT_CHECK(n == out.size());
  std::sort(out.begin(), out.end());
}

void FootprintIndex::index(std::span<const idx_t> cols) {
  for (std::size_t i = 0; i < cols.size(); ++i)
    pos_of_[static_cast<std::size_t>(cols[i])] = static_cast<idx_t>(i);
}

}  // namespace memxct::sparse
