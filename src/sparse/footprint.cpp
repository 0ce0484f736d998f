#include "sparse/footprint.hpp"

#include "common/error.hpp"

namespace memxct::sparse {

FootprintIndex::FootprintIndex(idx_t num_cols)
    : marked_(num_cols), pos_of_(static_cast<std::size_t>(num_cols), 0) {}

template <class Fn>
void FootprintIndex::drain(std::span<const idx_t> cols, Fn&& fn) {
  for (const idx_t c : cols) marked_.insert(c);
  marked_.drain(fn);
}

std::vector<idx_t> FootprintIndex::collect(std::span<const idx_t> cols) {
  std::vector<idx_t> out;
  drain(cols, [&out](idx_t w, std::uint64_t word) {
    for (; word != 0; word &= word - 1)
      out.push_back(w * 64 + std::countr_zero(word));
  });
  out.shrink_to_fit();
  return out;
}

idx_t FootprintIndex::count(std::span<const idx_t> cols) {
  idx_t n = 0;
  drain(cols, [&n](idx_t, std::uint64_t word) { n += std::popcount(word); });
  return n;
}

void FootprintIndex::collect(std::span<const idx_t> cols,
                             std::span<idx_t> out) {
  // Writes stop at out.size(), but the drain runs to the end so that the
  // bitmap is left empty.
  std::size_t n = 0;
  drain(cols, [&](idx_t w, std::uint64_t word) {
    for (; word != 0; word &= word - 1, ++n)
      if (n < out.size()) out[n] = w * 64 + std::countr_zero(word);
  });
  MEMXCT_CHECK(n == out.size());
}

void FootprintIndex::index(std::span<const idx_t> cols) {
  for (std::size_t i = 0; i < cols.size(); ++i)
    pos_of_[static_cast<std::size_t>(cols[i])] = static_cast<idx_t>(i);
}

}  // namespace memxct::sparse
