// Row-range footprints in linear time (Section 3.3.1's "data access
// footprint").
//
// The buffered build (sparse/buffered.cpp) and the shard build
// (shard/sharded_operator.cpp) both relabel every nonzero of a row range to
// its column's rank among the range's sorted distinct columns. A column
// stamp collects the distinct columns in one pass over the entries, so only
// the footprint itself is sorted, never the range's full index list; a
// dense position table then answers each entry's rank in O(1) instead of a
// binary search per nonzero. Total cost is O(nnz + footprint·log footprint).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace memxct::sparse {

/// Per-thread scratch over a matrix's column space (two words per column).
class FootprintIndex {
 public:
  explicit FootprintIndex(idx_t num_cols);

  /// Sorted distinct columns touched by rows [r0, r1) of `a`.
  [[nodiscard]] std::vector<idx_t> collect(const CsrMatrix& a, idx_t r0,
                                           idx_t r1);
  /// Their count, without storing them.
  [[nodiscard]] idx_t count(const CsrMatrix& a, idx_t r0, idx_t r1);
  /// Writes them to `out`, whose size must be count(a, r0, r1).
  void collect(const CsrMatrix& a, idx_t r0, idx_t r1, std::span<idx_t> out);

  /// Makes position() answer ranks within `cols` (sorted and distinct).
  void index(std::span<const idx_t> cols);

  /// Rank of column `c` in the footprint last passed to index(); `c` must
  /// be one of its columns.
  [[nodiscard]] idx_t position(idx_t c) const noexcept {
    return pos_of_[static_cast<std::size_t>(c)];
  }

 private:
  /// Calls fn(c) for each distinct column c of rows [r0, r1), in entry
  /// order.
  template <class Fn>
  void for_each_distinct(const CsrMatrix& a, idx_t r0, idx_t r1, Fn&& fn);

  std::vector<std::uint32_t> seen_;  ///< Per column: last walk's stamp.
  std::uint32_t stamp_ = 0;
  std::vector<idx_t> pos_of_;        ///< Per column: rank in the footprint.
};

}  // namespace memxct::sparse
