// Row-range footprints in linear time (Section 3.3.1's "data access
// footprint").
//
// The buffered build (sparse/buffered.cpp) and the shard build
// (shard/sharded_operator.cpp) both relabel every column id of a range (a
// row range's nonzeros, or a shard's staged map entries) to its rank among
// the range's sorted distinct columns. A column stamp collects the distinct
// columns in one pass over the entries, so only the footprint itself is
// sorted, never the range's full index list; a dense position table then
// answers each entry's rank in O(1) instead of a binary search per
// nonzero. Total cost is O(nnz + footprint·log footprint).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace memxct::sparse {

/// Per-thread scratch over a matrix's column space (two words per column).
class FootprintIndex {
 public:
  explicit FootprintIndex(idx_t num_cols);

  /// Sorted distinct values of the column list `cols` (for a row range,
  /// CsrMatrix::row_columns).
  [[nodiscard]] std::vector<idx_t> collect(std::span<const idx_t> cols);
  /// Their count, without storing them.
  [[nodiscard]] idx_t count(std::span<const idx_t> cols);
  /// Writes them to `out`, whose size must be count(cols).
  void collect(std::span<const idx_t> cols, std::span<idx_t> out);

  /// Makes position() answer ranks within `cols` (sorted and distinct).
  void index(std::span<const idx_t> cols);

  /// Rank of column `c` in the footprint last passed to index(); `c` must
  /// be one of its columns.
  [[nodiscard]] idx_t position(idx_t c) const noexcept {
    return pos_of_[static_cast<std::size_t>(c)];
  }

 private:
  /// Calls fn(c) for each distinct value c of `cols`, in list order.
  template <class Fn>
  void for_each_distinct(std::span<const idx_t> cols, Fn&& fn);

  std::vector<std::uint32_t> seen_;  ///< Per column: last walk's stamp.
  std::uint32_t stamp_ = 0;
  std::vector<idx_t> pos_of_;        ///< Per column: rank in the footprint.
};

}  // namespace memxct::sparse
