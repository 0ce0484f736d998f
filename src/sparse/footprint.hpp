// Row-range footprints in linear time (Section 3.3.1's "data access
// footprint").
//
// The buffered build (sparse/buffered.cpp) and the shard build
// (shard/sharded_operator.cpp) both relabel every column id of a range (a
// row range's nonzeros, or a shard's staged map entries) to its rank among
// the range's sorted distinct columns. A column bitmap marks the distinct
// columns in one pass over the entries and is read back in ascending
// order, so nothing is sorted; a dense position table then answers each
// entry's rank in O(1) instead of a binary search per nonzero. Total cost
// is O(nnz + num_cols / 4096) per range.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace memxct::sparse {

/// A set of ids in [0, size()): a bit per id, and a summary byte per 64
/// words (4096 ids) that is set when one of them is. Reading the set back
/// visits the summary and the groups it marks, never the whole bitmap, so
/// a small set in a large id space costs what its ids cost. The summary is
/// bytes so that marking it is a plain store: as a bit, nearly every insert
/// would update the same summary word, each waiting on the last. The set
/// is empty between uses: every insert() is followed by a drain().
class Bitmap {
 public:
  explicit Bitmap(idx_t size = 0) { resize(size); }

  /// Sets the id range to [0, size); the set must be empty.
  void resize(idx_t size) {
    words_.resize((static_cast<std::size_t>(size) + 63) / 64);
    groups_.resize((words_.size() + 63) / 64);
  }

  void insert(idx_t id) noexcept {
    const auto w = static_cast<std::size_t>(id) / 64;
    words_[w] |= std::uint64_t{1} << (id % 64);
    groups_[w / 64] = 1;
  }

  /// Calls fn(w, word) for each nonzero word w of the set in ascending
  /// order (bit b of `word` is id 64·w + b), then leaves the set empty.
  template <class Fn>
  void drain(Fn&& fn) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g] == 0) continue;
      groups_[g] = 0;
      const std::size_t w1 = std::min(words_.size(), 64 * g + 64);
      for (std::size_t w = 64 * g; w < w1; ++w) {
        if (words_[w] == 0) continue;
        fn(static_cast<idx_t>(w), words_[w]);
        words_[w] = 0;
      }
    }
  }

 private:
  // Mapped, like all build scratch (common/aligned.hpp: ScratchAllocator).
  ScratchVector<std::uint64_t> words_;
  ScratchVector<std::uint8_t> groups_;  ///< Per 64 words: any bit set?
};

/// Per-thread scratch over a matrix's column space (a bit and a position
/// word per column), mapped so that a finished build returns it.
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
  /// Marks the columns of `cols`, then drains them: fn(w, word) per
  /// nonzero bitmap word, in ascending order.
  template <class Fn>
  void drain(std::span<const idx_t> cols, Fn&& fn);

  Bitmap marked_;              ///< The columns of the list being read.
  ScratchVector<idx_t> pos_of_;  ///< Per column: rank in the footprint.
};

}  // namespace memxct::sparse
