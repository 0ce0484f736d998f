// Compressed Sparse Row matrix and builders.
//
// The memoized projection matrix A (rays × pixels) and its transpose are
// stored in CSR; every kernel variant (baseline, ELL-block, buffered) is
// derived from this representation.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"

namespace memxct::sparse {

/// CSR sparse matrix with 64-bit row displacements (paper-scale matrices
/// exceed 2^31 nonzeros) and 32-bit column indices.
struct CsrMatrix {
  idx_t num_rows = 0;
  idx_t num_cols = 0;
  AlignedVector<nnz_t> displ;  ///< Row displacements, size num_rows + 1.
  UninitVector<idx_t> ind;     ///< Column indices, sorted within each row.
  UninitVector<real> val;      ///< Values, parallel to ind.

  [[nodiscard]] nnz_t nnz() const noexcept {
    return displ.empty() ? 0 : displ.back();
  }

  /// Column indices of rows [r0, r1), in stored order.
  [[nodiscard]] std::span<const idx_t> row_columns(idx_t r0,
                                                   idx_t r1) const noexcept {
    return {ind.data() + displ[r0],
            static_cast<std::size_t>(displ[r1] - displ[r0])};
  }

  /// Bytes of "regular data" (ind + val + displ), the Table 3 metric.
  [[nodiscard]] std::int64_t regular_bytes() const noexcept {
    return static_cast<std::int64_t>(ind.size()) * sizeof(idx_t) +
           static_cast<std::int64_t>(val.size()) * sizeof(real) +
           static_cast<std::int64_t>(displ.size()) * sizeof(nnz_t);
  }

  /// Structural validation: monotone displ, in-range sorted columns.
  /// Throws InvariantError on violation.
  void validate() const;

  /// Maximum nonzeros in any row (ELL width).
  [[nodiscard]] idx_t max_row_nnz() const noexcept;
};

/// Row-wise incremental builder. Rows can be produced in parallel as
/// (index, value) lists and appended in order; assemble() finalizes.
class CsrBuilder {
 public:
  CsrBuilder(idx_t num_rows, idx_t num_cols);

  /// Sets row `r` from (column, value) pairs; pairs need not be sorted, and
  /// duplicate columns are coalesced by summation. Thread-safe for distinct
  /// rows.
  void set_row(idx_t r, std::span<const std::pair<idx_t, real>> entries);

  /// Assembles the final CSR (destroys builder contents).
  [[nodiscard]] CsrMatrix assemble();

 private:
  idx_t num_rows_;
  idx_t num_cols_;
  std::vector<std::vector<std::pair<idx_t, real>>> rows_;
};

/// Returns B with B(i, :) = A(row_perm_to_old[i], :) and every column j of A
/// renumbered to col_old_to_new[j]; entries re-sorted by new column. Used to
/// express a matrix in ordered (pseudo-Hilbert) index spaces.
[[nodiscard]] CsrMatrix permute(const CsrMatrix& a,
                                std::span<const idx_t> row_perm_to_old,
                                std::span<const idx_t> col_old_to_new);

/// Dense mat-vec reference for kernel validation (O(rows·cols) memory-free:
/// iterates CSR but without any layout tricks, accumulating in double).
void spmv_reference(const CsrMatrix& a, std::span<const real> x,
                    std::span<real> y);

}  // namespace memxct::sparse
