// Abstract forward/backprojection operator.
//
// Solvers (CGLS, SIRT, GD) are written against this interface so the same
// algorithm runs on the serial memoized operator, the buffered-kernel
// operator, the compute-centric on-the-fly operator, and the sharded
// operator — the "plug-and-play" property of Section 3.5.2.
#pragma once

#include <span>

#include "common/types.hpp"

namespace memxct::solve {

/// y = A·x (forward projection) and x = A^T·y (backprojection).
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Sinogram length (rows of A).
  [[nodiscard]] virtual idx_t num_rows() const = 0;
  /// Tomogram length (columns of A).
  [[nodiscard]] virtual idx_t num_cols() const = 0;

  /// y = A·x. x has num_cols() elements, y has num_rows().
  virtual void apply(std::span<const real> x, std::span<real> y) const = 0;

  /// x = A^T·y.
  virtual void apply_transpose(std::span<const real> y,
                               std::span<real> x) const = 0;

  /// Block (multi-RHS) forward apply: y[s] = A·x[s] for k slices stored as
  /// contiguous slabs — slice s occupies x[s·num_cols(), (s+1)·num_cols())
  /// and y[s·num_rows(), (s+1)·num_rows()). The default runs k single
  /// applies, so every operator supports the block solver; operators with a
  /// fused multi-RHS path (core::MemXCTOperator) override it to stream the
  /// matrix once per k slices. Overrides MUST keep each slice's result
  /// bitwise identical to apply() on that slice alone — the block solver's
  /// parity contract builds on it.
  virtual void apply_block(std::span<const real> x, std::span<real> y,
                           idx_t k) const {
    const auto n = static_cast<std::size_t>(num_cols());
    const auto m = static_cast<std::size_t>(num_rows());
    for (idx_t s = 0; s < k; ++s)
      apply(x.subspan(static_cast<std::size_t>(s) * n, n),
            y.subspan(static_cast<std::size_t>(s) * m, m));
  }

  /// Block backprojection: x[s] = A^T·y[s], same slab layout and the same
  /// per-slice bitwise contract as apply_block.
  virtual void apply_transpose_block(std::span<const real> y,
                                     std::span<real> x, idx_t k) const {
    const auto n = static_cast<std::size_t>(num_cols());
    const auto m = static_cast<std::size_t>(num_rows());
    for (idx_t s = 0; s < k; ++s)
      apply_transpose(y.subspan(static_cast<std::size_t>(s) * m, m),
                      x.subspan(static_cast<std::size_t>(s) * n, n));
  }
};

}  // namespace memxct::solve
