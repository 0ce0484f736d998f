// Projection-matrix construction: memoized ray tracing (paper Section 3.5,
// preprocessing step 2).
//
// Row i of A is the ray of ordered sinogram index i; its nonzeros are the
// pixels the ray intersects, with column = ordered tomogram index and value
// = intersection length. Building directly in ordered index space means no
// separate permutation pass. The CSR A keeps each row's entries sorted by
// ordered column (a per-row radix sort); the staged build reads rows in any
// column order, so the direct trace below does not sort.
//
// build_projection_buffered traces the same rows one buffered partition at a
// time and places them straight into the staged forward, so a caller that
// reads only the buffered operator never holds the CSR A (DESIGN.md §23).
#pragma once

#include "hilbert/ordering.hpp"
#include "geometry/geometry.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::geometry {

/// Builds A (sinogram-ordered rows × tomogram-ordered columns) by tracing
/// all M×N rays in parallel.
[[nodiscard]] sparse::CsrMatrix build_projection_matrix(
    const Geometry& geometry, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order);

/// The fp32 buffered forward of the same A, traced partition by partition
/// into per-thread scratch: byte for byte
/// sparse::build_buffered(build_projection_matrix(...), config), without
/// the CSR A. Two parallel passes over partitions, like the CSR trace: each
/// partition's nonzeros and footprint size, then trace and place, rows in
/// ray path order.
[[nodiscard]] sparse::BufferedMatrix build_projection_buffered(
    const Geometry& geometry, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order,
    const sparse::BufferConfig& config = {});

/// Convenience: A in natural (row-major) index spaces on both domains.
[[nodiscard]] sparse::CsrMatrix build_projection_matrix_natural(
    const Geometry& geometry);

}  // namespace memxct::geometry
