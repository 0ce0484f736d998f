// Scan-based, order-preserving sparse transposition (paper Section 3.5.1).
//
// MemXCT builds the backprojection matrix A^T from A with a scan-based
// transposition that keeps row-segment relative order (so the pseudo-Hilbert
// data locality survives), instead of an atomic scatter that would randomize
// entry order.
#pragma once

#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::sparse {

/// Returns A^T in O(nnz + blocks·cols). Both passes are OpenMP-parallel
/// over contiguous source-row blocks: per-block column histograms are
/// scanned into per-block cursors, so entries within each transposed row
/// appear in increasing original-row order (sorted, preserving locality)
/// and the result is bitwise identical for any thread count.
[[nodiscard]] CsrMatrix transpose(const CsrMatrix& a);

/// The same transpose read from a built fp32 buffered matrix: bitwise equal
/// to transpose(a) for b = build_buffered(a, any config), so the operator
/// build can release A before A^T exists.
[[nodiscard]] CsrMatrix transpose(const BufferedMatrix& b);

/// The alternative Section 3.5.1 rejects: an atomic-cursor parallel
/// scatter whose thread interleaving *randomizes* the entry order within
/// each transposed row. Numerically a valid transpose, but it destroys the
/// pseudo-Hilbert locality the downstream kernels rely on — kept as the
/// ablation comparator (bench_ablation_transpose).
[[nodiscard]] CsrMatrix transpose_atomic(const CsrMatrix& a);

}  // namespace memxct::sparse
