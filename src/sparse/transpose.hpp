// Scan-based, order-preserving sparse transposition (paper Section 3.5.1).
//
// MemXCT builds the backprojection matrix A^T from A with a scan-based
// transposition that keeps row-segment relative order (so the pseudo-Hilbert
// data locality survives), instead of an atomic scatter that would randomize
// entry order. The Buffered operator's backward is the same transposition
// written straight into the staged layout from the buffered forward.
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

/// A^T's staged layout written straight from a built buffered forward: for
/// fwd = build_buffered(a, any config), or compress_buffered of it into
/// `storage`, it equals, array for array and byte for byte,
/// compress_buffered(build_buffered(transpose(a), config), storage). No CSR
/// A^T exists on the way, so the operator build holds at most the forward
/// and the backward at once (DESIGN.md §23). Three OpenMP-parallel passes
/// over blocks of forward partitions (footprint counts, map and cell
/// counts, placement), bitwise identical for any thread count. Throws
/// InvariantError unless fwd holds fp32 values or values in `storage`.
[[nodiscard]] BufferedMatrix build_buffered_transpose(
    const BufferedMatrix& fwd, const BufferConfig& config = {},
    ValueStorage storage = ValueStorage::Fp32);

/// The alternative Section 3.5.1 rejects: an atomic-cursor parallel
/// scatter whose thread interleaving *randomizes* the entry order within
/// each transposed row. Numerically a valid transpose, but it destroys the
/// pseudo-Hilbert locality the downstream kernels rely on — kept as the
/// ablation comparator (bench_ablation_transpose).
[[nodiscard]] CsrMatrix transpose_atomic(const CsrMatrix& a);

}  // namespace memxct::sparse
