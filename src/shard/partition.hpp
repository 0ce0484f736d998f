// Kernel-aligned shard partitions.
//
// The sharded operator (shard/sharded_operator.hpp) owes the serving stack
// bitwise parity with the serial path, and the buffered kernel (Listing 3)
// groups each row's accumulation by the *partition* the row lives in: the
// per-partition data-access footprint is chunked into stages, and the row
// sum is accumulated stage by stage. A shard cut in the middle of a
// partition would change partition membership, hence stage structure, hence
// the floating-point grouping of row sums. Shard cuts therefore snap to
// multiples of the kernel partition size (buffer partsize for the buffered
// family, sparse::kCsrPartsize for baseline CSR), in BOTH domains — then a
// shard's local rows see exactly the partitions, footprint order, and stage
// chunking of the serial build, and per-row arithmetic is identical.
#pragma once

#include "dist/partition.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::shard {

/// Splits the rows of `a` into `num_shards` contiguous ranges, balancing
/// per-shard nonzeros, with every cut snapped to a multiple of `partsize`.
/// Deterministic: a pure function of (a.displ, num_shards, partsize), so
/// rebuilding from the same traced matrix reproduces the same cuts (the
/// exchange-plan determinism contract builds on this). Shards may be empty
/// when num_shards exceeds the partition count — empty shards hold empty
/// local matrices and exchange zero bytes.
[[nodiscard]] dist::DomainPartition partition_rows_aligned(
    const sparse::CsrMatrix& a, int num_shards, idx_t partsize);

/// The same cuts for the rows of a staged matrix at its own partsize, read
/// from its per-partition nonzero prefix: for b = build_buffered(a, config)
/// they equal partition_rows_aligned(a, num_shards, config.partsize).
[[nodiscard]] dist::DomainPartition partition_rows_aligned(
    const sparse::BufferedMatrix& b, int num_shards);

}  // namespace memxct::shard
