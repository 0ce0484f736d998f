// Precomputed sparse exchange plans for the sharded operator.
//
// The sharded apply is owner-computes with halo duplication: every shard
// owns a contiguous output row range and needs, as input, exactly the
// (sorted, deduplicated) set of global input indices its local rows touch —
// its *footprint*. Entries a shard owns itself are gathered locally; the
// rest arrive over a sparse alltoallv as exact copies (C in A = R·C·A_p,
// run in the duplication direction). Because only copies cross shard
// boundaries — never floating-point partial sums — the apply is bitwise
// identical to the serial kernel for any shard count.
//
// Plans are built once per operator and replayed every apply. Each plan is
// split per pipeline tile (the overlap unit: exchange tile t+1 while
// computing tile t) and, within a tile, into one or two *rounds*:
//
//   flat (group_size <= 1): one round, owner -> consumer directly.
//   two-level (group_size > 1, Petascale XCT's hierarchical reduction tree
//   run in reverse): round 1 sends each destination *group* the union of
//   its members' needs, addressed to the group's proxy shard (deduplicating
//   inter-group traffic); round 2 has proxies forward per-member copies
//   from their staging buffers. Intra-group spread happens in round 2 only.
//
// Everything in a plan is a pure function of (row partition, matrix
// structure, tiles, group_size) with all loops in ascending shard/index
// order, so rebuilding from the same traced matrix yields a byte-identical
// plan — `fingerprint()` serializes a plan canonically so tests can assert
// exactly that.
//
// reduce_traffic counts the other way to run C: the paper's reduce
// direction, where partial sinogram sums cross ranks and R adds them up.
// Nothing executes it; benches read its counts to model the paper's
// traffic beside the halo plan's measured one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dist/partition.hpp"
#include "perf/network_model.hpp"
#include "sparse/csr.hpp"

namespace memxct::shard {

/// One alltoallv of an exchange schedule, fully precomputed.
struct Round {
  /// Pack sources: staging-buffer positions (round 2 of a two-level plan)
  /// instead of global input indices (round 1 / flat).
  bool from_staging = false;
  /// Receive disposition: the recv buffer *is* the proxy staging buffer
  /// (round 1 of a two-level plan) instead of scattering into the local
  /// halo vector via scatter_pos.
  bool to_staging = false;
  /// [src shard]: what to copy into the send buffer, grouped by destination
  /// per send_displ. Global input indices, or staging positions when
  /// from_staging.
  std::vector<std::vector<idx_t>> pack_index;
  /// [src shard]: destination group boundaries, size num_shards+1 — handed
  /// to SimComm::alltoallv unchanged.
  std::vector<std::vector<nnz_t>> send_displ;
  /// [dst shard]: local-footprint position of each received element in
  /// arrival order (source ascending, then send order). Empty when
  /// to_staging.
  std::vector<std::vector<idx_t>> scatter_pos;
};

/// Complete exchange schedule for one apply direction.
struct ExchangePlan {
  int num_shards = 1;
  int group_size = 1;
  int tiles = 1;
  int rounds_per_tile = 1;  ///< 1 flat, 2 two-level.
  /// Tile-major: rounds[t * rounds_per_tile + r].
  std::vector<Round> rounds;
  /// [shard]: owned global input indices each shard needs — gathered
  /// locally before tile 0, never sent over the network.
  std::vector<std::vector<idx_t>> self_index;
  /// [shard]: their positions in the shard's footprint vector.
  std::vector<std::vector<idx_t>> self_pos;

  [[nodiscard]] const Round& round(int tile, int r) const {
    return rounds[static_cast<std::size_t>(tile) * rounds_per_tile +
                  static_cast<std::size_t>(r)];
  }

  /// Total elements moved through exchange rounds per apply (both rounds of
  /// a two-level plan, including self-destined copies SimComm leaves
  /// uncharged).
  [[nodiscard]] std::int64_t halo_elements() const;

  /// Approximate resident bytes of the plan's index arrays.
  [[nodiscard]] std::int64_t bytes() const;

  /// Canonical decimal serialization of every field. Two plans are
  /// byte-identical iff their fingerprints match — the determinism test
  /// compares these across independent rebuilds.
  [[nodiscard]] std::string fingerprint() const;
};

/// Builds the exchange schedule that delivers, to each shard, every
/// non-owned entry of its footprint before the pipeline tile that first
/// needs it.
///
///   input_owner   ownership of the *input* vector (column domain).
///   footprint     [shard] sorted deduplicated global input indices used by
///                 the shard's local rows.
///   first_tile    [shard][i] first pipeline tile whose local rows touch
///                 footprint[shard][i]; entries must be < tiles.
///   tiles         pipeline tile count (>= 1).
///   group_size    <= 1 for flat; otherwise shards are grouped into
///                 ceil(P/group_size) consecutive groups with the first
///                 member as proxy.
[[nodiscard]] ExchangePlan build_exchange_plan(
    const dist::DomainPartition& input_owner,
    const std::vector<std::vector<idx_t>>& footprint,
    const std::vector<std::vector<int>>& first_tile, int tiles,
    int group_size);

/// One forward apply of the paper's A = R·C·A_p (Section 3.4.3), counted.
/// Tomogram rank p holds A_p: one partial row for every row of A with a
/// column in p's range. C moves each partial value to the rank owning that
/// sinogram row, where R sums them. The backprojection's C^T moves the same
/// counts the other way.
struct ReduceTraffic {
  /// Row-major [source * P + owner] over P ranks: partial rows tomogram rank
  /// `source` computes for sinogram rows rank `owner` holds, i.e. the
  /// elements C moves between them (the diagonal never leaves its rank).
  std::vector<std::int64_t> traffic;
  std::vector<std::int64_t> rank_nnz;           ///< [rank] nnz(A_p).
  std::vector<std::int64_t> rank_partial_rows;  ///< [rank] rows of A_p.
  /// [rank] A_p and A_p^T as CSR plus the partial-row and receive maps:
  /// what the rank holds to run its share of the apply.
  std::vector<std::int64_t> rank_memory_bytes;

  /// nnz(C) = nnz(R), every rank's partial rows (Table 1's O(MN·√P)).
  [[nodiscard]] std::int64_t total_partial_rows() const;
  /// Off-rank fp32 bytes and messages `rank` sends and receives in C.
  [[nodiscard]] perf::CommStats rank_stats(int rank) const;
};

/// Counts ReduceTraffic in one sweep over A's rows. A row's sorted columns
/// make each tomogram rank's entries one contiguous run, and each run is
/// one partial row. `sino` owns A's rows and `tomo` its columns; both must
/// have the same rank count.
[[nodiscard]] ReduceTraffic reduce_traffic(const sparse::CsrMatrix& a,
                                           const dist::DomainPartition& sino,
                                           const dist::DomainPartition& tomo);

}  // namespace memxct::shard
