// Sharded-operator scaling report: P ∈ {1, 2, 4} shards over one phantom
// geometry, reporting the subsystem's two headline properties end to end:
//
//   1. bitwise parity — every P-shard CGLS image memcmp-equals the serial
//      P=1 reconstruction (owner-computes + halo duplication: no FP partial
//      sums ever cross a shard boundary);
//   2. memory-centric scaling — the max per-rank resident footprint shrinks
//      ~1/P as P grows (the Table 1 contrast with compute-centric
//      duplication), and the exchange stays sparser than dense duplication.
//
// The parity and per-rank-footprint gates are unit tests
// (ShardScaling.ImagesMatchSerialAndRankBytesShrink in test_shard, run
// under both presets); this binary reports them in its table and JSON and
// gates only the exchange traffic below.
//
// Comm-gate fine print: parallel-beam CT couples every shard to the centre
// of rotation (every angle's rays cross it), so the AGGREGATE per-rank sent
// bytes obey the duplication lower bound N·(P−1)/P — they grow toward N with
// P at small shard counts, for any exchange algorithm. What the sparse plans
// do guarantee, and what we gate on, is (a) the per-peer message size — the
// sparse-alltoallv granularity — shrinks with P, and (b) the aggregate
// growth ratio stays strictly below the dense-duplication bound
// ((P₂−1)/P₂)/((P₁−1)/P₁), i.e. the footprint compaction prunes real bytes.
//
// Also reports the comm-vs-compute split (measured per-round copy times),
// the exchange time the tile pipeline hid behind compute (overlap_saved),
// and the alpha-beta model's cost for the same traffic next to the
// measurement — the model-vs-measured skew column says how far the target
// interconnect's projection is from what this host actually paid.
//
//   bench_shard_scaling [--json <path>] [--quick]
//
// Exits nonzero when the exchange traffic gates fail — CI runs this as a
// gate, not just a report. Honors MEMXCT_BENCH_SCALE like every bench.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/reconstructor.hpp"
#include "io/table.hpp"
#include "phantom/phantom.hpp"

namespace {

using namespace memxct;

struct Row {
  int shards = 1;
  bool bitwise_equal = true;        ///< vs the serial P=1 image.
  std::int64_t total_bytes = 0;     ///< Sum of per-rank resident bytes.
  std::int64_t max_rank_bytes = 0;  ///< Widest shard's resident footprint.
  std::int64_t max_rank_sent = 0;   ///< Widest shard's exchange bytes/solve.
  std::int64_t sent_per_peer = 0;   ///< max_rank_sent / (P - 1): message size.
  double comm_seconds = 0.0;  ///< Measured exchange time (whole solve).
  double comm_modeled_seconds = 0.0;  ///< Same traffic under the α–β model.
  double compute_seconds = 0.0;       ///< Measured local-kernel wall time.
  double overlap_saved_seconds = 0.0;
  double solve_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg == "--quick") quick = true;
    else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--quick]\n", argv[0]);
      return 1;
    }
  }

  // Floor of 32: below that the halo-sparsity margin over the dense
  // duplication bound evaporates and the traffic gate turns into noise.
  const idx_t size =
      std::max<idx_t>(32, (quick ? 48 : 128) / bench::env_scale());
  const idx_t angles = size * 3 / 2;
  const auto g = geometry::make_geometry(angles, size);
  const auto image = phantom::shepp_logan(size);
  const auto sino = phantom::forward_project(g, image);

  core::Config config;
  config.iterations = quick ? 6 : 12;

  std::printf("shard scaling: %d x %d sinogram, CGLS x%d, P in {1, 2, 4}\n\n",
              angles, size, config.iterations);

  // Serial reference (also the P=1 row: same operator family, no shards).
  const core::Reconstructor serial(g, config);
  const auto reference = serial.reconstruct(sino);
  std::vector<Row> rows;
  {
    Row row;
    row.shards = 1;
    row.total_bytes = serial.preprocess_report().regular_bytes;
    row.max_rank_bytes = row.total_bytes;
    row.solve_seconds = reference.solve.seconds;
    rows.push_back(row);
  }

  for (const int shards : {2, 4}) {
    core::Config sharded = config;
    sharded.num_shards = shards;
    const core::Reconstructor recon(g, sharded);
    const auto* op = recon.shard_op();
    const auto result = recon.reconstruct(sino);

    Row row;
    row.shards = shards;
    row.bitwise_equal =
        result.image.size() == reference.image.size() &&
        std::memcmp(result.image.data(), reference.image.data(),
                    result.image.size() * sizeof(real)) == 0;
    row.total_bytes = op->bytes();
    for (int p = 0; p < shards; ++p) {
      row.max_rank_bytes = std::max(row.max_rank_bytes, op->rank_bytes(p));
      row.max_rank_sent =
          std::max(row.max_rank_sent, op->rank_comm_stats(p).bytes_sent);
    }
    row.sent_per_peer = row.max_rank_sent / (shards - 1);
    // reconstruct_slice reset the counters at solve start, so the stats are
    // exactly this solve's applies.
    row.comm_seconds = op->stats().comm_seconds;
    row.comm_modeled_seconds = op->stats().comm_modeled_seconds;
    row.compute_seconds = op->stats().compute_seconds;
    row.overlap_saved_seconds = op->stats().overlap_saved_seconds;
    row.solve_seconds = result.solve.seconds;
    rows.push_back(row);
  }

  io::TablePrinter table("Sharded scaling (per-solve, CGLS)");
  table.header({"P", "parity", "max rank B", "total B", "max sent/solve",
                "sent/peer", "comm", "comm model", "model/meas", "compute",
                "overlap hid", "solve"});
  for (const Row& r : rows)
    table.row({std::to_string(r.shards), r.bitwise_equal ? "bitwise" : "DIFF",
               io::TablePrinter::bytes(static_cast<double>(r.max_rank_bytes)),
               io::TablePrinter::bytes(static_cast<double>(r.total_bytes)),
               io::TablePrinter::bytes(static_cast<double>(r.max_rank_sent)),
               io::TablePrinter::bytes(static_cast<double>(r.sent_per_peer)),
               io::TablePrinter::time_s(r.comm_seconds),
               io::TablePrinter::time_s(r.comm_modeled_seconds),
               r.comm_seconds > 0.0
                   ? io::TablePrinter::num(r.comm_modeled_seconds /
                                           r.comm_seconds)
                   : "-",
               io::TablePrinter::time_s(r.compute_seconds),
               io::TablePrinter::time_s(r.overlap_saved_seconds),
               io::TablePrinter::time_s(r.solve_seconds)});
  table.print();

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_shard_scaling: cannot open %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          out,
          "{\"shards\": %d, \"bitwise_equal\": %s, \"total_bytes\": %lld, "
          "\"max_rank_bytes\": %lld, \"max_rank_bytes_sent\": %lld, "
          "\"max_rank_bytes_sent_per_peer\": %lld, "
          "\"comm_seconds\": %.6g, \"comm_modeled_seconds\": %.6g, "
          "\"comm_model_skew\": %.6g, \"compute_seconds\": %.6g, "
          "\"overlap_saved_seconds\": %.6g, \"solve_seconds\": %.6g}%s\n",
          r.shards, r.bitwise_equal ? "true" : "false",
          static_cast<long long>(r.total_bytes),
          static_cast<long long>(r.max_rank_bytes),
          static_cast<long long>(r.max_rank_sent),
          static_cast<long long>(r.sent_per_peer), r.comm_seconds,
          r.comm_modeled_seconds,
          r.comm_seconds > 0.0 ? r.comm_modeled_seconds / r.comm_seconds
                               : 0.0,
          r.compute_seconds, r.overlap_saved_seconds, r.solve_seconds,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // CI gates: the exchange traffic. Parity and the per-rank footprint are
  // gated by test_shard.
  int violations = 0;
  if (!(rows[2].sent_per_peer < rows[1].sent_per_peer)) {
    std::fprintf(stderr,
                 "FAIL: per-peer exchange message size does not shrink from "
                 "P=2 to P=4\n");
    ++violations;
  }
  // Dense duplication would grow aggregate sent by ((4-1)/4)/((2-1)/2) =
  // 1.5x from P=2 to P=4; the sparse plans must beat that bound.
  if (!(2 * rows[2].max_rank_sent < 3 * rows[1].max_rank_sent)) {
    std::fprintf(stderr,
                 "FAIL: aggregate per-rank traffic does not beat the dense "
                 "duplication bound (1.5x growth P=2 -> P=4)\n");
    ++violations;
  }
  if (violations == 0)
    std::printf("\nOK: per-peer traffic shrinks with P; aggregate exchange "
                "beats dense duplication\n");
  return violations == 0 ? 0 : 1;
}
