// In-process operator autotuner (ISSUE 10 / ROADMAP "Self-tuning operator
// builds"): OSKI-style measured selection of the memoized operator's layout
// knobs, closing the loop from bench_fig10_tuning's offline sweep to the
// build path that serves real requests.
//
// At operator-build time the tuner micro-benchmarks a pruned candidate set
// (kernel ∈ {Buffered, Baseline, EllBlock} × schedule × a small
// partsize/buffsize grid seeded from the Fig 10 space) on the ACTUAL traced
// geometry: each candidate constructs a MemXCTOperator from a copy of the
// already-built staging CSR — no candidate pays a re-trace — and runs short
// timed apply/apply_transpose repetitions (apply_block/apply_transpose_block
// at the configured block width when it is > 1). The winner (argmax
// regular-stream GB/s over one forward+backprojection pass) is recorded as a
// TunedChoice in a versioned, CRC-checksummed `.tune` file in the resil
// disk-cache tier, keyed by a geometry/opkey fingerprint, so later builds —
// and other serve tenants via the OperatorRegistry — replay the decision
// instantly and deterministically instead of re-measuring.
//
// Determinism contract: measurement picks the CONFIG, never the arithmetic.
// The tuner only resolves kernel / schedule / buffer; precision, block
// width, ordering, and tile size are held fixed at the caller's values (they
// change output bits or quality, which is the user's call, not a timer's).
// A tuned build is therefore bitwise identical to an untuned build forced to
// the same resolved config — the `.tune` file affects WHICH operator is
// built, never what that operator computes.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "geometry/geometry.hpp"
#include "sparse/csr.hpp"

namespace memxct::tune {

/// One measured point of the candidate set. `buffer` is meaningful for the
/// Buffered kernel only (other kernels carry the base config's values,
/// which they ignore).
struct Candidate {
  core::KernelKind kernel = core::KernelKind::Buffered;
  core::ScheduleKind schedule = core::ScheduleKind::StaticPlan;
  sparse::BufferConfig buffer;
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
  double apply_seconds = 0.0;      ///< Best-of-reps forward projection.
  double transpose_seconds = 0.0;  ///< Best-of-reps backprojection.
  double gbs = 0.0;     ///< Regular-stream GB/s of one fwd+bwd pass.
  double gflops = 0.0;  ///< FMA GFLOP/s of one fwd+bwd pass.
  bool chosen = false;
};

struct TuneOptions {
  int reps = 3;        ///< Timed passes per candidate (plus one warm-up).
  bool quick = false;  ///< Shrink the Buffered grid (tests / CI smoke).
};

/// The persisted `.tune` record: the decision plus the evidence for it.
struct TunedChoice {
  std::string fingerprint;            ///< Held-fixed-field fingerprint text.
  std::vector<Candidate> candidates;  ///< Full measured table.
  int chosen_index = -1;              ///< Winner's index into `candidates`.
  double measure_seconds = 0.0;       ///< Wall time the measurement cost.
};

/// What autotune_operator did, for reports and metrics.
struct TuneReport {
  bool tuned = false;          ///< A decision was applied to the config.
  bool cache_hit = false;      ///< Decision replayed from a `.tune` file.
  bool cache_corrupt = false;  ///< `.tune` present but invalid; re-measured.
  double measure_seconds = 0.0;  ///< 0 on a pure replay.
  std::string fingerprint;
  std::string tune_path;  ///< File consulted/written; "" = no cache_dir.
  Candidate chosen;
  std::vector<Candidate> candidates;
};

/// Canonical text over the HELD-FIXED fields only — geometry, ordering,
/// tile size, block width, precision, ell_block_rows. The tuned-away fields
/// (kernel, schedule, buffer) are deliberately absent: two requests that
/// differ only in those must map to the same cached decision.
[[nodiscard]] std::string tune_fingerprint(const geometry::Geometry& geometry,
                                           const core::Config& config);

/// `.tune` file name (stem = FNV-1a of the fingerprint) inside `dir`.
[[nodiscard]] std::string tune_file_path(const std::string& dir,
                                         const std::string& fingerprint);

/// Checked `.tune` persistence (resil tier: versioned, CRC32C, atomic
/// rename). load throws IoError on any corruption or version mismatch —
/// callers fall back to re-measurement, never trust a damaged record.
void save_tuned_choice(const std::string& path, const TunedChoice& choice);
[[nodiscard]] TunedChoice load_tuned_choice(const std::string& path);

/// The pruned candidate set for `base`, in deterministic order with the
/// base config itself first (ties favor what the caller asked for).
/// Candidates the pipeline rejects (core::validate_config) are pruned here,
/// so e.g. reduced precision drops the EllBlock rungs automatically.
[[nodiscard]] std::vector<Candidate> enumerate_candidates(
    const core::Config& base, const TuneOptions& options = {});

/// Measures every candidate on the staging CSR `a` (each one builds a
/// MemXCTOperator from a copy; `a` is untouched) and marks the winner.
[[nodiscard]] TunedChoice measure_candidates(const sparse::CsrMatrix& a,
                                             const core::Config& base,
                                             const TuneOptions& options = {});

/// End-to-end policy step for the Reconstructor build path: replay or
/// measure per config.autotune, persist the decision when cache_dir is set,
/// then resolve `config` in place (kernel/schedule/buffer := winner's) and
/// clear config.autotune — the caller proceeds exactly as if the user had
/// passed the resolved config explicitly. No-op when autotune == Off.
TuneReport autotune_operator(const geometry::Geometry& geometry,
                             core::Config& config, const sparse::CsrMatrix& a,
                             const TuneOptions& options = {});

/// Candidate table as a JSON array — one schema shared by the tuner's
/// reports (memxct_cli --autotune-json, CI artifacts) and
/// bench_fig10_tuning --json, so offline sweeps and in-process measurements
/// are directly comparable.
[[nodiscard]] std::string candidates_json(
    const std::vector<Candidate>& candidates);

}  // namespace memxct::tune
