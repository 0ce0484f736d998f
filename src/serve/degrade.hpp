// Degradation ladder: quality rungs the server steps down under overload.
//
// MemXCT's knobs — reduced-precision operator storage (PR 6), relaxed
// early-stop tolerance, capped iteration budgets — form an ordered ladder
// of (cheaper, coarser) reconstruction configurations. When the EWMA
// feasibility gate says a deadline cannot be met at full quality, the
// scheduler walks the ladder and admits the request at the first rung whose
// scaled cost estimate fits, instead of rejecting it. The result is tagged
// with the rung used and the achieved residual (RequestStatus::Degraded),
// so clients can distinguish a preview from a final image.
//
// Each rung also carries its documented error budget (the PR 6
// fp64-reference budgets for reduced precision); the chaos harness verifies
// every Degraded result against it. A rung that changes only solver
// settings (tolerance, iteration cap) at fp32 is bitwise-identical to a
// direct run with those settings — degradation changes WHICH configuration
// runs, never how deterministically it runs.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"

namespace memxct::serve {

/// Upper bound on ladder length (fixed-size per-rung metric arrays).
inline constexpr int kMaxRungs = 8;

/// One quality rung. Rung 0 is implicit "full quality" (the submitted
/// config untouched); configured rungs are numbered 1..rungs.size() in
/// decreasing quality / cost.
struct DegradeRung {
  std::string name;  ///< Human-readable tag ("fast", "preview", ...).
  /// Operator value storage for this rung. A reduced precision is applied
  /// only when core::validate_config accepts the rewritten config (reduced
  /// precision is unsharded Buffered only); otherwise, and under Fp32, the
  /// rung keeps the submitted precision, so a Baseline request's preview
  /// runs fp32 at the rung's iteration cap. Changing precision selects a DIFFERENT registry
  /// operator (the opkey carries it), so a preview rung can hit a warm
  /// reduced-precision entry.
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
  /// Early-stop tolerance override; 0 keeps the submitted early-stop
  /// settings. Only CGLS honors early stopping.
  double early_stop_tol = 0.0;
  /// Iteration budget as a fraction of the submitted config's iterations
  /// (ceil, clamped to >= 1). 1.0 keeps the full budget.
  double iteration_fraction = 1.0;
  /// Expected cost relative to full quality, used by the admission gate:
  /// rung feasible iff estimate × cost_scale × margin <= deadline.
  double cost_scale = 1.0;
  /// Documented quality floor versus an fp32 reference run with the SAME
  /// solver settings: minimum PSNR in dB (the PR 6 budgets). 0 means the
  /// rung is exact (fp32 arithmetic — bitwise equal to its reference).
  double min_psnr_db = 0.0;
};

/// Ladder + salvage policy. Disabled by default: the server's historical
/// all-or-nothing behavior (reject infeasible, discard deadline-hit solves)
/// is preserved unless the operator opts in.
struct DegradeOptions {
  bool enabled = false;
  /// Salvage deadline-hit solves: a request whose deadline expires
  /// mid-solve returns the best-so-far iterate as Degraded (instead of
  /// DeadlineExceeded with the image discarded), provided at least one
  /// iteration completed.
  bool salvage = true;
  /// Rungs in decreasing quality; admission walks them in order.
  std::vector<DegradeRung> rungs;
};

/// The default two-rung ladder:
///   rung 1 "fast":    fp32, early-stop tol 1e-2, half the iterations;
///   rung 2 "preview": bf16 operator (unsharded Buffered requests; others
///                     stay fp32), tol 3e-2, quarter iterations,
///                     PSNR >= 28 dB vs its fp32 reference (PR 6 budget).
[[nodiscard]] std::vector<DegradeRung> default_ladder();

/// Returns `config` with `rung` applied (iteration cap, early-stop
/// override, and precision where core::validate_config accepts it).
[[nodiscard]] core::Config apply_rung(const core::Config& config,
                                      const DegradeRung& rung);

/// Validates a ladder (size <= kMaxRungs, fractions in (0, 1], positive
/// cost scales); throws InvalidArgument on violation.
void validate_ladder(const std::vector<DegradeRung>& rungs);

}  // namespace memxct::serve
