#include "serve/degrade.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace memxct::serve {

std::vector<DegradeRung> default_ladder() {
  std::vector<DegradeRung> rungs(2);
  rungs[0].name = "fast";
  rungs[0].precision = sparse::ValueStorage::Fp32;
  rungs[0].early_stop_tol = 1e-2;
  rungs[0].iteration_fraction = 0.5;
  rungs[0].cost_scale = 0.5;
  rungs[0].min_psnr_db = 0.0;  // fp32 arithmetic: exact vs reference
  rungs[1].name = "preview";
  rungs[1].precision = sparse::ValueStorage::Bf16;
  rungs[1].early_stop_tol = 3e-2;
  rungs[1].iteration_fraction = 0.25;
  rungs[1].cost_scale = 0.25;
  rungs[1].min_psnr_db = 28.0;  // PR 6 bf16 budget vs fp32 reference
  return rungs;
}

core::Config apply_rung(const core::Config& config, const DegradeRung& rung) {
  core::Config out = config;
  // Iteration cap: a fraction of the submitted budget, never below one
  // iteration (a zero-iteration "result" would be the zero image).
  if (rung.iteration_fraction < 1.0) {
    const double capped =
        std::ceil(static_cast<double>(config.iterations) *
                  rung.iteration_fraction);
    out.iterations = capped < 1.0 ? 1 : static_cast<int>(capped);
  }
  // Relaxed early stop (CGLS honors it; SIRT/GD keep the iteration cap as
  // their only budget knob).
  if (rung.early_stop_tol > 0.0) {
    out.early_stop = true;
    out.early_stop_tol = rung.early_stop_tol;
  }
  // A reduced rung precision only where core::validate_config accepts it,
  // so a degraded request is never rewritten into the UnsupportedConfigError
  // admission rejects (reduced precision is unsharded Buffered only). Any
  // other request keeps its submitted precision, as it does under an fp32
  // rung; the rung's other knobs still apply.
  if (rung.precision != sparse::ValueStorage::Fp32) {
    core::Config rewritten = out;
    rewritten.precision = rung.precision;
    try {
      core::validate_config(rewritten);
      out = rewritten;
    } catch (const InvalidArgument&) {
    }
  }
  return out;
}

void validate_ladder(const std::vector<DegradeRung>& rungs) {
  if (static_cast<int>(rungs.size()) > kMaxRungs)
    throw InvalidArgument("degrade: ladder exceeds kMaxRungs");
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const DegradeRung& rung = rungs[r];
    std::ostringstream os;
    os << "degrade: rung " << (r + 1) << " (" << rung.name << "): ";
    if (rung.iteration_fraction <= 0.0 || rung.iteration_fraction > 1.0) {
      os << "iteration_fraction must be in (0, 1]";
      throw InvalidArgument(os.str());
    }
    if (rung.cost_scale <= 0.0 || rung.cost_scale > 1.0) {
      os << "cost_scale must be in (0, 1]";
      throw InvalidArgument(os.str());
    }
    if (rung.early_stop_tol < 0.0) {
      os << "early_stop_tol must be >= 0";
      throw InvalidArgument(os.str());
    }
  }
}

}  // namespace memxct::serve
