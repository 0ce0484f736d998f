// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench honors MEMXCT_BENCH_SCALE (integer >= 1): working dataset
// sizes are divided by an *additional* factor of that value, so the whole
// suite can be smoke-tested quickly (e.g. MEMXCT_BENCH_SCALE=4) or run at
// full working scale (unset / 1).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/aligned.hpp"
#include "geometry/projector.hpp"
#include "hilbert/ordering.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "phantom/datasets.hpp"
#include "sparse/csr.hpp"

namespace memxct::bench {

/// Extra divisor from the environment (default 1).
inline idx_t env_scale() {
  const char* v = std::getenv("MEMXCT_BENCH_SCALE");
  if (v == nullptr) return 1;
  const int s = std::atoi(v);
  return s >= 1 ? static_cast<idx_t>(s) : 1;
}

/// Dataset spec at `divisor x env_scale()` below the registry's *working*
/// size (which is itself paper/4, or paper/16 for RDS2).
inline phantom::DatasetSpec spec_for(const std::string& name, idx_t divisor) {
  const auto& base = phantom::dataset(name);
  const idx_t base_divisor =
      std::max<idx_t>(1, base.paper_channels / base.channels);
  return base.scaled_by(base_divisor * divisor * env_scale());
}

/// Dataset spec at `divisor x env_scale()` below *paper* size — for benches
/// that need a specific absolute size (e.g. large enough that the matrix
/// streams exceed the host LLC).
inline phantom::DatasetSpec spec_paper_over(const std::string& name,
                                            idx_t divisor) {
  return phantom::dataset(name).scaled_by(divisor * env_scale());
}

/// Projection matrix of `spec` in the given ordering (both domains).
inline sparse::CsrMatrix build_matrix(const phantom::DatasetSpec& spec,
                                      hilbert::CurveKind kind,
                                      idx_t tile_size = 0) {
  const auto g = spec.geometry();
  const hilbert::Ordering sino(g.sinogram_extent(), kind, tile_size);
  const hilbert::Ordering tomo(g.tomogram_extent(), kind, tile_size);
  return geometry::build_projection_matrix(g, sino, tomo);
}

/// Per-slice regular matrix traffic of one solver iteration (one forward
/// plus one transpose apply) at multi-RHS width k, in bytes. Centralized so
/// every bench reporting "matrix bytes per slice" uses the same
/// perf::KernelWork accounting (matrix stream and staging-map reads
/// amortize over the k slices of a block apply; x gathers do not). The
/// accounting is precision-aware: reduced-precision operators carry their
/// actual stored value width, so their work structs report the smaller
/// footprint automatically.
inline double matrix_bytes_per_slice(const perf::KernelWork& fwd,
                                     const perf::KernelWork& bwd, int k) {
  return fwd.regular_bytes_at_width(k) + bwd.regular_bytes_at_width(k);
}

/// Median-of-reps timing of a kernel invocation (seconds). The first call
/// warms caches and is discarded.
template <class F>
double time_kernel(F&& fn, int reps = 5) {
  fn();  // warm-up
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    perf::WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace memxct::bench
