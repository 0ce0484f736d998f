// StreamSession: online reconstruction through the serving stack.
//
// The core-level StreamingReconstructor (core/stream.hpp) solves inline on
// the caller's thread; a beamline front end instead wants each preview to
// go through the server — sharing the operator registry with other tenants,
// riding the Interactive priority lane so previews return at interactive
// deadlines even under bulk load, and inheriting the degradation ladder,
// retry, and watchdog machinery for free.
//
// A StreamSession accumulates arriving angles in a core::AngleAccumulator
// and, per chunk, submits one request carrying the partial sinogram, the
// arrival mask, and the previous preview as warm start. The preview
// advances only on a usable terminal status (Ok / Degraded /
// Diverged-with-image), so re-pushing a failed chunk is a bitwise-identical
// retry.
#pragma once

#include <span>
#include <vector>

#include "core/stream.hpp"
#include "serve/server.hpp"

namespace memxct::serve {

struct StreamSessionOptions {
  /// Previews are interactive by default — that is the lane's purpose.
  Priority priority = Priority::Interactive;
  /// Per-preview latency budget (seconds; 0 = none). Forwarded to the
  /// request, so an over-budget preview degrades or salvages through the
  /// server's ladder instead of blocking the stream.
  double deadline_seconds = 0.0;
};

class StreamSession {
 public:
  /// `server` must outlive the session. The config must use an OS solver,
  /// as for core::StreamingReconstructor (throws InvalidArgument otherwise).
  StreamSession(Server& server, const geometry::Geometry& geometry,
                const core::Config& config, StreamSessionOptions options = {});

  /// Adds `count` angles from `first_angle` on (core::AngleAccumulator::add),
  /// submits one preview request over all angles arrived so far, and blocks
  /// for its result.
  RequestResult push_chunk(int first_angle, int count,
                           std::span<const real> rows);

  [[nodiscard]] bool complete() const noexcept { return arrived_.complete(); }
  /// Latest usable preview (natural layout); empty before one exists.
  [[nodiscard]] const std::vector<real>& preview() const noexcept {
    return preview_;
  }

 private:
  Server* server_;
  geometry::Geometry geometry_;
  core::Config config_;
  StreamSessionOptions options_;
  core::AngleAccumulator arrived_;
  std::vector<real> preview_;
};

}  // namespace memxct::serve
