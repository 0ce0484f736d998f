// Streaming-angle ingest with warm-started ordered-subsets solves.
//
// Synchrotron detectors deliver projections angle by angle; waiting for the
// full sinogram wastes the beam time the paper's preprocessing amortization
// is meant to reclaim. StreamingReconstructor ingests angles in chunks and
// reconstructs after every chunk:
//
//   - arrived measurements accumulate in an AngleAccumulator (absent
//     angles stay zero and are masked out of the solve, SolveExtras);
//   - each chunk's solve warm-starts from the previous preview image, so
//     the work already spent refining earlier angles is never thrown away;
//   - the solver is one of the ordered-subsets pair (OS-SIRT / OS-SART),
//     whose masked normalization makes partial data well-posed.
//
// Determinism contract: a chunk's preview depends only on (operator,
// config, the set of arrived angles, previous iterate). push_chunk updates
// the warm-start image only after a successful solve, and re-pushing the
// same chunk re-sanitizes from the caller's pristine data — so retrying a
// chunk after a transient fault (ingest I/O error, injected chaos) yields
// bitwise-identical previews and final image (tests/test_os.cpp pins this).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/reconstructor.hpp"

namespace memxct::core {

/// The arrived angles of one streamed slice, shared by
/// StreamingReconstructor and serve::StreamSession: the natural-layout
/// sinogram (zero where an angle has not arrived) and the 0/1 angle mask.
class AngleAccumulator {
 public:
  /// Validates the geometry; no angle has arrived.
  explicit AngleAccumulator(const geometry::Geometry& geometry);

  /// Copies `count` angles from `first_angle` on (`rows`: count ×
  /// num_channels natural angle-major samples) and marks them arrived.
  /// Re-adding a range overwrites it, so a retry is bitwise idempotent.
  /// Throws InvalidArgument for an empty or out-of-range chunk, or rows
  /// whose size does not match the range.
  void add(int first_angle, int count, std::span<const real> rows);

  [[nodiscard]] bool complete() const noexcept {
    return std::find(mask_.begin(), mask_.end(), real{0}) == mask_.end();
  }
  [[nodiscard]] std::span<const real> sinogram() const noexcept {
    return sino_;
  }
  [[nodiscard]] std::span<const real> angle_mask() const noexcept {
    return mask_;
  }

 private:
  idx_t num_channels_;
  std::vector<real> sino_;
  std::vector<real> mask_;
};

/// Incremental reconstruction session over one slice: the arrived angles
/// and the latest preview. Not thread-safe; one session per slice.
class StreamingReconstructor {
 public:
  /// `recon` must use an OS solver (throws InvalidArgument otherwise;
  /// validate_config keeps those unsharded) and outlive the session.
  explicit StreamingReconstructor(const Reconstructor& recon);

  /// Adds `count` angles from `first_angle` on (AngleAccumulator::add), then
  /// solves warm-started from the previous preview. Returns the preview
  /// reconstruction over all angles arrived so far.
  ReconstructionResult push_chunk(int first_angle, int count,
                                  std::span<const real> rows,
                                  const solve::CancelToken* cancel = nullptr,
                                  solve::ProgressSink* progress = nullptr);

  /// True once every angle of the geometry has arrived.
  [[nodiscard]] bool complete() const noexcept { return arrived_.complete(); }
  /// Latest preview image (natural layout); empty before the first chunk.
  [[nodiscard]] const std::vector<real>& preview() const noexcept {
    return preview_;
  }

 private:
  const Reconstructor* recon_;
  AngleAccumulator arrived_;
  std::vector<real> preview_;  ///< Warm start for the next chunk.
  SliceWorkspace ws_;
};

/// Batch driver over the streaming path: feeds `sinogram` (full natural
/// layout) to a StreamingReconstructor in chunks of `chunk_angles` and
/// returns one preview per chunk — the last entry is the final image over
/// all angles. `chunk_angles` <= 0 means one chunk (degenerate streaming:
/// a single masked-complete solve). This is what the CLI's --stream-chunk
/// flag and bench_os_convergence drive.
[[nodiscard]] std::vector<ReconstructionResult> reconstruct_stream(
    const Reconstructor& recon, std::span<const real> sinogram,
    int chunk_angles, const solve::CancelToken* cancel = nullptr);

}  // namespace memxct::core
