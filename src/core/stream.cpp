#include "core/stream.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace memxct::core {

AngleAccumulator::AngleAccumulator(const geometry::Geometry& geometry)
    : num_channels_(geometry.num_channels) {
  geometry.validate();
  sino_.assign(static_cast<std::size_t>(geometry.sinogram_extent().size()),
               real{0});
  mask_.assign(static_cast<std::size_t>(geometry.num_angles), real{0});
}

void AngleAccumulator::add(int first_angle, int count,
                           std::span<const real> rows) {
  if (count < 1) throw InvalidArgument("push_chunk: empty chunk");
  if (first_angle < 0 || count > static_cast<int>(mask_.size()) - first_angle)
    throw InvalidArgument("push_chunk: angle range outside the geometry");
  if (static_cast<std::int64_t>(rows.size()) !=
      static_cast<std::int64_t>(count) * num_channels_)
    throw InvalidArgument(
        "push_chunk: row data size does not match the range");
  std::copy(rows.begin(), rows.end(),
            sino_.begin() + static_cast<std::ptrdiff_t>(first_angle) *
                                num_channels_);
  std::fill_n(mask_.begin() + first_angle, count, real{1});
}

StreamingReconstructor::StreamingReconstructor(const Reconstructor& recon)
    : recon_(&recon), arrived_(recon.geometry()) {
  const Config& c = recon.config();
  if (c.solver != SolverKind::OsSirt && c.solver != SolverKind::OsSart)
    throw InvalidArgument(
        "streaming ingest requires an ordered-subsets solver "
        "(--solver os-sirt or os-sart)");
}

ReconstructionResult StreamingReconstructor::push_chunk(
    int first_angle, int count, std::span<const real> rows,
    const solve::CancelToken* cancel, solve::ProgressSink* progress) {
  // Accumulate first, solve second: the sinogram buffer and mask describe
  // the arrived set regardless of whether the solve below succeeds, and
  // overwriting an already arrived range with the same data is a no-op —
  // that idempotence is what makes a post-fault retry bitwise-identical.
  arrived_.add(first_angle, count, rows);

  SolveExtras extras;
  extras.angle_mask = arrived_.angle_mask();
  if (!preview_.empty()) extras.warm_start_image = preview_;

  ReconstructionResult result = reconstruct_slice(
      recon_->op(), recon_->geometry(), recon_->config(),
      recon_->sinogram_ordering(), recon_->tomogram_ordering(),
      arrived_.sinogram(), &ws_, cancel, progress, &extras);

  // Only a completed solve advances the warm start; a cancelled preview is
  // still usable (best-so-far iterate) but a thrown solve leaves the
  // previous state intact for the retry.
  preview_ = result.image;
  return result;
}

std::vector<ReconstructionResult> reconstruct_stream(
    const Reconstructor& recon, std::span<const real> sinogram,
    int chunk_angles, const solve::CancelToken* cancel) {
  const auto& g = recon.geometry();
  if (static_cast<std::int64_t>(sinogram.size()) != g.sinogram_extent().size())
    throw InvalidArgument("sinogram size does not match the geometry");
  const int total = static_cast<int>(g.num_angles);
  const int chunk = chunk_angles <= 0 ? total : std::min(chunk_angles, total);

  StreamingReconstructor session(recon);
  std::vector<ReconstructionResult> previews;
  previews.reserve(static_cast<std::size_t>((total + chunk - 1) / chunk));
  for (int first = 0; first < total; first += chunk) {
    const int count = std::min(chunk, total - first);
    const auto offset =
        static_cast<std::size_t>(first) * static_cast<std::size_t>(g.num_channels);
    const auto len =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(g.num_channels);
    previews.push_back(session.push_chunk(first, count,
                                          sinogram.subspan(offset, len),
                                          cancel));
    if (cancel != nullptr && cancel->should_stop()) break;
  }
  return previews;
}

}  // namespace memxct::core
