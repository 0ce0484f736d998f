#include "serve/stream.hpp"

#include "common/error.hpp"

namespace memxct::serve {

StreamSession::StreamSession(Server& server,
                             const geometry::Geometry& geometry,
                             const core::Config& config,
                             StreamSessionOptions options)
    : server_(&server),
      geometry_(geometry),
      config_(config),
      options_(options),
      arrived_(geometry) {
  if (config.solver != core::SolverKind::OsSirt &&
      config.solver != core::SolverKind::OsSart)
    throw InvalidArgument(
        "serve: streaming sessions require an ordered-subsets solver "
        "(os-sirt or os-sart)");
}

RequestResult StreamSession::push_chunk(int first_angle, int count,
                                        std::span<const real> rows) {
  arrived_.add(first_angle, count, rows);

  RequestOptions opt;
  opt.priority = options_.priority;
  opt.deadline_seconds = options_.deadline_seconds;
  opt.angle_mask = arrived_.angle_mask();
  if (!preview_.empty()) opt.warm_start_image = preview_;

  const std::int64_t id =
      server_->submit(geometry_, config_, arrived_.sinogram(), opt);
  RequestResult result = server_->wait(id);

  // Only usable images advance the warm start: a degraded or salvaged
  // preview is still a better start than the last one, but a failed or
  // rejected request must not poison the stream.
  if (!result.image.empty() && (result.status == RequestStatus::Ok ||
                                result.status == RequestStatus::Degraded ||
                                result.status == RequestStatus::Diverged))
    preview_ = result.image;
  return result;
}

}  // namespace memxct::serve
