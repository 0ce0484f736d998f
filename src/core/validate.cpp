// core::validate_config — the single source of truth for which Config field
// combinations the pipeline supports. The Reconstructor ctor, serve
// admission (Server::submit), and the autotuner's candidate pruning all call
// this one function, so a combination is either legal everywhere or rejected
// everywhere with the same typed error. validate_extras is the same gate for
// the per-slice solver extras.
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "core/reconstructor.hpp"

namespace memxct::core {

void validate_config(const Config& config) {
  if (config.num_shards < 1)
    throw InvalidArgument("config: num_shards must be >= 1");
  if (config.buffer.partsize < 1)
    throw InvalidArgument("config: buffer partsize must be >= 1");
  if (config.buffer.buffsize < 1 || config.buffer.buffsize > 65536)
    throw InvalidArgument(
        "config: buffer buffsize must be in [1, 65536] (16-bit slots)");

  const bool sharded = config.num_shards > 1;
  const bool reduced = config.precision != sparse::ValueStorage::Fp32;
  const bool baseline_or_buffered = config.kernel == KernelKind::Baseline ||
                                    config.kernel == KernelKind::Buffered;
  const bool os_solver = config.solver == SolverKind::OsSirt ||
                         config.solver == SolverKind::OsSart;

  if (sharded && reduced)
    throw UnsupportedConfigError(
        "--shards", "--precision",
        "reduced-precision operators (bf16/fp16) are not supported on the "
        "sharded path; use --precision fp32 or --shards 1");
  if (sharded && !baseline_or_buffered)
    throw UnsupportedConfigError(
        "--shards", "--kernel",
        "the sharded path supports the baseline and buffered kernels only");
  if (reduced && config.kernel != KernelKind::Buffered)
    throw UnsupportedConfigError(
        "--kernel", "--precision",
        "reduced-precision operators (bf16/fp16) exist for the buffered "
        "kernel only; use --precision fp32 or --kernel buffered");
  // Ordered subsets sweep row-range views of the memoized storage, which
  // only the unsharded Baseline and Buffered operators expose.
  if (os_solver && sharded)
    throw UnsupportedConfigError(
        "--solver", "--shards",
        "ordered-subsets solvers need subset views, which the sharded "
        "operator does not have; use --shards 1 or a full-pass solver");
  if (os_solver && !baseline_or_buffered)
    throw UnsupportedConfigError(
        "--solver", "--kernel",
        "ordered-subsets solvers need subset views, which exist for the "
        "baseline and buffered kernels only; use --kernel buffered or a "
        "full-pass solver");
}

void validate_extras(const geometry::Geometry& geometry, const Config& config,
                     const SolveExtras& extras) {
  const bool cgls = config.solver == SolverKind::CGLS;
  const bool os_solver = config.solver == SolverKind::OsSirt ||
                         config.solver == SolverKind::OsSart;
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw InvalidArgument(std::string("extras: ") + what);
  };
  const auto fits = [](std::span<const real> v, std::int64_t size) {
    return v.empty() || static_cast<std::int64_t>(v.size()) == size;
  };
  const auto tomogram = geometry.tomogram_extent().size();
  require(extras.warm_start_image.empty() || cgls || os_solver,
          "warm_start_image requires the CGLS or an ordered-subsets solver");
  require(fits(extras.warm_start_image, tomogram),
          "warm_start_image size does not match the tomogram");
  require(extras.angle_mask.empty() || os_solver,
          "angle_mask requires an ordered-subsets solver (os-sirt, os-sart)");
  require(fits(extras.angle_mask, geometry.num_angles),
          "angle_mask size does not match the angle count");
  require(extras.prior_image.empty() || cgls,
          "prior_image requires the CGLS solver");
  require(fits(extras.prior_image, tomogram),
          "prior_image size does not match the tomogram");
  require(std::isfinite(extras.prior_lambda) && extras.prior_lambda >= 0.0,
          "prior_lambda must be finite and >= 0");
}

}  // namespace memxct::core
