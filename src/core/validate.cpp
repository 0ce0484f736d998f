// core::validate_config — the single source of truth for which Config field
// combinations the pipeline supports. The Reconstructor ctor, serve
// admission (Server::submit), and the autotuner's candidate pruning all call
// this one function, so a combination is either legal everywhere or rejected
// everywhere with the same typed error.
#include "common/error.hpp"
#include "core/config.hpp"

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

}  // namespace memxct::core
