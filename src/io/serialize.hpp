// Binary (de)serialization of matrices and vectors.
//
// Preprocessing (ordering + tracing + transposition + buffer construction)
// is the expensive one-time step of the memory-centric approach; caching
// the memoized matrix to disk lets a production deployment pay it once per
// geometry rather than once per process. The format is a small magic/dims
// header followed by raw little-endian arrays.
#pragma once

#include <string>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "sparse/buffered.hpp"
#include "sparse/csr.hpp"

namespace memxct::io {

/// Writes a CSR matrix; throws InvalidArgument on I/O failure.
void save_csr(const std::string& path, const sparse::CsrMatrix& matrix);

/// Reads a CSR matrix written by save_csr; validates structure on load.
[[nodiscard]] sparse::CsrMatrix load_csr(const std::string& path);

/// Writes a fully built multi-stage buffered matrix, so the complete
/// preprocessing output (including Listing 3's staged structures, which
/// cost another pass over the nonzeros to rebuild) can be cached. fp32
/// values only: throws InvalidArgument for a bf16/fp16 matrix.
void save_buffered(const std::string& path,
                   const sparse::BufferedMatrix& matrix);

/// Reads a buffered matrix written by save_buffered; validates its
/// structure and every slot on load, so whatever it returns an apply reads
/// within bounds.
[[nodiscard]] sparse::BufferedMatrix load_buffered(const std::string& path);

/// Writes a float vector.
void save_vector(const std::string& path, std::span<const real> data);

/// Reads a float vector written by save_vector.
[[nodiscard]] AlignedVector<real> load_vector(const std::string& path);

}  // namespace memxct::io
