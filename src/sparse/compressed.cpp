#include "sparse/compressed.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/varint.hpp"

namespace memxct::sparse {

namespace {

/// Concatenates per-partition encoded chunks into one stream, filling the
/// numparts+1 offset table. Copying is parallel over partitions.
void splice_chunks(const std::vector<std::vector<std::uint8_t>>& chunks,
                   std::vector<nnz_t>& offsets,
                   AlignedVector<std::uint8_t>& stream) {
  const auto numparts = static_cast<idx_t>(chunks.size());
  offsets.resize(static_cast<std::size_t>(numparts) + 1);
  offsets[0] = 0;
  for (idx_t p = 0; p < numparts; ++p)
    offsets[static_cast<std::size_t>(p) + 1] =
        offsets[static_cast<std::size_t>(p)] +
        static_cast<nnz_t>(chunks[static_cast<std::size_t>(p)].size());
  stream.resize(static_cast<std::size_t>(offsets.back()));
#pragma omp parallel for schedule(dynamic, 16)
  for (idx_t p = 0; p < numparts; ++p)
    std::copy(chunks[static_cast<std::size_t>(p)].begin(),
              chunks[static_cast<std::size_t>(p)].end(),
              stream.begin() + offsets[static_cast<std::size_t>(p)]);
}

void quantize_values(std::span<const real> src, ValueStorage storage,
                     AlignedVector<std::uint16_t>& val16,
                     AlignedVector<real>& val) {
  const auto n = static_cast<nnz_t>(src.size());
  if (storage == ValueStorage::Fp32) {
    val.resize(src.size());
#pragma omp parallel for schedule(static)
    for (nnz_t j = 0; j < n; ++j)
      val[static_cast<std::size_t>(j)] = src[static_cast<std::size_t>(j)];
    return;
  }
  val16.resize(src.size());
#pragma omp parallel for schedule(static)
  for (nnz_t j = 0; j < n; ++j)
    val16[static_cast<std::size_t>(j)] =
        encode_value(src[static_cast<std::size_t>(j)], storage);
}

}  // namespace

// ---- CompressedCsr -------------------------------------------------------

void CompressedCsr::validate() const {
  MEMXCT_CHECK(num_rows >= 0 && num_cols >= 0);
  MEMXCT_CHECK(partsize > 0);
  MEMXCT_CHECK(static_cast<idx_t>(displ.size()) == num_rows + 1);
  MEMXCT_CHECK(displ.front() == 0);
  for (idx_t r = 0; r < num_rows; ++r)
    MEMXCT_CHECK_MSG(displ[r] <= displ[r + 1], "displ must be monotone");
  const idx_t numparts =
      std::max<idx_t>(1, ceil_div(num_rows, partsize));
  MEMXCT_CHECK(static_cast<idx_t>(part_bytes.size()) == numparts + 1);
  MEMXCT_CHECK(part_bytes.front() == 0);
  MEMXCT_CHECK(part_bytes.back() == static_cast<nnz_t>(ind_bytes.size()));
  MEMXCT_CHECK(storage == ValueStorage::Fp32
                   ? val16.empty() && static_cast<nnz_t>(val.size()) == nnz()
                   : val.empty() && static_cast<nnz_t>(val16.size()) == nnz());

  std::vector<idx_t> cols;
  for (idx_t p = 0; p < numparts; ++p) {
    const auto lo = static_cast<std::size_t>(part_bytes[p]);
    const auto hi = static_cast<std::size_t>(part_bytes[p + 1]);
    MEMXCT_CHECK(lo <= hi);
    varint::Reader r({ind_bytes.data() + lo, hi - lo},
                     "CompressedCsr partition " + std::to_string(p));
    const idx_t r0 = p * partsize;
    const idx_t r1 = std::min<idx_t>(r0 + partsize, num_rows);
    for (idx_t row = r0; row < r1; ++row) {
      cols.clear();
      varint::decode_run(r, static_cast<idx_t>(displ[row + 1] - displ[row]),
                         num_cols, cols);
    }
    MEMXCT_CHECK_MSG(r.done(), "partition stream has trailing bytes");
  }
}

CompressedCsr compress_csr(const CsrMatrix& a, idx_t partsize,
                           ValueStorage storage) {
  MEMXCT_CHECK(partsize > 0);
  CompressedCsr c;
  c.num_rows = a.num_rows;
  c.num_cols = a.num_cols;
  c.partsize = partsize;
  c.storage = storage;
  c.displ.assign(a.displ.begin(), a.displ.end());
  quantize_values({a.val.data(), a.val.size()}, storage, c.val16, c.val);

  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));
  std::vector<std::vector<std::uint8_t>> chunks(
      static_cast<std::size_t>(numparts));
#pragma omp parallel for schedule(dynamic, 16)
  for (idx_t p = 0; p < numparts; ++p) {
    auto& out = chunks[static_cast<std::size_t>(p)];
    const idx_t r0 = p * partsize;
    const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
    for (idx_t row = r0; row < r1; ++row)
      varint::encode_run({a.ind.data() + a.displ[row],
                          static_cast<std::size_t>(a.displ[row + 1] -
                                                   a.displ[row])},
                         out);
  }
  splice_chunks(chunks, c.part_bytes, c.ind_bytes);
  c.validate();
  return c;
}

CsrMatrix decompress_csr(const CompressedCsr& c) {
  CsrMatrix a;
  a.num_rows = c.num_rows;
  a.num_cols = c.num_cols;
  a.displ.assign(c.displ.begin(), c.displ.end());
  a.ind.resize(static_cast<std::size_t>(c.nnz()));
  a.val.resize(static_cast<std::size_t>(c.nnz()));

  const idx_t numparts = c.num_partitions();
  MEMXCT_CHECK(static_cast<idx_t>(c.part_bytes.size()) == numparts + 1);
  MEMXCT_CHECK(c.part_bytes.back() == static_cast<nnz_t>(c.ind_bytes.size()));
#pragma omp parallel
  {
    std::vector<idx_t> cols;
#pragma omp for schedule(dynamic, 16)
    for (idx_t p = 0; p < numparts; ++p) {
      const auto lo = static_cast<std::size_t>(c.part_bytes[p]);
      const auto hi = static_cast<std::size_t>(c.part_bytes[p + 1]);
      varint::Reader r({c.ind_bytes.data() + lo, hi - lo},
                       "CompressedCsr partition " + std::to_string(p));
      const idx_t r0 = p * c.partsize;
      const idx_t r1 = std::min<idx_t>(r0 + c.partsize, c.num_rows);
      for (idx_t row = r0; row < r1; ++row) {
        cols.clear();
        varint::decode_run(
            r, static_cast<idx_t>(c.displ[row + 1] - c.displ[row]),
            c.num_cols, cols);
        std::copy(cols.begin(), cols.end(), a.ind.begin() + c.displ[row]);
      }
      if (!r.done())
        throw IoError("CompressedCsr partition " + std::to_string(p) +
                      ": trailing bytes");
    }
  }
  const nnz_t n = c.nnz();
  if (c.storage == ValueStorage::Fp32) {
    MEMXCT_CHECK(static_cast<nnz_t>(c.val.size()) == n);
    std::copy(c.val.begin(), c.val.end(), a.val.begin());
  } else {
    MEMXCT_CHECK(static_cast<nnz_t>(c.val16.size()) == n);
    const bool fp16 = c.storage == ValueStorage::Fp16;
#pragma omp parallel for schedule(static)
    for (nnz_t j = 0; j < n; ++j) {
      const std::uint16_t bits = c.val16[static_cast<std::size_t>(j)];
      a.val[static_cast<std::size_t>(j)] =
          fp16 ? fp16_to_fp32(bits) : bf16_to_fp32(bits);
    }
  }
  a.validate();
  return a;
}

// ---- work accounting and plan weights ------------------------------------

perf::KernelWork ccsr_work(const CompressedCsr& a) {
  perf::KernelWork w;
  w.nnz = a.nnz();
  w.value_bytes_per_fma = bytes_per_value(a.storage);
  w.index_bytes_per_fma =
      w.nnz > 0 ? static_cast<double>(a.index_bytes()) /
                      static_cast<double>(w.nnz)
                : static_cast<double>(sizeof(idx_t));
  return w;
}

std::vector<nnz_t> partition_nnz(const CompressedCsr& a) {
  const idx_t numparts = a.num_partitions();
  std::vector<nnz_t> weights(static_cast<std::size_t>(numparts), 0);
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t r0 = std::min<idx_t>(p * a.partsize, a.num_rows);
    const idx_t r1 = std::min<idx_t>(r0 + a.partsize, a.num_rows);
    weights[static_cast<std::size_t>(p)] = a.displ[r1] - a.displ[r0];
  }
  return weights;
}

}  // namespace memxct::sparse
