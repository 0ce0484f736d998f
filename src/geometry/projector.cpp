#include "geometry/projector.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geometry/siddon.hpp"

namespace memxct::geometry {

namespace {

/// One traced entry of a row: ordered column and intersection length.
struct Entry {
  idx_t col;
  real len;
};

/// Digits of the per-row LSD radix sort. Three cover any column count up to
/// 2^31 with at most 2^11 buckets a digit; a 320×320 grid's 17 bits need 2^6
/// buckets a digit, few against a row's hundreds of entries.
constexpr int kRadixDigits = 3;

/// Bits per digit so that kRadixDigits digits span every column index of a
/// `num_cols`-column matrix.
int radix_digit_bits(idx_t num_cols) {
  const int bits = std::bit_width(
      static_cast<std::uint32_t>(std::max<idx_t>(num_cols, 1) - 1));
  return std::max(1, (bits + kRadixDigits - 1) / kRadixDigits);
}

/// Stable LSD radix sort of `v` by column: one counting pass for all digits,
/// then kRadixDigits scatter passes through `scratch`. `counts` is reusable
/// per-thread scratch.
void radix_sort_by_column(std::vector<Entry>& v, std::vector<Entry>& scratch,
                          std::vector<std::uint32_t>& counts, int digit_bits) {
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const auto mask = static_cast<std::uint32_t>(buckets - 1);
  counts.assign(buckets * kRadixDigits, 0);
  for (const Entry& e : v) {
    const auto c = static_cast<std::uint32_t>(e.col);
    for (int d = 0; d < kRadixDigits; ++d)
      ++counts[d * buckets + ((c >> (d * digit_bits)) & mask)];
  }
  scratch.resize(v.size());
  for (int d = 0; d < kRadixDigits; ++d) {
    std::uint32_t* const start = counts.data() + d * buckets;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t n = start[b];
      start[b] = sum;
      sum += n;
    }
    for (const Entry& e : v)
      scratch[start[(static_cast<std::uint32_t>(e.col) >> (d * digit_bits)) &
                    mask]++] = e;
    v.swap(scratch);
  }
}

}  // namespace

sparse::CsrMatrix build_projection_matrix(
    const Geometry& g, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order) {
  g.validate();
  MEMXCT_CHECK(sinogram_order.extent() == g.sinogram_extent());
  MEMXCT_CHECK(tomogram_order.extent() == g.tomogram_extent());

  const idx_t num_rays = static_cast<idx_t>(g.sinogram_extent().size());
  const idx_t num_pixels = static_cast<idx_t>(g.tomogram_extent().size());
  const auto& tomo_to_ordered = tomogram_order.to_ordered();

  // Two passes: count row lengths, then fill — avoids materializing
  // per-row vectors for hundreds of millions of nonzeros.
  sparse::CsrMatrix a;
  a.num_rows = num_rays;
  a.num_cols = num_pixels;
  a.displ.assign(static_cast<std::size_t>(num_rays) + 1, 0);

#pragma omp parallel
  {
    std::vector<std::pair<idx_t, real>> segments;
#pragma omp for schedule(dynamic, 64)
    for (idx_t i = 0; i < num_rays; ++i) {
      const Cell rc = sinogram_order.cell(i);
      trace_ray(g, rc.row, rc.col, segments);
      a.displ[static_cast<std::size_t>(i) + 1] =
          static_cast<nnz_t>(segments.size());
    }
  }
  for (idx_t i = 0; i < num_rays; ++i)
    a.displ[static_cast<std::size_t>(i) + 1] +=
        a.displ[static_cast<std::size_t>(i)];

  a.ind.resize(static_cast<std::size_t>(a.displ.back()));
  a.val.resize(static_cast<std::size_t>(a.displ.back()));

  // Fill pass. The ordered columns of a row are distinct (trace_ray emits
  // each pixel once, and the ordering is a bijection), so the stable radix
  // sort leaves them in the order a comparison sort would.
  const int digit_bits = radix_digit_bits(num_pixels);
#pragma omp parallel
  {
    std::vector<std::pair<idx_t, real>> segments;
    std::vector<Entry> ordered, scratch;
    std::vector<std::uint32_t> counts;
#pragma omp for schedule(dynamic, 64)
    for (idx_t i = 0; i < num_rays; ++i) {
      const Cell rc = sinogram_order.cell(i);
      trace_ray(g, rc.row, rc.col, segments);
      ordered.clear();
      for (const auto& [pixel, length] : segments)
        ordered.push_back({tomo_to_ordered[static_cast<std::size_t>(pixel)],
                           length});
      radix_sort_by_column(ordered, scratch, counts, digit_bits);
      const nnz_t k = a.displ[static_cast<std::size_t>(i)];
      MEMXCT_CHECK(k + static_cast<nnz_t>(ordered.size()) ==
                   a.displ[static_cast<std::size_t>(i) + 1]);
      for (std::size_t e = 0; e < ordered.size(); ++e) {
        // A repeated column would be a tracing fault: CSR rows hold each
        // column once, strictly ascending.
        MEMXCT_CHECK(e == 0 || ordered[e - 1].col < ordered[e].col);
        a.ind[static_cast<std::size_t>(k) + e] = ordered[e].col;
        a.val[static_cast<std::size_t>(k) + e] = ordered[e].len;
      }
    }
  }
  return a;
}

sparse::CsrMatrix build_projection_matrix_natural(const Geometry& g) {
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::RowMajor);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::RowMajor);
  return build_projection_matrix(g, sino, tomo);
}

}  // namespace memxct::geometry
