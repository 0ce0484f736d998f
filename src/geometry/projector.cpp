#include "geometry/projector.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "geometry/siddon.hpp"
#include "sparse/footprint.hpp"

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

/// Per-thread tracer of A's rows: ray i's pixels as ordered columns with
/// their intersection lengths. Both builders trace every row through it.
class RowTracer {
 public:
  RowTracer(const Geometry& g, const hilbert::Ordering& sinogram_order,
            const hilbert::Ordering& tomogram_order)
      : g_(g),
        sino_(sinogram_order),
        tomo_to_ordered_(tomogram_order.to_ordered()),
        digit_bits_(radix_digit_bits(
            static_cast<idx_t>(g.tomogram_extent().size()))) {}

  /// Row i's entries in ray path order: enough to count them or their
  /// distinct columns, or to place them (StagedBuilder::place reads a row
  /// in any column order).
  std::span<const Entry> trace(idx_t i) {
    const Cell rc = sino_.cell(i);
    trace_ray(g_, rc.row, rc.col, segments_);
    entries_.clear();
    for (const auto& [pixel, length] : segments_)
      entries_.push_back(
          {tomo_to_ordered_[static_cast<std::size_t>(pixel)], length});
    return entries_;
  }

  /// Row i as CSR stores it, for build_projection_matrix: entries by
  /// strictly ascending column. The ordered columns of a row are distinct
  /// (trace_ray emits each pixel once, and the ordering is a bijection), so
  /// the stable radix sort leaves them in the order a comparison sort would.
  std::span<const Entry> trace_sorted(idx_t i) {
    trace(i);
    radix_sort_by_column(entries_, scratch_, counts_, digit_bits_);
    // A repeated column would be a tracing fault: CSR rows hold each column
    // once, strictly ascending.
    for (std::size_t e = 1; e < entries_.size(); ++e)
      MEMXCT_CHECK(entries_[e - 1].col < entries_[e].col);
    return entries_;
  }

 private:
  const Geometry& g_;
  const hilbert::Ordering& sino_;
  const std::vector<idx_t>& tomo_to_ordered_;
  int digit_bits_;
  std::vector<std::pair<idx_t, real>> segments_;
  std::vector<Entry> entries_, scratch_;
  std::vector<std::uint32_t> counts_;
};

void check_orderings(const Geometry& g, const hilbert::Ordering& sino,
                     const hilbert::Ordering& tomo) {
  g.validate();
  MEMXCT_CHECK(sino.extent() == g.sinogram_extent());
  MEMXCT_CHECK(tomo.extent() == g.tomogram_extent());
}

}  // namespace

sparse::CsrMatrix build_projection_matrix(
    const Geometry& g, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order) {
  check_orderings(g, sinogram_order, tomogram_order);
  const idx_t num_rays = static_cast<idx_t>(g.sinogram_extent().size());
  const idx_t num_pixels = static_cast<idx_t>(g.tomogram_extent().size());

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

#pragma omp parallel
  {
    RowTracer tracer(g, sinogram_order, tomogram_order);
#pragma omp for schedule(dynamic, 64)
    for (idx_t i = 0; i < num_rays; ++i) {
      const std::span<const Entry> row = tracer.trace_sorted(i);
      const nnz_t k = a.displ[static_cast<std::size_t>(i)];
      MEMXCT_CHECK(k + static_cast<nnz_t>(row.size()) ==
                   a.displ[static_cast<std::size_t>(i) + 1]);
      for (std::size_t e = 0; e < row.size(); ++e) {
        a.ind[static_cast<std::size_t>(k) + e] = row[e].col;
        a.val[static_cast<std::size_t>(k) + e] = row[e].len;
      }
    }
  }
  return a;
}

sparse::BufferedMatrix build_projection_buffered(
    const Geometry& g, const hilbert::Ordering& sinogram_order,
    const hilbert::Ordering& tomogram_order,
    const sparse::BufferConfig& config) {
  check_orderings(g, sinogram_order, tomogram_order);
  const idx_t num_rays = static_cast<idx_t>(g.sinogram_extent().size());
  const idx_t num_pixels = static_cast<idx_t>(g.tomogram_extent().size());
  const idx_t numparts =
      sparse::StagedBuilder::num_partitions(num_rays, config);

  // Rows of partition p, traced into the per-thread `rows` (rows[0, n) are
  // A's rows [p·partsize, p·partsize + n)), entries in ray path order.
  const auto trace_partition = [&](RowTracer& tracer, idx_t p,
                                   sparse::CsrMatrix& rows) {
    const idx_t r0 = p * config.partsize;
    const idx_t r1 = std::min<idx_t>(r0 + config.partsize, num_rays);
    rows.num_rows = r1 - r0;
    rows.num_cols = num_pixels;
    rows.displ.resize(static_cast<std::size_t>(rows.num_rows) + 1);
    rows.displ[0] = 0;
    rows.ind.clear();
    rows.val.clear();
    for (idx_t r = r0; r < r1; ++r) {
      const std::span<const Entry> row = tracer.trace(r);
      const std::size_t k = rows.ind.size();
      rows.ind.resize(k + row.size());
      rows.val.resize(k + row.size());
      for (std::size_t e = 0; e < row.size(); ++e) {
        rows.ind[k + e] = row[e].col;
        rows.val[k + e] = row[e].len;
      }
      rows.displ[static_cast<std::size_t>(r - r0) + 1] =
          static_cast<nnz_t>(k + row.size());
    }
  };

  // Both passes run in one region, so each thread's scratch serves both
  // and the allocator keeps one set of it per thread, not two. The
  // forward's allocation may fail and place() may throw: the first
  // exception is carried out of the region and rethrown.
  std::vector<sparse::PartitionSize> parts(static_cast<std::size_t>(numparts));
  std::optional<sparse::StagedBuilder> build;
  std::exception_ptr error;
#pragma omp parallel
  {
    RowTracer tracer(g, sinogram_order, tomogram_order);
    sparse::StagedBuilder::Scratch scratch(num_pixels);
    sparse::CsrMatrix rows;
    // Pass 1: each partition's nonzeros and footprint size.
#pragma omp for schedule(dynamic, 1)
    for (idx_t p = 0; p < numparts; ++p) {
      trace_partition(tracer, p, rows);
      parts[static_cast<std::size_t>(p)] = {
          scratch.footprint.count(rows.row_columns(0, rows.num_rows)),
          rows.nnz()};
    }
#pragma omp single
    try {
      build.emplace(num_rays, num_pixels, config, parts);
    } catch (...) {
      error = std::current_exception();
    }
    // Pass 2 (every thread sees `error` after the single's barrier): trace
    // each partition again and place it. place() reads a row's entries in
    // any column order, so they are not sorted.
    if (!error) {
#pragma omp for schedule(dynamic, 1)
      for (idx_t p = 0; p < numparts; ++p) {
        try {
          trace_partition(tracer, p, rows);
          build->place(p, rows, 0, scratch);
        } catch (...) {
#pragma omp critical(memxct_build_projection_buffered_error)
          if (!error) error = std::current_exception();
        }
      }
    }
  }
  if (error) std::rethrow_exception(error);
  return std::move(*build).finish();
}

sparse::CsrMatrix build_projection_matrix_natural(const Geometry& g) {
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::RowMajor);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::RowMajor);
  return build_projection_matrix(g, sino, tomo);
}

}  // namespace memxct::geometry
