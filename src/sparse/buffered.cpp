#include "sparse/buffered.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "sparse/footprint.hpp"
#include "sparse/spmm.hpp"

namespace memxct::sparse {

void BufferedMatrix::validate() const {
  MEMXCT_CHECK(num_rows >= 0 && num_cols >= 0);
  MEMXCT_CHECK(config.partsize > 0);
  MEMXCT_CHECK(config.buffsize > 0 && config.buffsize <= 65536);
  // The apply walks one partition per partsize rows.
  MEMXCT_CHECK(static_cast<std::int64_t>(partdispl.size()) ==
               std::max<std::int64_t>(1, ceil_div<std::int64_t>(
                                             num_rows, config.partsize)) +
                   1);
  MEMXCT_CHECK(partdispl.front() == 0);
  for (std::size_t p = 1; p < partdispl.size(); ++p)
    MEMXCT_CHECK(partdispl[p - 1] <= partdispl[p]);
  MEMXCT_CHECK(partdispl.back() == num_stages());
  MEMXCT_CHECK(stagedispl.size() == stagenz.size() + 1);
  MEMXCT_CHECK(stagedispl.front() == 0);
  MEMXCT_CHECK(stagedispl.back() == static_cast<nnz_t>(map.size()));
  for (idx_t s = 0; s < num_stages(); ++s) {
    MEMXCT_CHECK_MSG(stagenz[static_cast<std::size_t>(s)] >= 0 &&
                         stagenz[static_cast<std::size_t>(s)] <=
                             config.buffsize,
                     "stage exceeds buffer capacity");
    MEMXCT_CHECK(stagedispl[static_cast<std::size_t>(s)] +
                     stagenz[static_cast<std::size_t>(s)] ==
                 stagedispl[static_cast<std::size_t>(s) + 1]);
  }
  for (const idx_t m : map) MEMXCT_CHECK(m >= 0 && m < num_cols);
  MEMXCT_CHECK(displ.size() ==
               static_cast<std::size_t>(num_stages()) * config.partsize + 1);
  MEMXCT_CHECK(displ.front() == 0 &&
               displ.back() == static_cast<nnz_t>(ind.size()));
  for (std::size_t i = 1; i < displ.size(); ++i)
    MEMXCT_CHECK_MSG(displ[i - 1] <= displ[i], "run bounds not monotone");
  if (storage == ValueStorage::Fp32)
    MEMXCT_CHECK(val.size() == ind.size() && val16.empty());
  else
    MEMXCT_CHECK(val16.size() == ind.size() && val.empty());
}

void BufferedMatrix::validate_slots() const {
  const auto partsize = static_cast<std::size_t>(config.partsize);
  for (std::size_t s = 0; s < stagenz.size(); ++s)
    for (nnz_t k = displ[s * partsize]; k < displ[(s + 1) * partsize]; ++k)
      MEMXCT_CHECK_MSG(ind[static_cast<std::size_t>(k)] < stagenz[s],
                       "slot outside its stage's staged footprint");
}

BufferedMatrix build_buffered(const CsrMatrix& a, const BufferConfig& config) {
  MEMXCT_CHECK(config.partsize >= 1);
  MEMXCT_CHECK_MSG(config.buffsize >= 1 && config.buffsize <= 65536,
                   "16-bit buffer addressing limits buffsize to 65536");
  BufferedMatrix b;
  b.num_rows = a.num_rows;
  b.num_cols = a.num_cols;
  b.config = config;

  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;
  const idx_t numparts = std::max<idx_t>(1, ceil_div(a.num_rows, partsize));

  // Pass 1 (parallel): per-partition footprint size -> stage count and
  // nnz, so global arrays can be sized and filled without synchronization.
  // Only the sizes are kept: pass 2 collects each footprint straight into
  // its slice of `map`, so the build never holds the columns twice.
  struct PartPlan {
    idx_t cols = 0;  // distinct columns of the partition
    nnz_t nnz = 0;
  };
  std::vector<PartPlan> plans(static_cast<std::size_t>(numparts));
#pragma omp parallel
  {
    FootprintIndex footprint(a.num_cols);
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      auto& plan = plans[static_cast<std::size_t>(p)];
      const idx_t r0 = p * partsize;
      const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
      plan.nnz = a.displ[r1] - a.displ[r0];
      plan.cols = footprint.count(a, r0, r1);
    }
  }

  // Prefix sums over partitions: stage counts, map sizes, nnz.
  b.partdispl.resize(static_cast<std::size_t>(numparts) + 1);
  b.partdispl[0] = 0;
  nnz_t total_map = 0;
  nnz_t total_nnz = 0;
  for (idx_t p = 0; p < numparts; ++p) {
    const auto& plan = plans[static_cast<std::size_t>(p)];
    const idx_t stages = std::max<idx_t>(1, ceil_div(plan.cols, buffsize));
    b.partdispl[static_cast<std::size_t>(p) + 1] =
        b.partdispl[static_cast<std::size_t>(p)] + stages;
    total_map += plan.cols;
    total_nnz += plan.nnz;
  }
  const idx_t total_stages = b.partdispl.back();

  b.stagedispl.resize(static_cast<std::size_t>(total_stages) + 1);
  b.stagenz.resize(static_cast<std::size_t>(total_stages));
  // map, displ, ind and val are written in full by pass 2 (displ[0] here),
  // so they are left unfilled until the thread of each partition writes it.
  b.map.resize(static_cast<std::size_t>(total_map));
  b.displ.resize(static_cast<std::size_t>(total_stages) * partsize + 1);
  b.displ[0] = 0;
  b.ind.resize(static_cast<std::size_t>(total_nnz));
  b.val.resize(static_cast<std::size_t>(total_nnz));

  // Stage starts into map: stage s of partition p holds the s-th buffsize
  // chunk of the partition's distinct columns.
  b.stagedispl[0] = 0;
  {
    idx_t s = 0;
    for (idx_t p = 0; p < numparts; ++p) {
      const idx_t cols = plans[static_cast<std::size_t>(p)].cols;
      const idx_t stages =
          b.partdispl[static_cast<std::size_t>(p) + 1] -
          b.partdispl[static_cast<std::size_t>(p)];
      for (idx_t k = 0; k < stages; ++k, ++s) {
        const auto lo = static_cast<nnz_t>(k) * buffsize;
        const auto hi = std::min<nnz_t>(lo + buffsize, cols);
        b.stagenz[static_cast<std::size_t>(s)] =
            static_cast<idx_t>(hi > lo ? hi - lo : 0);
        b.stagedispl[static_cast<std::size_t>(s) + 1] =
            b.stagedispl[static_cast<std::size_t>(s)] +
            b.stagenz[static_cast<std::size_t>(s)];
      }
    }
    MEMXCT_CHECK(s == total_stages);
  }

  // Per-partition nnz starts (stage-major global layout groups each
  // partition's stages contiguously, so a partition's entries are one run).
  std::vector<nnz_t> part_nnz_start(static_cast<std::size_t>(numparts) + 1, 0);
  for (idx_t p = 0; p < numparts; ++p)
    part_nnz_start[static_cast<std::size_t>(p) + 1] =
        part_nnz_start[static_cast<std::size_t>(p)] +
        plans[static_cast<std::size_t>(p)].nnz;

  // Pass 2 (parallel): fill map, displ, ind, val per partition. An entry's
  // position in the partition's sorted distinct columns gives its stage
  // (position / buffsize) and 16-bit slot (position % buffsize); a counting
  // pass then lays the entries out stage-major.
#pragma omp parallel
  {
    FootprintIndex footprint(a.num_cols);
    std::vector<nnz_t> counts;  // per (stage, row) entry counts
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      const idx_t r0 = p * partsize;
      const idx_t r1 = std::min<idx_t>(r0 + partsize, a.num_rows);
      const idx_t stage0 = b.partdispl[static_cast<std::size_t>(p)];
      const idx_t stages =
          b.partdispl[static_cast<std::size_t>(p) + 1] - stage0;

      // map: the partition's sorted distinct columns, chunked by stage,
      // collected in place; the slice then indexes the footprint.
      const std::span<idx_t> map(
          b.map.data() + b.stagedispl[static_cast<std::size_t>(stage0)],
          static_cast<std::size_t>(plans[static_cast<std::size_t>(p)].cols));
      footprint.collect(a, r0, r1, map);
      footprint.index(map);

      counts.assign(static_cast<std::size_t>(stages) * partsize, 0);
      for (idx_t r = r0; r < r1; ++r) {
        const idx_t j = r - r0;
        for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
          const idx_t stage = footprint.position(a.ind[k]) / buffsize;
          ++counts[static_cast<std::size_t>(stage) * partsize + j];
        }
      }

      // Stage-major prefix sum -> displ for every (stage, row) cell, plus
      // per-cell cursors for placement.
      nnz_t cursor = part_nnz_start[static_cast<std::size_t>(p)];
      for (idx_t s = 0; s < stages; ++s)
        for (idx_t j = 0; j < partsize; ++j) {
          const auto cell = static_cast<std::size_t>(stage0 + s) * partsize + j;
          const nnz_t count = counts[static_cast<std::size_t>(s) * partsize + j];
          counts[static_cast<std::size_t>(s) * partsize + j] = cursor;
          cursor += count;
          b.displ[cell + 1] = cursor;
        }
      MEMXCT_CHECK(cursor == part_nnz_start[static_cast<std::size_t>(p) + 1]);

      // Placement: CSR rows are column-sorted, so entries of one (stage,
      // row) cell arrive in ascending slot order.
      for (idx_t r = r0; r < r1; ++r) {
        const idx_t j = r - r0;
        for (nnz_t k = a.displ[r]; k < a.displ[r + 1]; ++k) {
          const idx_t pos = footprint.position(a.ind[k]);
          nnz_t& cur =
              counts[static_cast<std::size_t>(pos / buffsize) * partsize + j];
          b.ind[static_cast<std::size_t>(cur)] =
              static_cast<buf_idx_t>(pos % buffsize);
          b.val[static_cast<std::size_t>(cur)] = a.val[k];
          ++cur;
        }
      }
    }
  }

  // Stitch displ starts across partition boundaries: displ[cell+1] was set
  // everywhere; displ[0] = 0 by construction, and every other start is the
  // previous cell's end, so the array is already consistent.
  b.validate();
  return b;
}

void spmv_buffered(const BufferedMatrix& a, std::span<const real> x,
                   std::span<real> y) {
  apply(a, {}, 1, x, y);
}

BufferedMatrix compress_buffered(BufferedMatrix b, ValueStorage storage) {
  if (storage == b.storage) return b;
  MEMXCT_CHECK_MSG(b.storage == ValueStorage::Fp32,
                   "compress_buffered quantizes fp32 values only");
  const nnz_t n = b.nnz();
  b.val16.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (nnz_t j = 0; j < n; ++j)
    b.val16[static_cast<std::size_t>(j)] =
        encode_value(b.val[static_cast<std::size_t>(j)], storage);
  b.val = UninitVector<real>();  // release the fp32 copy
  b.storage = storage;
  return b;
}

perf::KernelWork buffered_work(const BufferedMatrix& a) {
  perf::KernelWork w;
  w.nnz = a.nnz();
  w.staged_words = a.total_staged();
  w.index_bytes_per_fma = sizeof(buf_idx_t);
  w.value_bytes_per_fma = bytes_per_value(a.storage);
  return w;
}

}  // namespace memxct::sparse
