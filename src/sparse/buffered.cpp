#include "sparse/buffered.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
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

idx_t StagedBuilder::num_partitions(idx_t num_rows,
                                    const BufferConfig& config) {
  MEMXCT_CHECK(config.partsize >= 1);
  MEMXCT_CHECK_MSG(config.buffsize >= 1 && config.buffsize <= 65536,
                   "16-bit buffer addressing limits buffsize to 65536");
  return std::max<idx_t>(1, ceil_div(num_rows, config.partsize));
}

StagedBuilder::StagedBuilder(idx_t num_rows, idx_t num_cols,
                             const BufferConfig& config,
                             std::span<const PartitionSize> parts) {
  const idx_t numparts = num_partitions(num_rows, config);
  MEMXCT_CHECK(static_cast<idx_t>(parts.size()) == numparts);
  b_.num_rows = num_rows;
  b_.num_cols = num_cols;
  b_.config = config;
  const idx_t partsize = config.partsize;
  const idx_t buffsize = config.buffsize;

  // Prefix sums over partitions: stage counts, map sizes, nnz starts (the
  // stage-major layout groups each partition's stages contiguously, so a
  // partition's entries are one run).
  b_.partdispl.resize(static_cast<std::size_t>(numparts) + 1);
  b_.partdispl[0] = 0;
  first_.resize(static_cast<std::size_t>(numparts) + 1);
  first_[0] = 0;
  nnz_t total_map = 0;
  for (idx_t p = 0; p < numparts; ++p) {
    const auto& part = parts[static_cast<std::size_t>(p)];
    const idx_t stages = std::max<idx_t>(1, ceil_div(part.cols, buffsize));
    b_.partdispl[static_cast<std::size_t>(p) + 1] =
        b_.partdispl[static_cast<std::size_t>(p)] + stages;
    first_[static_cast<std::size_t>(p) + 1] =
        first_[static_cast<std::size_t>(p)] + part.nnz;
    total_map += part.cols;
  }
  const idx_t total_stages = b_.partdispl.back();
  const nnz_t total_nnz = first_.back();

  b_.stagedispl.resize(static_cast<std::size_t>(total_stages) + 1);
  b_.stagenz.resize(static_cast<std::size_t>(total_stages));
  // map, displ, ind and val are written in full by place() (displ[0] here),
  // so they are left unfilled until the thread of each partition writes it.
  b_.map.resize(static_cast<std::size_t>(total_map));
  b_.displ.resize(static_cast<std::size_t>(total_stages) * partsize + 1);
  b_.displ[0] = 0;
  b_.ind.resize(static_cast<std::size_t>(total_nnz));
  b_.val.resize(static_cast<std::size_t>(total_nnz));

  // Stage starts into map: stage s of partition p holds the s-th buffsize
  // chunk of the partition's distinct columns.
  b_.stagedispl[0] = 0;
  idx_t s = 0;
  for (idx_t p = 0; p < numparts; ++p) {
    const idx_t cols = parts[static_cast<std::size_t>(p)].cols;
    const idx_t stages = b_.partdispl[static_cast<std::size_t>(p) + 1] -
                         b_.partdispl[static_cast<std::size_t>(p)];
    for (idx_t k = 0; k < stages; ++k, ++s) {
      const auto lo = static_cast<nnz_t>(k) * buffsize;
      const auto hi = std::min<nnz_t>(lo + buffsize, cols);
      b_.stagenz[static_cast<std::size_t>(s)] =
          static_cast<idx_t>(hi > lo ? hi - lo : 0);
      b_.stagedispl[static_cast<std::size_t>(s) + 1] =
          b_.stagedispl[static_cast<std::size_t>(s)] +
          b_.stagenz[static_cast<std::size_t>(s)];
    }
  }
  MEMXCT_CHECK(s == total_stages);
}

void StagedBuilder::place(idx_t p, const CsrMatrix& rows, idx_t r0,
                          Scratch& scratch) {
  BufferedMatrix& b = b_;
  const idx_t partsize = b.config.partsize;
  const idx_t buffsize = b.config.buffsize;
  const idx_t r1 = r0 + std::min<idx_t>(partsize, b.num_rows - p * partsize);
  const idx_t stage0 = b.partdispl[static_cast<std::size_t>(p)];
  const idx_t stages = b.partdispl[static_cast<std::size_t>(p) + 1] - stage0;
  FootprintIndex& footprint = scratch.footprint;
  std::vector<nnz_t>& counts = scratch.counts;
  MEMXCT_CHECK(rows.displ[r1] - rows.displ[r0] ==
               first_[static_cast<std::size_t>(p) + 1] -
                   first_[static_cast<std::size_t>(p)]);

  // map: the partition's sorted distinct columns, chunked by stage,
  // collected in place; the slice then indexes the footprint.
  const std::span<idx_t> map(
      b.map.data() + b.stagedispl[static_cast<std::size_t>(stage0)],
      static_cast<std::size_t>(
          b.stagedispl[static_cast<std::size_t>(stage0 + stages)] -
          b.stagedispl[static_cast<std::size_t>(stage0)]));
  footprint.collect(rows.row_columns(r0, r1), map);
  footprint.index(map);

  // An entry's position in the partition's sorted distinct columns gives its
  // stage (position / buffsize) and 16-bit slot (position % buffsize); a
  // counting pass then lays the entries out stage-major. Counts do not
  // depend on the order of a row's entries.
  counts.assign(static_cast<std::size_t>(stages) * partsize, 0);
  for (idx_t r = r0; r < r1; ++r) {
    const idx_t j = r - r0;
    for (nnz_t k = rows.displ[r]; k < rows.displ[r + 1]; ++k) {
      const idx_t stage = footprint.position(rows.ind[k]) / buffsize;
      ++counts[static_cast<std::size_t>(stage) * partsize + j];
    }
  }

  // Stage-major prefix sum -> displ for every (stage, row) cell, plus
  // per-cell starts for placement. displ[0] = 0 by construction, and every
  // other start is the previous cell's end, so the array is consistent
  // across partition boundaries.
  nnz_t cursor = first_[static_cast<std::size_t>(p)];
  const auto cell0 = static_cast<std::size_t>(stage0) * partsize;
  for (std::size_t cell = 0; cell < counts.size(); ++cell) {
    const nnz_t count = counts[cell];
    counts[cell] = cursor;
    cursor += count;
    b.displ[cell0 + cell + 1] = cursor;
  }
  MEMXCT_CHECK(cursor == first_[static_cast<std::size_t>(p) + 1]);

  // Placement: a row's entries may come in any column order, but a cell
  // holds them by ascending slot. The row's positions are marked in a
  // bitmap over the footprint (values beside them by position), and its
  // bits are walked in ascending order: a stage's positions are one
  // contiguous bit range, so the row's cell of each stage is filled from
  // one cursor held in a register. A row that holds a column twice writes
  // fewer entries than it was counted for, so its cells are left short,
  // never overfull, and it throws. One row's bitmap is built at a time, so
  // the scratch stays O(num_cols + footprint) at any partsize.
  Bitmap& marked = scratch.row;
  marked.resize(static_cast<idx_t>(map.size()));
  scratch.row_val.resize(map.size());
  real* const row_val = scratch.row_val.data();
  buf_idx_t* const ind = b.ind.data();
  real* const val = b.val.data();
  for (idx_t r = r0; r < r1; ++r) {
    for (nnz_t k = rows.displ[r]; k < rows.displ[r + 1]; ++k) {
      const idx_t pos = footprint.position(rows.ind[k]);
      marked.insert(pos);
      row_val[pos] = rows.val[k];
    }
    nnz_t written = 0, cur = 0;
    idx_t base = 0, end = 0;  // the current stage's positions: [base, end)
    marked.drain([&](idx_t w, std::uint64_t word) {
      for (; word != 0; word &= word - 1, ++cur, ++written) {
        const idx_t pos = w * 64 + std::countr_zero(word);
        if (pos >= end) {
          const idx_t s = pos / buffsize;
          base = s * buffsize;
          end = base + buffsize;
          cur = counts[static_cast<std::size_t>(s) * partsize + (r - r0)];
        }
        ind[cur] = static_cast<buf_idx_t>(pos - base);
        val[cur] = row_val[pos];
      }
    });
    MEMXCT_CHECK_MSG(written == rows.displ[r + 1] - rows.displ[r],
                     "a row holds a column more than once");
  }
}

BufferedMatrix StagedBuilder::finish() && {
  b_.validate();
  return std::move(b_);
}

BufferedMatrix build_buffered(const CsrMatrix& a, const BufferConfig& config) {
  const idx_t numparts = StagedBuilder::num_partitions(a.num_rows, config);
  const idx_t partsize = config.partsize;
  const auto rows_of = [&](idx_t p) {
    const idx_t r0 = p * partsize;
    return std::pair{r0, std::min<idx_t>(r0 + partsize, a.num_rows)};
  };

  // Pass 1 (parallel): per-partition footprint size and nnz, so the arrays
  // can be sized and filled without synchronization. Only the sizes are
  // kept: place() collects each footprint straight into its slice of `map`,
  // so the build never holds the columns twice.
  std::vector<PartitionSize> parts(static_cast<std::size_t>(numparts));
#pragma omp parallel
  {
    FootprintIndex footprint(a.num_cols);
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      const auto [r0, r1] = rows_of(p);
      parts[static_cast<std::size_t>(p)] = {
          footprint.count(a.row_columns(r0, r1)), a.displ[r1] - a.displ[r0]};
    }
  }

  // Pass 2 (parallel): fill map, displ, ind, val per partition. A row that
  // holds a column twice makes place() throw; the first such error is
  // carried out of the region and rethrown.
  StagedBuilder build(a.num_rows, a.num_cols, config, parts);
  std::exception_ptr error;
#pragma omp parallel
  {
    StagedBuilder::Scratch scratch(a.num_cols);
#pragma omp for schedule(dynamic, 4)
    for (idx_t p = 0; p < numparts; ++p) {
      try {
        build.place(p, a, rows_of(p).first, scratch);
      } catch (...) {
#pragma omp critical(memxct_build_buffered_error)
        if (!error) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
  return std::move(build).finish();
}

BufferedMatrix cut_partitions(const BufferedMatrix& b, idx_t p0, idx_t p1,
                              const FootprintIndex& footprint,
                              idx_t num_cols) {
  MEMXCT_CHECK(0 <= p0 && p0 <= p1 && p1 <= b.num_partitions());
  const idx_t partsize = b.config.partsize;
  BufferedMatrix t;
  t.num_rows = std::min(p1 * partsize, b.num_rows) -
               std::min(p0 * partsize, b.num_rows);
  t.num_cols = num_cols;
  t.config = b.config;
  t.storage = b.storage;
  if (p0 == p1) {
    t.partdispl = {0, 1};
    t.stagedispl = {0, 0};
    t.stagenz = {0};
    t.displ.assign(static_cast<std::size_t>(partsize) + 1, 0);
    return t;
  }

  // Stage structure: the cut's slices of partdispl, stagenz and stagedispl.
  const idx_t s0 = b.partdispl[static_cast<std::size_t>(p0)];
  const idx_t s1 = b.partdispl[static_cast<std::size_t>(p1)];
  t.partdispl.assign(b.partdispl.begin() + p0, b.partdispl.begin() + p1 + 1);
  for (idx_t& s : t.partdispl) s -= s0;
  t.stagenz.assign(b.stagenz.begin() + s0, b.stagenz.begin() + s1);
  t.stagedispl.assign(b.stagedispl.begin() + s0,
                      b.stagedispl.begin() + s1 + 1);
  const nnz_t m0 = t.stagedispl.front();
  for (nnz_t& d : t.stagedispl) d -= m0;
  t.map.resize(static_cast<std::size_t>(t.stagedispl.back()));
  for (std::size_t i = 0; i < t.map.size(); ++i)
    t.map[i] = footprint.position(b.map[static_cast<std::size_t>(m0) + i]);

  // Runs: the cut's (stage, row) cells, rebased to its first entry, and the
  // entries they bound.
  const auto c0 = static_cast<std::size_t>(s0) * partsize;
  const auto c1 = static_cast<std::size_t>(s1) * partsize;
  const nnz_t e0 = b.displ[c0];
  t.displ.resize(c1 - c0 + 1);
  for (std::size_t i = 0; i < t.displ.size(); ++i)
    t.displ[i] = b.displ[c0 + i] - e0;
  const nnz_t n = t.displ.back();
  const auto copy = [&](auto& dst, const auto& src) {
    dst.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
    for (nnz_t j = 0; j < n; ++j)
      dst[static_cast<std::size_t>(j)] = src[static_cast<std::size_t>(e0 + j)];
  };
  copy(t.ind, b.ind);
  if (b.storage == ValueStorage::Fp32)
    copy(t.val, b.val);
  else
    copy(t.val16, b.val16);
  t.validate();
  return t;
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
