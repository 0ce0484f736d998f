#include "shard/sharded_operator.hpp"

#include <omp.h>

#include <algorithm>
#include <exception>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "perf/timer.hpp"
#include "shard/partition.hpp"
#include "sparse/footprint.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/transpose.hpp"

namespace memxct::shard {

namespace {

std::int64_t buffered_bytes(const sparse::BufferedMatrix& b) {
  return static_cast<std::int64_t>(b.partdispl.size() * sizeof(idx_t)) +
         static_cast<std::int64_t>(b.stagedispl.size() * sizeof(nnz_t)) +
         static_cast<std::int64_t>(b.stagenz.size() * sizeof(idx_t)) +
         static_cast<std::int64_t>(b.map.size() * sizeof(idx_t)) +
         static_cast<std::int64_t>(b.displ.size() * sizeof(nnz_t)) +
         static_cast<std::int64_t>(b.ind.size() * sizeof(buf_idx_t)) +
         static_cast<std::int64_t>(b.val.size() * sizeof(real)) +
         static_cast<std::int64_t>(b.val16.size() * sizeof(std::uint16_t));
}

std::int64_t plan_rank_bytes(const ExchangePlan& plan, int p) {
  const auto sp = static_cast<std::size_t>(p);
  std::int64_t b = 0;
  for (const Round& r : plan.rounds)
    b += static_cast<std::int64_t>(r.pack_index[sp].size() * sizeof(idx_t)) +
         static_cast<std::int64_t>(r.send_displ[sp].size() * sizeof(nnz_t)) +
         static_cast<std::int64_t>(
             (r.scatter_pos.empty() ? 0 : r.scatter_pos[sp].size()) *
             sizeof(idx_t));
  b += static_cast<std::int64_t>(plan.self_index[sp].size() * sizeof(idx_t)) +
       static_cast<std::int64_t>(plan.self_pos[sp].size() * sizeof(idx_t));
  return b;
}

ShardedOperator::Options checked(ShardedOperator::Options opt) {
  MEMXCT_CHECK_MSG(opt.num_shards >= 1,
                   "sharded operator: num_shards must be >= 1");
  opt.group_size = std::max(1, opt.group_size);
  return opt;
}

// Uniform pipeline tile count, bounded by the largest shard's partition
// count so every non-empty tile is at least one kernel partition.
int tile_count(const dist::DomainPartition& sino,
               const dist::DomainPartition& tomo, idx_t partsize,
               const ShardedOperator::Options& opt) {
  idx_t max_np = 1;
  for (int p = 0; p < opt.num_shards; ++p) {
    max_np = std::max(max_np, ceil_div(sino.size(p), partsize));
    max_np = std::max(max_np, ceil_div(tomo.size(p), partsize));
  }
  const int tiles = opt.pipeline_tiles > 0 ? opt.pipeline_tiles : 4;
  return std::max(1, std::min<int>(tiles, static_cast<int>(max_np)));
}

// The column ids that rows [r0, r1) read, whose distinct values are the
// range's footprint: a CSR range's entries, or a staged range's map slice
// (each partition's distinct columns). Range ends are multiples of the
// partition size or the row count.
std::span<const idx_t> range_columns(const sparse::CsrMatrix& m, idx_t r0,
                                     idx_t r1) {
  return m.row_columns(r0, r1);
}

std::span<const idx_t> range_columns(const sparse::BufferedMatrix& m,
                                     idx_t r0, idx_t r1) {
  const idx_t ps = m.config.partsize;
  const nnz_t b = m.stagedispl[static_cast<std::size_t>(
      m.partdispl[static_cast<std::size_t>(ceil_div(r0, ps))])];
  const nnz_t e = m.stagedispl[static_cast<std::size_t>(
      m.partdispl[static_cast<std::size_t>(ceil_div(r1, ps))])];
  return {m.map.data() + b, static_cast<std::size_t>(e - b)};
}

// Rows [r0, r1) with their columns compacted to the footprint `index` holds
// (`cols` columns): the Baseline-CSR tile, a row slice of A or A^T.
sparse::CsrMatrix cut_rows(const sparse::CsrMatrix& m, idx_t r0, idx_t r1,
                           const sparse::FootprintIndex& index, idx_t cols) {
  // The slice's arrays are sized once and filled here, so the filling
  // thread first-touches their pages.
  sparse::CsrMatrix local;
  local.num_rows = r1 - r0;
  local.num_cols = cols;
  local.displ.resize(static_cast<std::size_t>(local.num_rows) + 1);
  const nnz_t base = m.displ[r0];
  for (idx_t r = 0; r <= local.num_rows; ++r)
    local.displ[static_cast<std::size_t>(r)] = m.displ[r0 + r] - base;
  const nnz_t n = local.displ.back();
  local.ind.resize(static_cast<std::size_t>(n));
  local.val.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (nnz_t j = 0; j < n; ++j) {
    local.ind[static_cast<std::size_t>(j)] = index.position(m.ind[base + j]);
    local.val[static_cast<std::size_t>(j)] = m.val[base + j];
  }
  return local;
}

// The same rows as a Buffered tile: the staged matrix's partitions cut out
// with their map compacted, byte for byte what build_buffered makes of the
// compacted CSR slice. The cut consumes the rows: their pages are released
// once copied.
sparse::BufferedMatrix cut_rows(sparse::BufferedMatrix&& m, idx_t r0,
                                idx_t r1, const sparse::FootprintIndex& index,
                                idx_t cols) {
  const idx_t ps = m.config.partsize;
  return sparse::cut_partitions(std::move(m), ceil_div(r0, ps),
                                ceil_div(r1, ps), index, cols);
}

}  // namespace

ShardedOperator::ShardedOperator(std::shared_ptr<const Storage> storage)
    : storage_(std::move(storage)),
      num_rows_(storage_->num_rows),
      num_cols_(storage_->num_cols),
      comm_(storage_->opt.num_shards) {
  const auto P = static_cast<std::size_t>(storage_->opt.num_shards);
  for (SideState* st : {&fwd_state_, &bwd_state_}) {
    st->x_local.resize(P);
    st->staging.resize(P);
    st->send.resize(P);
    st->recv.resize(P);
  }
}

ShardedOperator::ShardedOperator(const sparse::CsrMatrix& a,
                                 const Options& opt)
    : ShardedOperator(build_storage(a, opt)) {}

ShardedOperator::ShardedOperator(sparse::BufferedMatrix fwd,
                                 const Options& opt)
    : ShardedOperator(build_storage(std::move(fwd), opt)) {}

template <class Matrix>
ShardedOperator::Side ShardedOperator::build_side(
    Matrix&& m, dist::DomainPartition rows,
    const dist::DomainPartition& input_owner, const Options& opt,
    idx_t partsize, int tiles) {
  const int P = opt.num_shards;
  Side side{std::move(rows), {}, {}, {}};
  side.footprint.resize(static_cast<std::size_t>(P));
  side.tiles.resize(static_cast<std::size_t>(P));
  std::vector<std::vector<int>> first_tile(static_cast<std::size_t>(P));

  // Tile cuts distribute each shard's kernel partitions over the uniform
  // tile count; small shards get empty tail tiles. Cuts stay multiples of
  // partsize so the buffered stage structure matches the serial build.
  for (int p = 0; p < P; ++p) {
    const idx_t rb = side.rows.begin(p);
    const idx_t local_rows = side.rows.end(p) - rb;
    const idx_t np = std::max<idx_t>(1, ceil_div(local_rows, partsize));
    auto& blocks = side.tiles[static_cast<std::size_t>(p)];
    blocks.resize(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t) {
      const idx_t off0 = std::min<idx_t>(
          local_rows,
          (np * static_cast<idx_t>(t) / static_cast<idx_t>(tiles)) * partsize);
      const idx_t off1 = std::min<idx_t>(
          local_rows, (np * static_cast<idx_t>(t + 1) /
                       static_cast<idx_t>(tiles)) *
                          partsize);
      TileBlock& block = blocks[static_cast<std::size_t>(t)];
      block.row_begin = rb + off0;
      block.rows = off1 - off0;
    }
  }

  // An exception may not leave the parallel region below: the first one
  // thrown is kept and rethrown after it.
  std::exception_ptr error;
  const auto guarded = [&error](auto&& step) {
    try {
      step();
    } catch (...) {
#pragma omp critical(shard_build_error)
      if (!error) error = std::current_exception();
    }
  };

  // One parallel region: footprints per shard, then one loop over the
  // P × tiles blocks. Every block writes only its own tile, so the bytes do
  // not depend on which thread builds which block. With fewer blocks than
  // threads, a block per thread would leave threads idle while each nested
  // copy runs on one: the region then stays inactive, the blocks run in
  // sequence, and each block's copy gets the whole team.
  const int num_blocks = P * tiles;
#pragma omp parallel if (num_blocks >= omp_get_max_threads())
  {
    sparse::FootprintIndex footprint(m.num_cols);
#pragma omp for schedule(dynamic, 1)
    for (int p = 0; p < P; ++p) {
      guarded([&] {
        const auto sp = static_cast<std::size_t>(p);
        auto& fp = side.footprint[sp];
        fp = footprint.collect(
            range_columns(m, side.rows.begin(p), side.rows.end(p)));
        // The exchange plan needs, per footprint column, the first tile
        // that reads it: tiles in descending order leave the least.
        footprint.index(fp);
        auto& ft = first_tile[sp];
        ft.assign(fp.size(), tiles);
        for (int t = tiles - 1; t >= 0; --t) {
          const TileBlock& block = side.tiles[sp][static_cast<std::size_t>(t)];
          for (const idx_t c : range_columns(m, block.row_begin,
                                             block.row_begin + block.rows))
            ft[static_cast<std::size_t>(footprint.position(c))] = t;
        }
      });
    }
#pragma omp for schedule(dynamic, 1)
    for (int b = 0; b < num_blocks; ++b) {
      guarded([&] {
        const auto sp = static_cast<std::size_t>(b / tiles);
        TileBlock& block = side.tiles[sp][static_cast<std::size_t>(b % tiles)];
        if (block.rows == 0) return;
        const auto& fp = side.footprint[sp];
        footprint.index(fp);
        // A Buffered source (an rvalue) gives up each block's rows as they
        // are cut; the blocks' row ranges are disjoint.
        auto tile = cut_rows(std::forward<Matrix>(m), block.row_begin,
                             block.row_begin + block.rows, footprint,
                             static_cast<idx_t>(fp.size()));
        if constexpr (std::is_same_v<std::remove_cvref_t<Matrix>,
                                     sparse::CsrMatrix>)
          block.local = std::move(tile);
        else
          block.buffered = std::move(tile);
      });
    }
  }
  if (error) std::rethrow_exception(error);
  side.plan = build_exchange_plan(input_owner, side.footprint, first_tile,
                                  tiles, opt.group_size);
  return side;
}

std::shared_ptr<const ShardedOperator::Storage> ShardedOperator::build_storage(
    const sparse::CsrMatrix& a, Options opt) {
  opt = checked(std::move(opt));
  if (opt.kernel == LocalKernel::Buffered)
    return build_storage(sparse::build_buffered(a, opt.buffer), opt);

  // Baseline CSR: row slices of A and of its CSR transpose. The backward
  // side is built first, so A^T is released before the forward side is
  // built: the peak is A + A^T + one side, not A + A^T + both.
  const idx_t ps = sparse::kCsrPartsize;
  sparse::CsrMatrix at = sparse::transpose(a);
  const dist::DomainPartition sino =
      partition_rows_aligned(a, opt.num_shards, ps);
  const dist::DomainPartition tomo =
      partition_rows_aligned(at, opt.num_shards, ps);
  const int tiles = tile_count(sino, tomo, ps, opt);
  Side bwd = build_side(at, tomo, sino, opt, ps, tiles);
  at = sparse::CsrMatrix{};
  Side fwd = build_side(a, sino, tomo, opt, ps, tiles);
  return finish_storage(
      {opt, a.num_rows, a.num_cols, tiles, std::move(fwd), std::move(bwd), {}});
}

std::shared_ptr<const ShardedOperator::Storage> ShardedOperator::build_storage(
    sparse::BufferedMatrix fwd, Options opt) {
  opt = checked(std::move(opt));
  MEMXCT_CHECK_MSG(opt.kernel == LocalKernel::Buffered,
                   "sharded operator: a staged forward builds Buffered shards");
  MEMXCT_CHECK_MSG(fwd.config.partsize == opt.buffer.partsize &&
                       fwd.config.buffsize == opt.buffer.buffsize,
                   "sharded operator: forward staged in another BufferConfig");
  // Every tile is a range of the serial pair's partitions (shard and tile
  // cuts snap to partsize), so the tiles are cut from the staged forward and
  // from the backward staged from it, and the build never holds a CSR A or
  // A^T. Each side consumes its source as it cuts it, backward first: a
  // block's source pages are released once its tile is copied, so the peak
  // is forward + backward + one tile in flight per thread.
  const idx_t ps = fwd.config.partsize;
  sparse::BufferedMatrix bwd =
      sparse::build_buffered_transpose(fwd, fwd.config);
  const dist::DomainPartition sino =
      partition_rows_aligned(fwd, opt.num_shards);
  const dist::DomainPartition tomo =
      partition_rows_aligned(bwd, opt.num_shards);
  const int tiles = tile_count(sino, tomo, ps, opt);
  Side bwd_side = build_side(std::move(bwd), tomo, sino, opt, ps, tiles);
  bwd = sparse::BufferedMatrix{};
  Side fwd_side = build_side(std::move(fwd), sino, tomo, opt, ps, tiles);
  const idx_t num_rows = fwd.num_rows;
  const idx_t num_cols = fwd.num_cols;
  fwd = sparse::BufferedMatrix{};
  return finish_storage({opt, num_rows, num_cols, tiles, std::move(fwd_side),
                         std::move(bwd_side), {}});
}

std::shared_ptr<const ShardedOperator::Storage>
ShardedOperator::finish_storage(Storage st) {
  const int P = st.opt.num_shards;
  st.rank_bytes.assign(static_cast<std::size_t>(P), 0);
  for (int p = 0; p < P; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    std::int64_t b = 0;
    for (const Side* side : {&st.fwd, &st.bwd}) {
      b += static_cast<std::int64_t>(side->footprint[sp].size() *
                                     sizeof(idx_t));
      for (const TileBlock& block : side->tiles[sp])
        b += block.local.regular_bytes() + buffered_bytes(block.buffered);
      b += plan_rank_bytes(side->plan, p);
    }
    st.rank_bytes[sp] = b;
  }
  return std::make_shared<const Storage>(std::move(st));
}

void ShardedOperator::gather_self(const Side& side, SideState& state,
                                  std::span<const real> x, idx_t k,
                                  idx_t n) const {
  const int P = storage_->opt.num_shards;
  for (int p = 0; p < P; ++p) {
    const auto sp = static_cast<std::size_t>(p);
    auto& xl = state.x_local[sp];
    xl.resize(side.footprint[sp].size() * static_cast<std::size_t>(k));
    const auto& idx = side.plan.self_index[sp];
    const auto& pos = side.plan.self_pos[sp];
    for (std::size_t j = 0; j < idx.size(); ++j)
      for (idx_t s = 0; s < k; ++s)
        xl[static_cast<std::size_t>(pos[j]) * k + s] =
            x[static_cast<std::size_t>(s) * n + idx[j]];
  }
}

double ShardedOperator::run_exchange(const Side& side, SideState& state,
                                     std::span<const real> x, idx_t k,
                                     idx_t n, int t) const {
  const ExchangePlan& plan = side.plan;
  const int P = plan.num_shards;
  if (k > 1 && state.scaled_k != k) {
    state.scaled_displ.assign(plan.rounds.size(), {});
    for (std::size_t ri = 0; ri < plan.rounds.size(); ++ri) {
      auto& scaled = state.scaled_displ[ri];
      scaled = plan.rounds[ri].send_displ;
      for (auto& per_src : scaled)
        for (auto& d : per_src) d *= static_cast<nnz_t>(k);
    }
    state.scaled_k = k;
  }

  double seconds = 0.0;
  for (int r = 0; r < plan.rounds_per_tile; ++r) {
    const auto ri =
        static_cast<std::size_t>(t) * plan.rounds_per_tile +
        static_cast<std::size_t>(r);
    const Round& round = plan.rounds[ri];
    for (int p = 0; p < P; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      const auto& pk = round.pack_index[sp];
      auto& buf = state.send[sp];
      buf.resize(pk.size() * static_cast<std::size_t>(k));
      if (round.from_staging) {
        const auto& stage = state.staging[sp];
        for (std::size_t j = 0; j < pk.size(); ++j)
          for (idx_t s = 0; s < k; ++s)
            buf[j * k + s] = stage[static_cast<std::size_t>(pk[j]) * k + s];
      } else {
        for (std::size_t j = 0; j < pk.size(); ++j)
          for (idx_t s = 0; s < k; ++s)
            buf[j * k + s] = x[static_cast<std::size_t>(s) * n + pk[j]];
      }
    }
    comm_.alltoallv(state.send,
                    k > 1 ? state.scaled_displ[ri] : round.send_displ,
                    state.recv);
    // Measured copy time drives the pipeline accounting; the α–β model of
    // the same round is charged alongside for skew reporting.
    seconds += comm_.last_exchange_measured_seconds();
    stats_.comm_modeled_seconds +=
        comm_.charge_model(storage_->opt.machine);
    if (round.to_staging) {
      for (int p = 0; p < P; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        state.staging[sp].assign(state.recv[sp].begin(),
                                 state.recv[sp].end());
      }
    } else {
      for (int p = 0; p < P; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        const auto& pos = round.scatter_pos[sp];
        const auto& recv = state.recv[sp];
        MEMXCT_CHECK(recv.size() == pos.size() * static_cast<std::size_t>(k));
        auto& xl = state.x_local[sp];
        for (std::size_t e = 0; e < pos.size(); ++e)
          for (idx_t s = 0; s < k; ++s)
            xl[static_cast<std::size_t>(pos[e]) * k + s] = recv[e * k + s];
      }
    }
  }
  return seconds;
}

void ShardedOperator::pipelined_apply(const Side& side, SideState& state,
                                      std::span<const real> x,
                                      std::span<real> y, idx_t k, idx_t n,
                                      idx_t m) const {
  MEMXCT_CHECK(x.size() == static_cast<std::size_t>(n) * k);
  MEMXCT_CHECK(y.size() == static_cast<std::size_t>(m) * k);
  const int P = storage_->opt.num_shards;
  const int T = side.plan.tiles;
  const bool buffered = storage_->opt.kernel == LocalKernel::Buffered;
  perf::WallTimer timer;

  gather_self(side, state, x, k, n);

  int exchanged = 0;
  bool stopped = false;
  for (int t = 0; t < T; ++t) {
    if (exchanged <= t) {
      // Not prefetched (tile 0, or the pipeline was de-pipelined by a
      // cancel poll): this exchange is on the critical path, unhidden.
      stats_.comm_seconds += run_exchange(side, state, x, k, n, t);
      exchanged = t + 1;
    }

    if (cancel_ != nullptr) {
      stats_.cancel_polls += 1;
      if (!stopped && cancel_->should_stop()) stopped = true;
    }
    double next_comm = 0.0;
    if (t + 1 < T) {
      if (!stopped) {
        next_comm = run_exchange(side, state, x, k, n, t + 1);
        stats_.comm_seconds += next_comm;
        exchanged = t + 2;
      } else {
        stats_.depipelined_tiles += 1;
      }
    }

    double wall = 0.0, sum = 0.0;
    for (int p = 0; p < P; ++p) {
      const auto sp = static_cast<std::size_t>(p);
      const TileBlock& block = side.tiles[sp][static_cast<std::size_t>(t)];
      if (block.rows == 0) continue;
      const auto& xl = state.x_local[sp];
      timer.reset();
      if (k == 1) {
        const auto y_out = y.subspan(static_cast<std::size_t>(block.row_begin),
                                     static_cast<std::size_t>(block.rows));
        if (buffered)
          sparse::spmv_buffered(block.buffered, xl, y_out);
        else
          sparse::spmv_csr(block.local, xl, y_out);
      } else {
        auto& yt = state.y_tile;
        yt.resize(static_cast<std::size_t>(block.rows) * k);
        if (buffered)
          sparse::spmm_buffered(block.buffered, k, xl, yt);
        else
          sparse::spmm_csr(block.local, k, xl, yt);
        for (idx_t r = 0; r < block.rows; ++r)
          for (idx_t s = 0; s < k; ++s)
            y[static_cast<std::size_t>(s) * m + block.row_begin + r] =
                yt[static_cast<std::size_t>(r) * k + s];
      }
      const double sec = timer.seconds();
      wall = std::max(wall, sec);
      sum += sec;
    }
    stats_.compute_seconds += wall;
    stats_.compute_sum_seconds += sum;
    stats_.overlap_saved_seconds += std::min(next_comm, wall);
  }
  stats_.applies += 1;
}

void ShardedOperator::apply(std::span<const real> x, std::span<real> y) const {
  pipelined_apply(storage_->fwd, fwd_state_, x, y, 1, num_cols_, num_rows_);
}

void ShardedOperator::apply_transpose(std::span<const real> y,
                                      std::span<real> x) const {
  pipelined_apply(storage_->bwd, bwd_state_, y, x, 1, num_rows_, num_cols_);
}

void ShardedOperator::apply_block(std::span<const real> x, std::span<real> y,
                                  idx_t k) const {
  pipelined_apply(storage_->fwd, fwd_state_, x, y, k, num_cols_, num_rows_);
}

void ShardedOperator::apply_transpose_block(std::span<const real> y,
                                            std::span<real> x, idx_t k) const {
  pipelined_apply(storage_->bwd, bwd_state_, y, x, k, num_rows_, num_cols_);
}

std::unique_ptr<ShardedOperator> ShardedOperator::make_view() const {
  return std::unique_ptr<ShardedOperator>(new ShardedOperator(storage_));
}

int ShardedOperator::num_shards() const noexcept {
  return storage_->opt.num_shards;
}

int ShardedOperator::pipeline_tiles() const noexcept {
  return storage_->tiles;
}

std::int64_t ShardedOperator::bytes() const {
  std::int64_t total = 0;
  for (const std::int64_t b : storage_->rank_bytes) total += b;
  return total;
}

std::int64_t ShardedOperator::rank_bytes(int shard) const {
  return storage_->rank_bytes[static_cast<std::size_t>(shard)];
}

const ExchangePlan& ShardedOperator::forward_plan() const {
  return storage_->fwd.plan;
}

const ExchangePlan& ShardedOperator::transpose_plan() const {
  return storage_->bwd.plan;
}

const dist::DomainPartition& ShardedOperator::sino_partition() const {
  return storage_->fwd.rows;
}

const dist::DomainPartition& ShardedOperator::tomo_partition() const {
  return storage_->bwd.rows;
}

}  // namespace memxct::shard
