#include "shard/sharded_operator.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/error.hpp"
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
         static_cast<std::int64_t>(b.val.size() * sizeof(real));
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

// Lowers `slot` to `value` if that is smaller; concurrent callers leave the
// minimum of all their values, whatever their order.
void atomic_min(int& slot, int value) {
  std::atomic_ref<int> a(slot);
  int cur = a.load();
  while (cur > value && !a.compare_exchange_weak(cur, value)) {
  }
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

ShardedOperator::Side ShardedOperator::build_side(
    const sparse::CsrMatrix& m, dist::DomainPartition rows,
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
    const idx_t np = std::max<idx_t>(1, (local_rows + partsize - 1) / partsize);
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
  // P × tiles blocks. Every block writes only its own arrays, so the bytes
  // do not depend on which thread builds which block; the only shared
  // output, first_tile, is a minimum and so is order-independent too. With
  // fewer blocks than threads, a block per thread would leave threads idle
  // while each nested buffered build runs on one: the region then stays
  // inactive, the blocks run in sequence, and each block's buffered build
  // gets the whole team.
  const int num_blocks = P * tiles;
#pragma omp parallel if (num_blocks >= omp_get_max_threads())
  {
    sparse::FootprintIndex footprint(m.num_cols);
#pragma omp for schedule(dynamic, 1)
    for (int p = 0; p < P; ++p) {
      guarded([&] {
        auto& fp = side.footprint[static_cast<std::size_t>(p)];
        fp = footprint.collect(m, side.rows.begin(p), side.rows.end(p));
        first_tile[static_cast<std::size_t>(p)].assign(fp.size(), tiles);
      });
    }
#pragma omp for schedule(dynamic, 1)
    for (int b = 0; b < num_blocks; ++b) {
      guarded([&] {
        const int p = b / tiles;
        const int t = b % tiles;
        const auto& fp = side.footprint[static_cast<std::size_t>(p)];
        auto& ft = first_tile[static_cast<std::size_t>(p)];
        TileBlock& block = side.tiles[static_cast<std::size_t>(p)]
                                     [static_cast<std::size_t>(t)];
        footprint.index(fp);

        // The slice's arrays are sized once and filled here, so this thread
        // first-touches their pages.
        sparse::CsrMatrix& local = block.local;
        local.num_rows = block.rows;
        local.num_cols = static_cast<idx_t>(fp.size());
        local.displ.resize(static_cast<std::size_t>(block.rows) + 1);
        const nnz_t base = m.displ[block.row_begin];
        for (idx_t r = 0; r <= block.rows; ++r)
          local.displ[static_cast<std::size_t>(r)] =
              m.displ[block.row_begin + r] - base;
        const nnz_t block_nnz = local.displ.back();
        local.ind.resize(static_cast<std::size_t>(block_nnz));
        local.val.resize(static_cast<std::size_t>(block_nnz));
        // Like the buffered build below, the copy runs on this thread in an
        // active region and on the team in an inactive one.
#pragma omp parallel for schedule(static)
        for (nnz_t j = 0; j < block_nnz; ++j) {
          const idx_t pos = footprint.position(m.ind[base + j]);
          local.ind[static_cast<std::size_t>(j)] = pos;
          local.val[static_cast<std::size_t>(j)] = m.val[base + j];
          atomic_min(ft[static_cast<std::size_t>(pos)], t);
        }
        if (opt.kernel == LocalKernel::Buffered && block.rows > 0) {
          // Nested in an active region, the buffered build runs on this
          // thread; in an inactive one it gets the team.
          block.buffered = sparse::build_buffered(local, opt.buffer);
          // The buffered structure is self-contained; the CSR slice it was
          // staged from is dead weight — drop it so each shard's residency
          // is the buffered footprint alone (the apply never reads it).
          local = sparse::CsrMatrix{};
        }
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
  MEMXCT_CHECK_MSG(opt.num_shards >= 1,
                   "sharded operator: num_shards must be >= 1");
  if (opt.group_size < 1) opt.group_size = 1;
  const idx_t ps = opt.kernel == LocalKernel::Buffered ? opt.buffer.partsize
                                                       : sparse::kCsrPartsize;
  sparse::CsrMatrix at = sparse::transpose(a);
  dist::DomainPartition sino = partition_rows_aligned(a, opt.num_shards, ps);
  dist::DomainPartition tomo = partition_rows_aligned(at, opt.num_shards, ps);

  // Uniform pipeline tile count, bounded by the largest shard's partition
  // count so every non-empty tile is at least one kernel partition.
  idx_t max_np = 1;
  for (int p = 0; p < opt.num_shards; ++p) {
    max_np = std::max(max_np, (sino.size(p) + ps - 1) / ps);
    max_np = std::max(max_np, (tomo.size(p) + ps - 1) / ps);
  }
  int tiles = opt.pipeline_tiles > 0 ? opt.pipeline_tiles : 4;
  tiles = std::max(1, std::min<int>(tiles, static_cast<int>(max_np)));

  // Backward side first, so A^T is released before the forward side is
  // built: the peak is A + A^T + one side, not A + A^T + both.
  Side bwd = build_side(at, tomo, sino, opt, ps, tiles);
  at = sparse::CsrMatrix{};
  Side fwd = build_side(a, sino, tomo, opt, ps, tiles);
  Storage st{opt,           a.num_rows,     a.num_cols, tiles,
             std::move(fwd), std::move(bwd), {}};

  st.rank_bytes.assign(static_cast<std::size_t>(opt.num_shards), 0);
  for (int p = 0; p < opt.num_shards; ++p) {
    std::int64_t b = 0;
    for (const Side* side : {&st.fwd, &st.bwd}) {
      const auto sp = static_cast<std::size_t>(p);
      b += static_cast<std::int64_t>(side->footprint[sp].size() *
                                     sizeof(idx_t));
      for (const TileBlock& block : side->tiles[sp]) {
        b += block.local.regular_bytes();
        if (opt.kernel == LocalKernel::Buffered)
          b += buffered_bytes(block.buffered);
      }
      b += plan_rank_bytes(side->plan, p);
    }
    st.rank_bytes[static_cast<std::size_t>(p)] = b;
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
