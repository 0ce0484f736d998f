#include "core/operator.hpp"

#include <omp.h>

#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/interleave.hpp"
#include "core/subset.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "sparse/subset.hpp"
#include "sparse/transpose.hpp"

namespace memxct::core {

const char* to_string(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::Baseline:
      return "baseline CSR";
    case KernelKind::EllBlock:
      return "block-ELL";
    case KernelKind::Buffered:
      return "multi-stage buffered";
    case KernelKind::Library:
      return "general library CSR";
  }
  return "?";
}

const char* to_string(ScheduleKind kind) noexcept {
  switch (kind) {
    case ScheduleKind::Dynamic:
      return "dynamic";
    case ScheduleKind::StaticPlan:
      return "static-plan";
  }
  return "?";
}

const char* to_string(AutotuneMode mode) noexcept {
  switch (mode) {
    case AutotuneMode::Off:
      return "off";
    case AutotuneMode::Cached:
      return "cached";
    case AutotuneMode::Force:
      return "force";
  }
  return "?";
}

const char* to_string(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::CGLS:
      return "CG";
    case SolverKind::SIRT:
      return "SIRT";
    case SolverKind::GradientDescent:
      return "GD";
    case SolverKind::OsSirt:
      return "OS-SIRT";
    case SolverKind::OsSart:
      return "OS-SART";
  }
  return "?";
}

namespace {

/// A matrix in whichever storage the kernel kind selects.
using StoredMatrix = std::variant<sparse::CsrMatrix, sparse::EllBlockMatrix,
                                  sparse::BufferedMatrix>;

std::int64_t matrix_bytes(const sparse::EllBlockMatrix& m) {
  return m.padded_nnz() *
         static_cast<std::int64_t>(sizeof(idx_t) + sizeof(real));
}
std::int64_t matrix_bytes(const sparse::BufferedMatrix& m) {
  const auto per_nnz = static_cast<std::int64_t>(
      sizeof(buf_idx_t) + sparse::bytes_per_value(m.storage));
  return m.nnz() * per_nnz +
         m.total_staged() * static_cast<std::int64_t>(sizeof(idx_t));
}
std::int64_t matrix_bytes(const auto& m) { return m.regular_bytes(); }

perf::KernelWork work(const sparse::CsrMatrix& m) {
  return sparse::csr_work(m);
}
perf::KernelWork work(const sparse::EllBlockMatrix& m) {
  return sparse::ell_work(m);
}
perf::KernelWork work(const sparse::BufferedMatrix& m) {
  return sparse::buffered_work(m);
}

}  // namespace

struct MemXCTOperator::Storage {
  KernelKind kind;
  ScheduleKind schedule;
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
  idx_t num_rows = 0, num_cols = 0;
  nnz_t nnz = 0;
  std::int64_t regular_bytes = 0;
  /// One direction: its matrix and static-plan partition → slot assignment
  /// (built once at construction; empty under Dynamic and for Library).
  struct Direction {
    StoredMatrix matrix;
    sparse::ApplyPlan plan;
  };
  Direction fwd, bwd;  ///< A and its stored transpose.

  [[nodiscard]] const Direction& dir(bool transpose) const noexcept {
    return transpose ? bwd : fwd;
  }
};

MemXCTOperator::MemXCTOperator(sparse::CsrMatrix a, KernelKind kind,
                               const sparse::BufferConfig& buffer,
                               idx_t ell_block_rows, ScheduleKind schedule,
                               sparse::ValueStorage precision)
    : MemXCTOperator(build_storage(std::move(a), kind, buffer, ell_block_rows,
                                   schedule, precision)) {}

MemXCTOperator::MemXCTOperator(sparse::BufferedMatrix fwd,
                               ScheduleKind schedule,
                               sparse::ValueStorage precision)
    : MemXCTOperator(build_storage(std::move(fwd), schedule, precision)) {}

std::shared_ptr<const MemXCTOperator::Storage> MemXCTOperator::build_storage(
    sparse::CsrMatrix a, KernelKind kind, const sparse::BufferConfig& buffer,
    idx_t ell_block_rows, ScheduleKind schedule,
    sparse::ValueStorage precision) {
  if (precision != sparse::ValueStorage::Fp32 && kind != KernelKind::Buffered)
    throw InvalidArgument(std::string("reduced precision ") +
                          sparse::to_string(precision) +
                          " is only supported for the buffered kernel, not " +
                          to_string(kind));
  if (kind == KernelKind::Buffered) {
    // A is consumed by the forward's build (its values become the
    // forward's, its indices are released as they are placed) and gone
    // before the backward exists: the build holds A's indices, the values
    // and the forward's indices, then the forward and the backward
    // (DESIGN.md §23).
    sparse::BufferedMatrix fwd = sparse::build_buffered(std::move(a), buffer);
    a = {};
    return build_storage(std::move(fwd), schedule, precision);
  }
  auto s = std::make_shared<Storage>();
  s->kind = kind;
  s->schedule = schedule;
  s->num_rows = a.num_rows;
  s->num_cols = a.num_cols;
  s->nnz = a.nnz();
  // Each CSR is consumed by its conversion.
  const auto convert = [&](sparse::CsrMatrix m) -> StoredMatrix {
    if (kind == KernelKind::EllBlock)
      return sparse::to_ell_block(m, ell_block_rows);
    return m;
  };
  sparse::CsrMatrix at = sparse::transpose(a);
  s->fwd.matrix = convert(std::move(a));
  s->bwd.matrix = convert(std::move(at));
  finish_storage(*s);
  return s;
}

std::shared_ptr<const MemXCTOperator::Storage> MemXCTOperator::build_storage(
    sparse::BufferedMatrix fwd, ScheduleKind schedule,
    sparse::ValueStorage precision) {
  auto s = std::make_shared<Storage>();
  s->kind = KernelKind::Buffered;
  s->schedule = schedule;
  s->precision = precision;
  s->num_rows = fwd.num_rows;
  s->num_cols = fwd.num_cols;
  s->nnz = fwd.nnz();
  // The forward is compressed first, releasing its fp32 values as they are
  // quantized, and the backward is written straight from it in the same
  // precision: the build never holds a CSR A^T, nor the fp32 values beside
  // the 16-bit backward (DESIGN.md §23).
  fwd = sparse::compress_buffered(std::move(fwd), precision);
  s->bwd.matrix = sparse::build_buffered_transpose(fwd, fwd.config, precision);
  s->fwd.matrix = std::move(fwd);
  finish_storage(*s);
  return s;
}

void MemXCTOperator::finish_storage(Storage& s) {
  for (const Storage::Direction* d : {&s.fwd, &s.bwd})
    s.regular_bytes += std::visit(
        [](const auto& m) { return matrix_bytes(m); }, d->matrix);

  // The general-library stand-in keeps its untuned schedule by design.
  if (s.schedule == ScheduleKind::StaticPlan && s.kind != KernelKind::Library) {
    // nnz-balanced partition → thread assignments for both directions. The
    // slot count is fixed here once; applies (from any view, under any
    // thread count) execute the same slots in the same order, which is what
    // makes output bitwise-deterministic.
    const int slots = omp_get_max_threads();
    for (Storage::Direction* d : {&s.fwd, &s.bwd})
      d->plan = sparse::ApplyPlan::build(
          std::visit([](const auto& m) { return sparse::partition_nnz(m); },
                     d->matrix),
          slots);
  }
}

MemXCTOperator::MemXCTOperator(std::shared_ptr<const Storage> storage)
    : store_(std::move(storage)),
      ws_fwd_(make_workspace(false, 1)),
      ws_bwd_(make_workspace(true, 1)) {}

MemXCTOperator::~MemXCTOperator() = default;

std::unique_ptr<MemXCTOperator> MemXCTOperator::make_view() const {
  return std::unique_ptr<MemXCTOperator>(new MemXCTOperator(store_));
}

idx_t MemXCTOperator::row_partition_size() const {
  const Storage& s = *store_;
  switch (s.kind) {
    case KernelKind::Baseline:
      return sparse::kCsrPartsize;
    case KernelKind::Buffered:
      return std::get<sparse::BufferedMatrix>(s.fwd.matrix).config.partsize;
    case KernelKind::EllBlock:
    case KernelKind::Library:
      break;
  }
  throw InvalidArgument(std::string("subset views are not supported for the ") +
                        to_string(s.kind) + " kernel");
}

std::unique_ptr<SubsetOperatorView> MemXCTOperator::subset_view(
    idx_t first_row, idx_t num_rows) const {
  const Storage& s = *store_;
  const idx_t partsize = row_partition_size();  // rejects unsupported kinds
  const sparse::RowRange range{first_row, num_rows};
  sparse::check_range_aligned(range, s.num_rows, partsize);

  auto v = std::unique_ptr<SubsetOperatorView>(new SubsetOperatorView());
  v->keepalive_ = store_;
  v->range_ = range;
  v->num_cols_ = s.num_cols;
  v->planned_ = s.schedule == ScheduleKind::StaticPlan;

  std::vector<nnz_t> fwd_weights, bwd_weights;
  if (s.kind == KernelKind::Baseline) {
    v->csr_fwd_ = &std::get<sparse::CsrMatrix>(s.fwd.matrix);
    v->csr_bwd_ = &std::get<sparse::CsrMatrix>(s.bwd.matrix);
    v->colrange_ = sparse::ColRangeIndex::build(*v->csr_bwd_, range);
    v->nnz_sub_ = v->colrange_.nnz_sub;
    fwd_weights = sparse::partition_nnz(*v->csr_fwd_);
    bwd_weights =
        sparse::colrange_partition_nnz(v->colrange_, s.num_cols, partsize);
  } else {
    v->buf_fwd_ = &std::get<sparse::BufferedMatrix>(s.fwd.matrix);
    v->buf_bwd_ = &std::get<sparse::BufferedMatrix>(s.bwd.matrix);
    v->buf_colrange_ = sparse::BufferedColRange::build(*v->buf_bwd_, range);
    v->nnz_sub_ = v->buf_colrange_.nnz_sub;
    fwd_weights = sparse::partition_nnz(*v->buf_fwd_);
    bwd_weights = v->buf_colrange_.part_nnz;
  }
  if (v->planned_) {
    // Same slot counts as the parent plans: the view executes the same
    // round-robin slot → thread map, so its output is deterministic under
    // any thread count, like every other planned apply. The forward plan
    // covers the in-range partitions, the transpose plan all of them.
    v->plan_fwd_ = sparse::ApplyPlan::build(
        std::span(fwd_weights)
            .subspan(static_cast<std::size_t>(first_row / partsize),
                     static_cast<std::size_t>(ceil_div(num_rows, partsize))),
        s.fwd.plan.num_slots());
    v->plan_bwd_ =
        sparse::ApplyPlan::build(bwd_weights, s.bwd.plan.num_slots());
    if (v->buf_fwd_ != nullptr) {
      const auto fwd = sparse::apply_scratch(*v->buf_fwd_, 1);
      const auto bwd = sparse::apply_scratch(*v->buf_bwd_, 1);
      v->ws_fwd_ =
          sparse::Workspace(v->plan_fwd_.num_slots(), fwd.input, fwd.output);
      v->ws_bwd_ =
          sparse::Workspace(v->plan_bwd_.num_slots(), bwd.input, bwd.output);
    }
  }
  return v;
}

sparse::Workspace MemXCTOperator::make_workspace(bool transpose,
                                                 idx_t k) const {
  const Storage& s = *store_;
  if (s.schedule != ScheduleKind::StaticPlan) return {};
  // Persistent per-slot buffers sized for the kernel's needs, so applies
  // never allocate. Sized by the plan's slot count so views match the
  // storage they share.
  const Storage::Direction& d = s.dir(transpose);
  const sparse::Scratch need = std::visit(
      [&](const auto& m) { return sparse::apply_scratch(m, k); }, d.matrix);
  if (need.input == 0 && need.output == 0) return {};  // CSR: none needed
  return sparse::Workspace(d.plan.num_slots(), need.input, need.output);
}

idx_t MemXCTOperator::num_rows() const { return store_->num_rows; }
idx_t MemXCTOperator::num_cols() const { return store_->num_cols; }
KernelKind MemXCTOperator::kind() const noexcept { return store_->kind; }
ScheduleKind MemXCTOperator::schedule() const noexcept {
  return store_->schedule;
}
sparse::ValueStorage MemXCTOperator::precision() const noexcept {
  return store_->precision;
}
nnz_t MemXCTOperator::nnz() const noexcept { return store_->nnz; }
std::int64_t MemXCTOperator::regular_bytes() const noexcept {
  return store_->regular_bytes;
}
std::int64_t MemXCTOperator::bytes() const noexcept {
  return store_->regular_bytes + store_->fwd.plan.bytes() +
         store_->bwd.plan.bytes();
}

sparse::PlanStats MemXCTOperator::forward_plan_stats() const noexcept {
  return store_->fwd.plan.stats();
}
sparse::PlanStats MemXCTOperator::transpose_plan_stats() const noexcept {
  return store_->bwd.plan.stats();
}

void MemXCTOperator::run(bool transpose, sparse::Workspace& ws, idx_t k,
                         std::span<const real> in,
                         std::span<real> out) const {
  const Storage& s = *store_;
  const Storage::Direction& d = s.dir(transpose);
  if (s.kind == KernelKind::Library) {
    const auto& a = std::get<sparse::CsrMatrix>(d.matrix);
    if (k == 1)
      sparse::spmv_library(a, in, out);
    else
      sparse::spmm_library(a, k, in, out);
    return;
  }
  sparse::Schedule sched;
  if (s.schedule == ScheduleKind::StaticPlan) sched = {&d.plan, &ws};
  std::visit([&](const auto& m) { sparse::apply(m, sched, k, in, out); },
             d.matrix);
}

void MemXCTOperator::apply(std::span<const real> x, std::span<real> y) const {
  run(false, ws_fwd_, 1, x, y);
}

void MemXCTOperator::apply_transpose(std::span<const real> y,
                                     std::span<real> x) const {
  run(true, ws_bwd_, 1, y, x);
}

BlockWorkspace MemXCTOperator::make_block_workspace(idx_t k) const {
  MEMXCT_CHECK_MSG(k >= 1 && k <= sparse::kMaxBlockWidth,
                   "block width out of [1, kMaxBlockWidth]");
  const Storage& s = *store_;
  BlockWorkspace ws;
  ws.k_ = k;
  common::aligned_resize_for_simd(ws.x_interleaved_,
                                  static_cast<std::size_t>(s.num_cols), k);
  common::aligned_resize_for_simd(ws.y_interleaved_,
                                  static_cast<std::size_t>(s.num_rows), k);
  ws.ws_fwd_ = make_workspace(false, k);
  ws.ws_bwd_ = make_workspace(true, k);
  return ws;
}

void MemXCTOperator::run_block(bool transpose, std::span<const real> in,
                               std::span<real> out, BlockWorkspace& ws) const {
  const idx_t k = ws.k_;
  MEMXCT_CHECK_MSG(k >= 1, "block workspace is default-constructed");
  const auto cols = static_cast<std::size_t>(store_->num_cols);
  const auto rows = static_cast<std::size_t>(store_->num_rows);
  const std::size_t n_in = (transpose ? rows : cols) * k;
  const std::size_t n_out = (transpose ? cols : rows) * k;
  MEMXCT_CHECK(in.size() >= n_in);
  MEMXCT_CHECK(out.size() >= n_out);
  auto& in_i = transpose ? ws.y_interleaved_ : ws.x_interleaved_;
  auto& out_i = transpose ? ws.x_interleaved_ : ws.y_interleaved_;
  common::interleave(in, n_in / k, k, in_i);
  run(transpose, transpose ? ws.ws_bwd_ : ws.ws_fwd_, k,
      std::span<const real>(in_i).first(n_in),
      std::span<real>(out_i).first(n_out));
  common::deinterleave(out_i, n_out / k, k, out);
}

void MemXCTOperator::apply_block(std::span<const real> x, std::span<real> y,
                                 BlockWorkspace& ws) const {
  run_block(false, x, y, ws);
}

void MemXCTOperator::apply_transpose_block(std::span<const real> y,
                                           std::span<real> x,
                                           BlockWorkspace& ws) const {
  run_block(true, y, x, ws);
}

void MemXCTOperator::apply_block(std::span<const real> x, std::span<real> y,
                                 idx_t k) const {
  if (block_ws_ == nullptr || block_ws_->width() != k)
    block_ws_ = std::make_unique<BlockWorkspace>(make_block_workspace(k));
  apply_block(x, y, *block_ws_);
}

void MemXCTOperator::apply_transpose_block(std::span<const real> y,
                                           std::span<real> x, idx_t k) const {
  if (block_ws_ == nullptr || block_ws_->width() != k)
    block_ws_ = std::make_unique<BlockWorkspace>(make_block_workspace(k));
  apply_transpose_block(y, x, *block_ws_);
}

perf::KernelWork MemXCTOperator::forward_work() const {
  return std::visit([](const auto& m) { return work(m); }, store_->fwd.matrix);
}

perf::KernelWork MemXCTOperator::transpose_work() const {
  return std::visit([](const auto& m) { return work(m); }, store_->bwd.matrix);
}

}  // namespace memxct::core
