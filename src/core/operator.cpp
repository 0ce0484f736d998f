#include "core/operator.hpp"

#include <omp.h>

#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/interleave.hpp"
#include "core/subset.hpp"
#include "sparse/compressed.hpp"
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

struct MemXCTOperator::Storage {
  KernelKind kind;
  ScheduleKind schedule;
  sparse::ValueStorage precision = sparse::ValueStorage::Fp32;
  idx_t num_rows = 0, num_cols = 0;
  nnz_t nnz = 0;
  std::int64_t regular_bytes = 0;
  // Exactly one pair below is populated, matching kind and precision.
  std::optional<sparse::CsrMatrix> csr_fwd, csr_bwd;
  std::optional<sparse::EllBlockMatrix> ell_fwd, ell_bwd;
  std::optional<sparse::BufferedMatrix> buf_fwd, buf_bwd;
  std::optional<sparse::CompressedCsr> ccsr_fwd, ccsr_bwd;
  std::optional<sparse::CompressedBuffered> cbuf_fwd, cbuf_bwd;
  // Static-plan partition → slot assignments (built once at construction).
  sparse::ApplyPlan plan_fwd, plan_bwd;
};

MemXCTOperator::MemXCTOperator(sparse::CsrMatrix a, KernelKind kind,
                               const sparse::BufferConfig& buffer,
                               idx_t ell_block_rows, ScheduleKind schedule,
                               sparse::ValueStorage precision) {
  const bool compressed = precision != sparse::ValueStorage::Fp32;
  if (compressed &&
      !(kind == KernelKind::Baseline || kind == KernelKind::Buffered))
    throw InvalidArgument(std::string("compressed precision ") +
                          sparse::to_string(precision) +
                          " is only supported for the baseline CSR and "
                          "buffered kernels, not " +
                          to_string(kind));
  auto s = std::make_shared<Storage>();
  s->kind = kind;
  s->schedule = schedule;
  s->precision = precision;
  s->num_rows = a.num_rows;
  s->num_cols = a.num_cols;
  s->nnz = a.nnz();
  // Each CSR is released as soon as its derived form exists, so at most
  // one CSR is alive while the backward form is built.
  sparse::CsrMatrix at = sparse::transpose(a);
  switch (kind) {
    case KernelKind::Baseline:
      if (compressed) {
        s->ccsr_fwd = sparse::compress_csr(a, sparse::kCsrPartsize, precision);
        a = {};
        s->ccsr_bwd =
            sparse::compress_csr(at, sparse::kCsrPartsize, precision);
        at = {};
        s->regular_bytes =
            s->ccsr_fwd->regular_bytes() + s->ccsr_bwd->regular_bytes();
        break;
      }
      [[fallthrough]];
    case KernelKind::Library:
      s->regular_bytes = a.regular_bytes() + at.regular_bytes();
      s->csr_fwd = std::move(a);
      s->csr_bwd = std::move(at);
      break;
    case KernelKind::EllBlock:
      s->ell_fwd = sparse::to_ell_block(a, ell_block_rows);
      a = {};
      s->ell_bwd = sparse::to_ell_block(at, ell_block_rows);
      at = {};
      s->regular_bytes =
          (s->ell_fwd->padded_nnz() + s->ell_bwd->padded_nnz()) *
          static_cast<std::int64_t>(sizeof(idx_t) + sizeof(real));
      break;
    case KernelKind::Buffered:
      if (compressed) {
        s->cbuf_fwd = sparse::compress_buffered(
            sparse::build_buffered(a, buffer), precision);
        a = {};
        s->cbuf_bwd = sparse::compress_buffered(
            sparse::build_buffered(at, buffer), precision);
        at = {};
        s->regular_bytes =
            s->cbuf_fwd->regular_bytes() + s->cbuf_bwd->regular_bytes();
        break;
      }
      s->buf_fwd = sparse::build_buffered(a, buffer);
      a = {};
      s->buf_bwd = sparse::build_buffered(at, buffer);
      at = {};
      s->regular_bytes =
          (s->buf_fwd->nnz() + s->buf_bwd->nnz()) *
              static_cast<std::int64_t>(sizeof(buf_idx_t) + sizeof(real)) +
          (s->buf_fwd->total_staged() + s->buf_bwd->total_staged()) *
              static_cast<std::int64_t>(sizeof(idx_t));
      break;
  }

  if (schedule == ScheduleKind::StaticPlan) {
    // nnz-balanced partition → thread assignments for both directions. The
    // slot count is fixed here once; applies (from any view, under any
    // thread count) execute the same slots in the same order, which is what
    // makes output bitwise-deterministic.
    const int slots = omp_get_max_threads();
    switch (kind) {
      case KernelKind::Baseline:
        if (compressed) {
          s->plan_fwd = sparse::ApplyPlan::build(
              sparse::partition_nnz(*s->ccsr_fwd), slots);
          s->plan_bwd = sparse::ApplyPlan::build(
              sparse::partition_nnz(*s->ccsr_bwd), slots);
          break;
        }
        s->plan_fwd = sparse::ApplyPlan::build(
            sparse::partition_nnz(*s->csr_fwd, sparse::kCsrPartsize), slots);
        s->plan_bwd = sparse::ApplyPlan::build(
            sparse::partition_nnz(*s->csr_bwd, sparse::kCsrPartsize), slots);
        break;
      case KernelKind::Library:
        // The general-library stand-in keeps its untuned schedule by design.
        break;
      case KernelKind::EllBlock:
        s->plan_fwd =
            sparse::ApplyPlan::build(sparse::partition_nnz(*s->ell_fwd), slots);
        s->plan_bwd =
            sparse::ApplyPlan::build(sparse::partition_nnz(*s->ell_bwd), slots);
        break;
      case KernelKind::Buffered:
        if (compressed) {
          s->plan_fwd = sparse::ApplyPlan::build(
              sparse::partition_nnz(*s->cbuf_fwd), slots);
          s->plan_bwd = sparse::ApplyPlan::build(
              sparse::partition_nnz(*s->cbuf_bwd), slots);
          break;
        }
        s->plan_fwd =
            sparse::ApplyPlan::build(sparse::partition_nnz(*s->buf_fwd), slots);
        s->plan_bwd =
            sparse::ApplyPlan::build(sparse::partition_nnz(*s->buf_bwd), slots);
        break;
    }
  }
  store_ = std::move(s);
  build_workspaces();
}

MemXCTOperator::MemXCTOperator(std::shared_ptr<const Storage> storage)
    : store_(std::move(storage)) {
  build_workspaces();
}

MemXCTOperator::~MemXCTOperator() = default;

std::unique_ptr<MemXCTOperator> MemXCTOperator::make_view() const {
  return std::unique_ptr<MemXCTOperator>(new MemXCTOperator(store_));
}

idx_t MemXCTOperator::row_partition_size() const {
  const Storage& s = *store_;
  if (s.precision != sparse::ValueStorage::Fp32)
    throw InvalidArgument(
        "subset views are not supported for compressed operator storage");
  switch (s.kind) {
    case KernelKind::Baseline:
      return sparse::kCsrPartsize;
    case KernelKind::Buffered:
      return s.buf_fwd->config.partsize;
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
  v->partsize_ = partsize;
  const idx_t nparts_sub = ceil_div(range.count, partsize);

  if (s.kind == KernelKind::Baseline) {
    v->csr_fwd_ = &*s.csr_fwd;
    v->csr_bwd_ = &*s.csr_bwd;
    v->colrange_ = sparse::ColRangeIndex::build(*s.csr_bwd, range);
    v->nnz_sub_ = v->colrange_.nnz_sub;
    if (v->planned_) {
      // Same slot counts as the parent plans: the view executes the same
      // round-robin slot → thread map, so its output is deterministic under
      // any thread count, like every other planned apply.
      const auto fwd_weights = sparse::partition_nnz(*s.csr_fwd, partsize);
      v->plan_fwd_ = sparse::ApplyPlan::build(
          std::span(fwd_weights)
              .subspan(static_cast<std::size_t>(first_row / partsize),
                       static_cast<std::size_t>(nparts_sub)),
          s.plan_fwd.num_slots());
      v->plan_bwd_ = sparse::ApplyPlan::build(
          sparse::colrange_partition_nnz(v->colrange_, s.num_cols, partsize),
          s.plan_bwd.num_slots());
    }
  } else {
    v->buf_fwd_ = &*s.buf_fwd;
    v->buf_bwd_ = &*s.buf_bwd;
    v->buf_colrange_ = sparse::BufferedColRange::build(*s.buf_bwd, range);
    v->nnz_sub_ = v->buf_colrange_.nnz_sub;
    if (v->planned_) {
      const auto fwd_weights = sparse::partition_nnz(*s.buf_fwd);
      v->plan_fwd_ = sparse::ApplyPlan::build(
          std::span(fwd_weights)
              .subspan(static_cast<std::size_t>(first_row / partsize),
                       static_cast<std::size_t>(nparts_sub)),
          s.plan_fwd.num_slots());
      v->plan_bwd_ = sparse::ApplyPlan::build(v->buf_colrange_.part_nnz,
                                              s.plan_bwd.num_slots());
      v->ws_fwd_ =
          sparse::Workspace(v->plan_fwd_.num_slots(),
                            s.buf_fwd->config.buffsize,
                            s.buf_fwd->config.partsize);
      v->ws_bwd_ =
          sparse::Workspace(v->plan_bwd_.num_slots(),
                            s.buf_bwd->config.buffsize,
                            s.buf_bwd->config.partsize);
    }
  }
  return v;
}

void MemXCTOperator::build_workspaces() {
  const Storage& s = *store_;
  if (s.schedule != ScheduleKind::StaticPlan) return;
  // Persistent per-slot staging/output buffers sized for the kernel's needs;
  // after this point apply()/apply_transpose() never allocate. Sized by the
  // plan's slot count so views match the storage they share.
  switch (s.kind) {
    case KernelKind::Baseline:
    case KernelKind::Library:
      break;  // CSR kernels need no staging.
    case KernelKind::EllBlock:
      ws_fwd_ = sparse::Workspace(s.plan_fwd.num_slots(), 0,
                                  s.ell_fwd->block_rows);
      ws_bwd_ = sparse::Workspace(s.plan_bwd.num_slots(), 0,
                                  s.ell_bwd->block_rows);
      break;
    case KernelKind::Buffered: {
      const auto& cfg_fwd =
          s.cbuf_fwd ? s.cbuf_fwd->config : s.buf_fwd->config;
      const auto& cfg_bwd =
          s.cbuf_bwd ? s.cbuf_bwd->config : s.buf_bwd->config;
      ws_fwd_ = sparse::Workspace(s.plan_fwd.num_slots(), cfg_fwd.buffsize,
                                  cfg_fwd.partsize);
      ws_bwd_ = sparse::Workspace(s.plan_bwd.num_slots(), cfg_bwd.buffsize,
                                  cfg_bwd.partsize);
      break;
    }
  }
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
  return store_->regular_bytes + store_->plan_fwd.bytes() +
         store_->plan_bwd.bytes();
}

sparse::PlanStats MemXCTOperator::forward_plan_stats() const noexcept {
  return store_->plan_fwd.stats();
}
sparse::PlanStats MemXCTOperator::transpose_plan_stats() const noexcept {
  return store_->plan_bwd.stats();
}

void MemXCTOperator::apply(std::span<const real> x, std::span<real> y) const {
  const Storage& s = *store_;
  const bool planned = s.schedule == ScheduleKind::StaticPlan;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_fwd) {
        if (planned)
          sparse::spmv_ccsr_planned(*s.ccsr_fwd, s.plan_fwd, x, y);
        else
          sparse::spmv_ccsr(*s.ccsr_fwd, x, y);
      } else if (planned) {
        sparse::spmv_csr_planned(*s.csr_fwd, sparse::kCsrPartsize, s.plan_fwd,
                                 x, y);
      } else {
        sparse::spmv_csr(*s.csr_fwd, x, y);
      }
      break;
    case KernelKind::Library:
      sparse::spmv_library(*s.csr_fwd, x, y);
      break;
    case KernelKind::EllBlock:
      if (planned)
        sparse::spmv_ell_planned(*s.ell_fwd, s.plan_fwd, ws_fwd_, x, y);
      else
        sparse::spmv_ell(*s.ell_fwd, x, y);
      break;
    case KernelKind::Buffered:
      if (s.cbuf_fwd) {
        if (planned)
          sparse::spmv_cbuffered_planned(*s.cbuf_fwd, s.plan_fwd, ws_fwd_, x,
                                         y);
        else
          sparse::spmv_cbuffered(*s.cbuf_fwd, x, y);
      } else if (planned) {
        sparse::spmv_buffered_planned(*s.buf_fwd, s.plan_fwd, ws_fwd_, x, y);
      } else {
        sparse::spmv_buffered(*s.buf_fwd, x, y);
      }
      break;
  }
}

void MemXCTOperator::apply_transpose(std::span<const real> y,
                                     std::span<real> x) const {
  const Storage& s = *store_;
  const bool planned = s.schedule == ScheduleKind::StaticPlan;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_bwd) {
        if (planned)
          sparse::spmv_ccsr_planned(*s.ccsr_bwd, s.plan_bwd, y, x);
        else
          sparse::spmv_ccsr(*s.ccsr_bwd, y, x);
      } else if (planned) {
        sparse::spmv_csr_planned(*s.csr_bwd, sparse::kCsrPartsize, s.plan_bwd,
                                 y, x);
      } else {
        sparse::spmv_csr(*s.csr_bwd, y, x);
      }
      break;
    case KernelKind::Library:
      sparse::spmv_library(*s.csr_bwd, y, x);
      break;
    case KernelKind::EllBlock:
      if (planned)
        sparse::spmv_ell_planned(*s.ell_bwd, s.plan_bwd, ws_bwd_, y, x);
      else
        sparse::spmv_ell(*s.ell_bwd, y, x);
      break;
    case KernelKind::Buffered:
      if (s.cbuf_bwd) {
        if (planned)
          sparse::spmv_cbuffered_planned(*s.cbuf_bwd, s.plan_bwd, ws_bwd_, y,
                                         x);
        else
          sparse::spmv_cbuffered(*s.cbuf_bwd, y, x);
      } else if (planned) {
        sparse::spmv_buffered_planned(*s.buf_bwd, s.plan_bwd, ws_bwd_, y, x);
      } else {
        sparse::spmv_buffered(*s.buf_bwd, y, x);
      }
      break;
  }
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
  if (s.schedule == ScheduleKind::StaticPlan) {
    // Same slot structure as the single-RHS workspaces, with buffers k
    // (ELL) or block_lanes(k) (Buffered) times wider.
    switch (s.kind) {
      case KernelKind::Baseline:
      case KernelKind::Library:
        break;
      case KernelKind::EllBlock:
        ws.ws_fwd_ = sparse::Workspace(s.plan_fwd.num_slots(), 0,
                                       s.ell_fwd->block_rows * k);
        ws.ws_bwd_ = sparse::Workspace(s.plan_bwd.num_slots(), 0,
                                       s.ell_bwd->block_rows * k);
        break;
      case KernelKind::Buffered: {
        const idx_t lanes = sparse::block_lanes(k);
        const auto& cfg_fwd =
            s.cbuf_fwd ? s.cbuf_fwd->config : s.buf_fwd->config;
        const auto& cfg_bwd =
            s.cbuf_bwd ? s.cbuf_bwd->config : s.buf_bwd->config;
        ws.ws_fwd_ = sparse::Workspace(s.plan_fwd.num_slots(),
                                       cfg_fwd.buffsize * lanes,
                                       cfg_fwd.partsize * lanes);
        ws.ws_bwd_ = sparse::Workspace(s.plan_bwd.num_slots(),
                                       cfg_bwd.buffsize * lanes,
                                       cfg_bwd.partsize * lanes);
        break;
      }
    }
  }
  return ws;
}

void MemXCTOperator::apply_block(std::span<const real> x, std::span<real> y,
                                 BlockWorkspace& ws) const {
  const Storage& s = *store_;
  const idx_t k = ws.k_;
  MEMXCT_CHECK_MSG(k >= 1, "block workspace is default-constructed");
  const auto n = static_cast<std::size_t>(s.num_cols);
  const auto m = static_cast<std::size_t>(s.num_rows);
  MEMXCT_CHECK(x.size() >= n * static_cast<std::size_t>(k));
  MEMXCT_CHECK(y.size() >= m * static_cast<std::size_t>(k));
  common::interleave(x, n, k, ws.x_interleaved_);
  const std::span<const real> xi = ws.x_interleaved_;
  const std::span<real> yi = ws.y_interleaved_;
  const bool planned = s.schedule == ScheduleKind::StaticPlan;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_fwd) {
        if (planned)
          sparse::spmm_ccsr_planned(*s.ccsr_fwd, s.plan_fwd, k, xi, yi);
        else
          sparse::spmm_ccsr(*s.ccsr_fwd, k, xi, yi);
      } else if (planned) {
        sparse::spmm_csr_planned(*s.csr_fwd, sparse::kCsrPartsize, s.plan_fwd,
                                 k, xi, yi);
      } else {
        sparse::spmm_csr(*s.csr_fwd, k, xi, yi);
      }
      break;
    case KernelKind::Library:
      sparse::spmm_library(*s.csr_fwd, k, xi, yi);
      break;
    case KernelKind::EllBlock:
      if (planned)
        sparse::spmm_ell_planned(*s.ell_fwd, s.plan_fwd, ws.ws_fwd_, k, xi,
                                 yi);
      else
        sparse::spmm_ell(*s.ell_fwd, k, xi, yi);
      break;
    case KernelKind::Buffered:
      if (s.cbuf_fwd) {
        if (planned)
          sparse::spmm_cbuffered_planned(*s.cbuf_fwd, s.plan_fwd, ws.ws_fwd_,
                                         k, xi, yi);
        else
          sparse::spmm_cbuffered(*s.cbuf_fwd, k, xi, yi);
      } else if (planned) {
        sparse::spmm_buffered_planned(*s.buf_fwd, s.plan_fwd, ws.ws_fwd_, k,
                                      xi, yi);
      } else {
        sparse::spmm_buffered(*s.buf_fwd, k, xi, yi);
      }
      break;
  }
  common::deinterleave(yi, m, k, y);
}

void MemXCTOperator::apply_transpose_block(std::span<const real> y,
                                           std::span<real> x,
                                           BlockWorkspace& ws) const {
  const Storage& s = *store_;
  const idx_t k = ws.k_;
  MEMXCT_CHECK_MSG(k >= 1, "block workspace is default-constructed");
  const auto n = static_cast<std::size_t>(s.num_cols);
  const auto m = static_cast<std::size_t>(s.num_rows);
  MEMXCT_CHECK(y.size() >= m * static_cast<std::size_t>(k));
  MEMXCT_CHECK(x.size() >= n * static_cast<std::size_t>(k));
  common::interleave(y, m, k, ws.y_interleaved_);
  const std::span<const real> yi = ws.y_interleaved_;
  const std::span<real> xi = ws.x_interleaved_;
  const bool planned = s.schedule == ScheduleKind::StaticPlan;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_bwd) {
        if (planned)
          sparse::spmm_ccsr_planned(*s.ccsr_bwd, s.plan_bwd, k, yi, xi);
        else
          sparse::spmm_ccsr(*s.ccsr_bwd, k, yi, xi);
      } else if (planned) {
        sparse::spmm_csr_planned(*s.csr_bwd, sparse::kCsrPartsize, s.plan_bwd,
                                 k, yi, xi);
      } else {
        sparse::spmm_csr(*s.csr_bwd, k, yi, xi);
      }
      break;
    case KernelKind::Library:
      sparse::spmm_library(*s.csr_bwd, k, yi, xi);
      break;
    case KernelKind::EllBlock:
      if (planned)
        sparse::spmm_ell_planned(*s.ell_bwd, s.plan_bwd, ws.ws_bwd_, k, yi,
                                 xi);
      else
        sparse::spmm_ell(*s.ell_bwd, k, yi, xi);
      break;
    case KernelKind::Buffered:
      if (s.cbuf_bwd) {
        if (planned)
          sparse::spmm_cbuffered_planned(*s.cbuf_bwd, s.plan_bwd, ws.ws_bwd_,
                                         k, yi, xi);
        else
          sparse::spmm_cbuffered(*s.cbuf_bwd, k, yi, xi);
      } else if (planned) {
        sparse::spmm_buffered_planned(*s.buf_bwd, s.plan_bwd, ws.ws_bwd_, k,
                                      yi, xi);
      } else {
        sparse::spmm_buffered(*s.buf_bwd, k, yi, xi);
      }
      break;
  }
  common::deinterleave(xi, n, k, x);
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
  const Storage& s = *store_;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_fwd) return sparse::ccsr_work(*s.ccsr_fwd);
      [[fallthrough]];
    case KernelKind::Library:
      return sparse::csr_work(*s.csr_fwd);
    case KernelKind::EllBlock:
      return sparse::ell_work(*s.ell_fwd);
    case KernelKind::Buffered:
      if (s.cbuf_fwd) return sparse::cbuffered_work(*s.cbuf_fwd);
      return sparse::buffered_work(*s.buf_fwd);
  }
  return {};
}

perf::KernelWork MemXCTOperator::transpose_work() const {
  const Storage& s = *store_;
  switch (s.kind) {
    case KernelKind::Baseline:
      if (s.ccsr_bwd) return sparse::ccsr_work(*s.ccsr_bwd);
      [[fallthrough]];
    case KernelKind::Library:
      return sparse::csr_work(*s.csr_bwd);
    case KernelKind::EllBlock:
      return sparse::ell_work(*s.ell_bwd);
    case KernelKind::Buffered:
      if (s.cbuf_bwd) return sparse::cbuffered_work(*s.cbuf_bwd);
      return sparse::buffered_work(*s.buf_bwd);
  }
  return {};
}

}  // namespace memxct::core
