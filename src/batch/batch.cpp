#include "batch/batch.hpp"

#include <omp.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "solve/block.hpp"
#include "sparse/spmm.hpp"

namespace memxct::batch {

const char* to_string(SliceStatus status) noexcept {
  switch (status) {
    case SliceStatus::Ok:
      return "ok";
    case SliceStatus::IngestRejected:
      return "ingest-rejected";
    case SliceStatus::Diverged:
      return "diverged";
    case SliceStatus::Failed:
      return "failed";
  }
  return "?";
}

std::string BatchReport::summary() const {
  std::ostringstream os;
  os << slices << " slices on " << workers << " workers in " << wall_seconds
     << " s (" << slices_per_second << " slices/s, queue high-water "
     << queue_high_water << ")";
  if (block_width > 1)
    os << "; block width " << block_width << ", " << waves
       << " waves (avg width " << avg_wave_width << "), "
       << matrix_bytes_per_slice * 1e-6
       << " MB matrix traffic/slice/iteration";
  if (ingest_rejected + diverged + failed > 0)
    os << "; " << ingest_rejected << " ingest-rejected, " << diverged
       << " diverged, " << failed << " failed";
  return os.str();
}

SliceResult run_isolated_slice(const solve::LinearOperator& op,
                               const geometry::Geometry& geometry,
                               const core::Config& config,
                               const hilbert::Ordering& sino_order,
                               const hilbert::Ordering& tomo_order,
                               std::span<const real> sinogram,
                               core::SliceWorkspace* workspace,
                               const solve::CancelToken* cancel,
                               bool keep_image, solve::ProgressSink* progress,
                               const core::SolveExtras* extras) {
  SliceResult res;
  perf::WallTimer timer;
  try {
    core::ReconstructionResult r = core::reconstruct_slice(
        op, geometry, config, sino_order, tomo_order, sinogram, workspace,
        cancel, progress, extras);
    res.status = r.solve.diverged ? SliceStatus::Diverged : SliceStatus::Ok;
    res.solve = std::move(r.solve);
    res.ingest = std::move(r.ingest);
    if (keep_image) res.image = std::move(r.image);
  } catch (const InvalidArgument& e) {
    // The ingest gate throws InvalidArgument under IngestPolicy::Reject;
    // the slice is reported rejected, the caller's pipeline continues.
    res.status = SliceStatus::IngestRejected;
    res.error = e.what();
  } catch (const std::exception& e) {
    res.status = SliceStatus::Failed;
    res.error = e.what();
  }
  res.seconds = timer.seconds();
  return res;
}

namespace {

/// BatchOptions::queue_capacity counts slices; the queue holds whole waves.
int queue_waves(const BatchOptions& options) {
  const int slices = options.queue_capacity > 0
                         ? options.queue_capacity
                         : 2 * std::max(1, options.workers);
  const int width = std::max(1, options.block_width);  // validated below
  return slices / width + (slices % width != 0 ? 1 : 0);
}

}  // namespace

BatchReconstructor::BatchReconstructor(const core::Reconstructor& recon,
                                       BatchOptions options)
    : recon_(recon),
      config_(recon.config()),
      options_(options),
      queue_(queue_waves(options)) {
  if (options_.workers < 1)
    throw InvalidArgument("batch: workers must be >= 1");
  const core::MemXCTOperator* serial = recon_.serial_op();
  const shard::ShardedOperator* sharded = recon_.shard_op();
  if (options_.block_width < 1 ||
      options_.block_width > sparse::kMaxBlockWidth)
    throw InvalidArgument("batch: block_width must be in [1, " +
                          std::to_string(sparse::kMaxBlockWidth) + "]");
  if (options_.block_width > 1 &&
      config_.solver != core::SolverKind::CGLS)
    throw InvalidArgument(
        "batch: block_width > 1 requires the CGLS solver (the lockstep "
        "block path only implements the CGLS recursion)");
  // One shared checkpoint file written by K concurrent slices would corrupt
  // and make results submission-order dependent; per-slice in-memory
  // rollback (divergence recovery) is unaffected.
  config_.checkpoint_path.clear();
  config_.block_width = options_.block_width;  // keep the opkey honest
  threads_per_worker_ =
      options_.omp_threads_per_worker > 0
          ? options_.omp_threads_per_worker
          : std::max(1, omp_get_max_threads() / options_.workers);

  ops_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    ops_.push_back(serial != nullptr
                       ? std::unique_ptr<solve::LinearOperator>(
                             serial->make_view())
                       : std::unique_ptr<solve::LinearOperator>(
                             sharded->make_view()));

  threads_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
}

BatchReconstructor::~BatchReconstructor() {
  flush_wave();    // a round left without wait_all() still runs
  queue_.close();  // queued waves drain, then workers exit
  for (auto& t : threads_) t.join();
}

int BatchReconstructor::submit(std::span<const real> sinogram) {
  if (static_cast<std::int64_t>(sinogram.size()) !=
      recon_.geometry().sinogram_extent().size())
    throw InvalidArgument("batch: sinogram size " +
                          std::to_string(sinogram.size()) +
                          " does not match the geometry");
  Job job;
  job.data.assign(sinogram.begin(), sinogram.end());
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (submitted_ == 0) round_timer_.reset();
    job.slice = submitted_++;
  }
  const int ticket = job.slice;
  // Tickets stay in wave order because submit() is single-producer (class
  // contract).
  forming_.push_back(std::move(job));
  if (static_cast<int>(forming_.size()) == options_.block_width) flush_wave();
  return ticket;
}

void BatchReconstructor::flush_wave() {
  if (forming_.empty()) return;
  // Backpressure: push blocks while the bounded queue is full.
  queue_.push(std::move(forming_));
  forming_.clear();  // moved-from: valid, now reused for the next wave
}

std::vector<SliceResult> BatchReconstructor::wait_all() {
  flush_wave();
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return completed_ == submitted_; });

  BatchReport rep;
  rep.slices = submitted_;
  rep.workers = workers();
  rep.wall_seconds = submitted_ > 0 ? round_timer_.seconds() : 0.0;
  rep.slices_per_second =
      rep.wall_seconds > 0.0 ? rep.slices / rep.wall_seconds : 0.0;
  rep.queue_high_water = queue_.high_water() * options_.block_width;
  rep.preprocess_seconds = recon_.preprocess_report().total_seconds;
  rep.block_width = options_.block_width;
  rep.waves = waves_;
  rep.avg_wave_width =
      waves_ > 0 ? static_cast<double>(submitted_) / waves_ : 0.0;
  if (recon_.serial_op() != nullptr) {
    const perf::KernelWork fwd = recon_.serial_op()->forward_work();
    const perf::KernelWork bwd = recon_.serial_op()->transpose_work();
    rep.matrix_bytes_per_slice =
        fwd.regular_bytes_at_width(options_.block_width) +
        bwd.regular_bytes_at_width(options_.block_width);
  }
  for (const SliceResult& r : results_) {
    switch (r.status) {
      case SliceStatus::Ok:
        ++rep.ok;
        break;
      case SliceStatus::IngestRejected:
        ++rep.ingest_rejected;
        break;
      case SliceStatus::Diverged:
        ++rep.diverged;
        break;
      case SliceStatus::Failed:
        ++rep.failed;
        break;
    }
    rep.slice_seconds_sum += r.seconds;
    rep.solve_seconds_sum += r.solve.seconds;
  }
  report_ = rep;

  std::vector<SliceResult> out = std::move(results_);
  results_.clear();
  submitted_ = 0;
  completed_ = 0;
  waves_ = 0;
  queue_.reset_high_water();
  lk.unlock();

  std::sort(out.begin(), out.end(),
            [](const SliceResult& a, const SliceResult& b) {
              return a.slice < b.slice;
            });
  return out;
}

void BatchReconstructor::worker_main(int worker_id) {
  // The num-threads ICV is per-thread in OpenMP: this pins the size of every
  // parallel region the solvers open from this worker, keeping K workers at
  // the same total subscription as one full-width solve.
  omp_set_num_threads(threads_per_worker_);
  const solve::LinearOperator& op = *ops_[static_cast<std::size_t>(worker_id)];
  core::SliceWorkspace slice_ws;  // persistent: no steady-state allocation
  AlignedVector<real> y_slab;     // sized by the first multi-slice wave

  // submit() formed the waves: block_width slices each, the round's last
  // one possibly shorter. A lone slice takes the single-slice path, which
  // is also what runs the non-CGLS solvers at width 1.
  while (auto jobs = queue_.pop()) {
    perf::WallTimer wave_timer;
    std::vector<SliceResult> wave;
    if (jobs->size() == 1) {
      wave.push_back(run_isolated_slice(
          op, recon_.geometry(), config_, recon_.sinogram_ordering(),
          recon_.tomogram_ordering(), jobs->front().data, &slice_ws,
          /*cancel=*/nullptr, options_.keep_images));
      wave.front().slice = jobs->front().slice;
    } else {
      wave = solve_wave(op, *jobs, slice_ws, y_slab);
    }
    const double share =
        wave_timer.seconds() / static_cast<double>(wave.size());
    for (SliceResult& res : wave) res.seconds = share;

    {
      std::lock_guard<std::mutex> lk(mu_);
      ++waves_;
      for (SliceResult& res : wave) results_.push_back(std::move(res));
      completed_ += static_cast<int>(wave.size());
    }
    cv_done_.notify_all();
  }
}

std::vector<SliceResult> BatchReconstructor::solve_wave(
    const solve::LinearOperator& op, const Wave& jobs, core::SliceWorkspace& ws,
    AlignedVector<real>& y_slab) const {
  const auto m =
      static_cast<std::size_t>(recon_.geometry().sinogram_extent().size());
  const auto n =
      static_cast<std::size_t>(recon_.geometry().tomogram_extent().size());
  y_slab.resize(m * static_cast<std::size_t>(options_.block_width));

  // Per-slice ingest with per-slice fault isolation, mirroring
  // run_isolated_slice's classification: a bad slice becomes a status on
  // that slice; the survivors still solve together.
  std::vector<SliceResult> wave(jobs.size());
  std::vector<std::size_t> lanes;  // job indices that reached the solver
  lanes.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    wave[j].slice = jobs[j].slice;
    try {
      wave[j].ingest = core::ingest_and_order(
          recon_.geometry(), config_, recon_.sinogram_ordering(),
          jobs[j].data, ws);
      std::copy(ws.ordered.begin(), ws.ordered.end(),
                y_slab.begin() + static_cast<std::ptrdiff_t>(lanes.size() * m));
      lanes.push_back(j);
    } catch (const InvalidArgument& e) {
      wave[j].status = SliceStatus::IngestRejected;
      wave[j].error = e.what();
    } catch (const std::exception& e) {
      wave[j].status = SliceStatus::Failed;
      wave[j].error = e.what();
    }
  }
  if (lanes.empty()) return wave;

  try {
    solve::BlockSolveResult solved = solve::cgls_block(
        op, std::span<const real>(y_slab).first(lanes.size() * m),
        static_cast<idx_t>(lanes.size()), core::cgls_options(config_));
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      SliceResult& res = wave[lanes[l]];
      if (options_.keep_images) {
        res.image.resize(n);
        core::depermute_image(recon_.tomogram_ordering(), solved.slices[l].x,
                              res.image);
      }
      res.solve = std::move(solved.slices[l]);
      // The lanes solved together; report each slice's amortized share so
      // batch-level time sums stay meaningful.
      res.solve.seconds = solved.seconds / static_cast<double>(lanes.size());
      res.status =
          res.solve.diverged ? SliceStatus::Diverged : SliceStatus::Ok;
    }
  } catch (const std::exception& e) {
    for (const std::size_t l : lanes) {
      wave[l].status = SliceStatus::Failed;
      wave[l].error = e.what();
    }
  }
  return wave;
}

}  // namespace memxct::batch
