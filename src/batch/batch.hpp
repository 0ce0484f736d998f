// Batched multi-slice reconstruction engine (the Table 5 amortization
// argument, exercised end-to-end).
//
// MemXCT pays preprocessing — ordering, ray tracing, transposition, buffer
// and plan construction — once per geometry; a 3D scan is then a stack of
// independent 2D slices pumped through that one memoized operator. The
// BatchReconstructor is the throughput-oriented entry point for that shape:
//
//   core::Reconstructor recon(geometry, config);     // preprocess once
//   batch::BatchReconstructor engine(recon, {.workers = 4});
//   for (auto& sino : slices) engine.submit(sino);   // bounded, blocking
//   auto results = engine.wait_all();                // per-slice status
//   engine.report();                                 // slices/sec, queue HWM
//
// Design:
//   * One immutable preprocessed operator is shared by all workers; each
//     worker holds a MemXCTOperator view (shared matrices + plans, private
//     apply workspaces) and a persistent SliceWorkspace, so the per-slice
//     hot path performs no matrix duplication and no steady-state
//     slice-sized allocation.
//   * Submission goes through a bounded queue of waves: submit() groups
//     slices into waves of block_width in submission order and blocks while
//     the queue is full (backpressure toward the producer instead of
//     unbounded memory growth); the high-water mark is reported.
//   * Faults are isolated per slice: one slice's ingest rejection, solver
//     divergence, or unexpected error yields a SliceStatus on that slice's
//     result and never poisons the batch or kills a worker.
//   * Determinism: each slice is solved by the same reconstruct_slice code
//     path as Reconstructor::reconstruct, on operators whose static plans
//     are thread-count-independent — results are bitwise identical to the
//     single-slice path and independent of the worker count K.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "core/reconstructor.hpp"
#include "perf/timer.hpp"

namespace memxct::batch {

struct BatchOptions {
  /// Fixed worker pool size (threads solving slices concurrently).
  int workers = 1;
  /// Bounded submission-queue capacity in slices, rounded up to whole waves
  /// of block_width; submit() blocks while the queue is full. 0 = twice the
  /// worker count.
  int queue_capacity = 0;
  /// OpenMP threads each worker uses inside apply/vector-op parallel
  /// regions; 0 = omp_get_max_threads() / workers, at least 1 (keeps total
  /// CPU subscription at the single-slice level). Any value yields bitwise
  /// identical slice results — the static plans guarantee it.
  int omp_threads_per_worker = 0;
  /// false drops the reconstructed pixels after each solve; stats and
  /// per-slice status are still produced (throughput / QA-only runs that
  /// must not hold S full images in memory).
  bool keep_images = true;
  /// Multi-RHS lockstep width: submit() groups slices into waves of this
  /// many in submission order (slices 0..K-1, K..2K-1, ...), and wait_all()
  /// queues the last, shorter wave. A worker solves a wave with one block
  /// CGLS run — the memoized matrix streams once per iteration for the
  /// whole wave (sparse/spmm.hpp). 1 = classic one-slice-at-a-time
  /// workers. Values > 1 require the CGLS solver and at most
  /// sparse::kMaxBlockWidth. Per-slice results stay bitwise identical to
  /// width 1 (the block solver's parity contract); only throughput changes.
  int block_width = 1;
};

/// Terminal status of one submitted slice.
enum class SliceStatus {
  Ok,              ///< Solve completed.
  IngestRejected,  ///< Rejected by the configured ingest policy.
  Diverged,        ///< Solver diverged; image is the rolled-back iterate.
  Failed,          ///< Unexpected error (message in SliceResult::error).
};

[[nodiscard]] const char* to_string(SliceStatus status) noexcept;

struct SliceResult {
  int slice = -1;  ///< Submission ticket (0-based, in submit order).
  SliceStatus status = SliceStatus::Ok;
  std::string error;        ///< Diagnostic for IngestRejected / Failed.
  std::vector<real> image;  ///< Natural row-major layout; empty on failure
                            ///< or when BatchOptions::keep_images is false.
  solve::SolveResult solve;
  resil::IngestReport ingest;
  double seconds = 0.0;  ///< Worker wall time for this slice.
};

/// Runs one slice through core::reconstruct_slice with per-slice fault
/// isolation: ingest rejection, solver divergence, and unexpected errors
/// become a SliceStatus on the returned result instead of propagating.
/// This is the worker-side primitive shared by the batch engine and the
/// serve layer — both get identical classification and (because the slice
/// path itself is shared) bitwise-identical images. `cancel` is forwarded
/// to the solver; a cancelled solve reports via result.solve.cancelled with
/// status Ok (the caller decides what cancellation means). When
/// `keep_image` is false the pixels are dropped after the solve.
/// `progress` (optional) receives the solver's per-iteration heartbeat so
/// the serve layer's watchdog can detect stuck workers. `extras` (optional)
/// forwards core::SolveExtras (the serve layer's warm starts and masks).
[[nodiscard]] SliceResult run_isolated_slice(
    const solve::LinearOperator& op, const geometry::Geometry& geometry,
    const core::Config& config, const hilbert::Ordering& sino_order,
    const hilbert::Ordering& tomo_order, std::span<const real> sinogram,
    core::SliceWorkspace* workspace = nullptr,
    const solve::CancelToken* cancel = nullptr, bool keep_image = true,
    solve::ProgressSink* progress = nullptr,
    const core::SolveExtras* extras = nullptr);

/// Batch-level statistics of one submit…wait_all round.
struct BatchReport {
  int slices = 0;
  int ok = 0;
  int ingest_rejected = 0;
  int diverged = 0;
  int failed = 0;
  int workers = 0;
  double wall_seconds = 0.0;        ///< First submit → last completion.
  double slices_per_second = 0.0;   ///< slices / wall_seconds.
  double slice_seconds_sum = 0.0;   ///< Σ per-slice worker wall time.
  double solve_seconds_sum = 0.0;   ///< Σ per-slice solver time.
  int queue_high_water = 0;         ///< Deepest queue, in whole-wave slices.
  double preprocess_seconds = 0.0;  ///< Paid once, amortized over slices.
  int block_width = 1;              ///< Configured lockstep width.
  int waves = 0;  ///< Waves executed (one per slice at width 1).
  /// Mean slices per wave: block_width, less only by the round's last wave
  /// when the slice count is not a multiple of block_width.
  double avg_wave_width = 0.0;
  /// Amortized regular matrix traffic per slice per solver iteration (one
  /// forward + one transpose apply) at the configured width, in bytes —
  /// the Table 5-style amortization the block path buys.
  double matrix_bytes_per_slice = 0.0;

  /// Batch wall time per slice (excludes the amortized preprocessing).
  [[nodiscard]] double per_slice_wall() const noexcept {
    return slices > 0 ? wall_seconds / slices : 0.0;
  }
  /// End-to-end time per slice when this batch had to pay preprocessing —
  /// the Table 5 amortization metric (falls toward per_slice_wall() as the
  /// slice count grows).
  [[nodiscard]] double per_slice_wall_with_preprocess() const noexcept {
    return slices > 0 ? (preprocess_seconds + wall_seconds) / slices : 0.0;
  }
  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;
};

/// Fixed worker pool driving slices through one preprocessed operator.
///
/// The wrapped Reconstructor must outlive the engine. Its operator, serial
/// (num_shards == 1) or sharded, exposes per-worker views sharing the
/// immutable preprocessed storage. On-disk solver checkpointing is disabled
/// inside the batch (a shared checkpoint file across concurrent slices would
/// corrupt; in-memory divergence rollback still applies per slice).
///
/// Thread safety: submit() and wait_all() are producer-side calls and may
/// be used from one thread at a time; workers run internally. The engine is
/// reusable — after wait_all() returns, a new round of submissions starts a
/// fresh report.
class BatchReconstructor {
 public:
  explicit BatchReconstructor(const core::Reconstructor& recon,
                              BatchOptions options = {});
  ~BatchReconstructor();

  BatchReconstructor(const BatchReconstructor&) = delete;
  BatchReconstructor& operator=(const BatchReconstructor&) = delete;

  /// Adds one natural-layout sinogram (copied) to the forming wave and
  /// returns its slice ticket. A full wave is queued, blocking while the
  /// bounded queue is full (backpressure). Throws InvalidArgument on a
  /// wrong-size sinogram — a caller bug, not a slice fault, so it is
  /// rejected before entering the pipeline.
  int submit(std::span<const real> sinogram);

  /// Queues the forming (short) wave, blocks until every submitted slice
  /// has completed, then returns the results sorted by slice ticket and
  /// finalizes report(). Resets the engine for a next round of submissions.
  [[nodiscard]] std::vector<SliceResult> wait_all();

  /// Statistics of the last completed round (valid after wait_all()).
  [[nodiscard]] const BatchReport& report() const noexcept { return report_; }

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }
  /// Queue bound in slices (whole waves of block_width).
  [[nodiscard]] int queue_capacity() const noexcept {
    return queue_.capacity() * options_.block_width;
  }
  [[nodiscard]] int omp_threads_per_worker() const noexcept {
    return threads_per_worker_;
  }

 private:
  struct Job {
    int slice = -1;
    AlignedVector<real> data;
  };

  using Wave = std::vector<Job>;

  /// Queues the forming wave, if any (producer side).
  void flush_wave();
  /// Pops waves until the queue is closed and drained.
  void worker_main(int worker_id);
  /// Ingests and solves a wave of several slices with one block CGLS run.
  std::vector<SliceResult> solve_wave(const solve::LinearOperator& op,
                                      const Wave& jobs,
                                      core::SliceWorkspace& ws,
                                      AlignedVector<real>& y_slab) const;

  const core::Reconstructor& recon_;
  core::Config config_;  ///< Reconstructor config with checkpointing off.
  BatchOptions options_;
  int threads_per_worker_ = 1;
  /// Per-worker operator views (serial MemXCTOperator or ShardedOperator):
  /// shared immutable storage, private apply workspaces and exchange
  /// buffers (the refactor that makes concurrent applies safe).
  std::vector<std::unique_ptr<solve::LinearOperator>> ops_;
  /// The wave submit() is filling; owned by the producer thread.
  Wave forming_;
  /// Bounded queue of whole waves (src/common primitive, shared with
  /// serve): blocking push gives the producer backpressure, close() drains
  /// workers.
  common::BoundedQueue<Wave> queue_;
  std::vector<std::thread> threads_;

  std::mutex mu_;  ///< Guards the round state below (not the queue).
  std::condition_variable cv_done_;  ///< wait_all() waits for drain.
  int submitted_ = 0;
  int completed_ = 0;
  int waves_ = 0;  ///< Waves solved this round.
  perf::WallTimer round_timer_;  ///< Reset at the first submit of a round.
  std::vector<SliceResult> results_;
  BatchReport report_;
};

}  // namespace memxct::batch
