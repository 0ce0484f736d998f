// Bounded multi-lane blocking queue — the submission primitive shared by
// the batch engine and the reconstruction service.
//
// A single template covers both consumers' needs:
//   * batch::BatchReconstructor uses one lane of whole waves with blocking
//     push(): backpressure toward the producer instead of unbounded memory
//     growth;
//   * serve::Server uses one lane per priority class with try_push():
//     overload is rejected at admission (typed error at the caller) rather
//     than absorbed, and pop() drains lanes in priority order.
//
// The capacity bounds the TOTAL item count across lanes, so a flood of
// low-priority work still cannot grow memory without limit; priority only
// decides which lane drains first, never how much is held.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace memxct::common {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` bounds the total queued items across all lanes; `lanes`
  /// is the number of priority classes (lane 0 drains first).
  explicit BoundedQueue(int capacity, int lanes = 1)
      : capacity_(capacity), lanes_(static_cast<std::size_t>(lanes)) {
    MEMXCT_CHECK_MSG(capacity >= 1, "queue capacity must be >= 1");
    MEMXCT_CHECK_MSG(lanes >= 1, "queue must have at least one lane");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking push: waits while the queue is full (backpressure). Returns
  /// false only when the queue was closed (item is dropped).
  bool push(T item, int lane = 0) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_nonfull_.wait(lk, [this] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    enqueue_locked(std::move(item), lane);
    lk.unlock();
    cv_nonempty_.notify_one();
    return true;
  }

  /// Non-blocking push: returns false when the queue is full or closed —
  /// the caller decides whether that is an overload rejection.
  bool try_push(T item, int lane = 0) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_ || size_ >= capacity_) return false;
      enqueue_locked(std::move(item), lane);
    }
    cv_nonempty_.notify_one();
    return true;
  }

  /// Blocking pop in lane-priority order (lane 0 first). Returns nullopt
  /// once the queue is closed AND fully drained, so consumers finish all
  /// admitted work before exiting.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_nonempty_.wait(lk, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return std::nullopt;  // closed and drained
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      T item = std::move(lane.front());
      lane.pop_front();
      --size_;
      lk.unlock();
      cv_nonfull_.notify_one();
      return item;
    }
    return std::nullopt;  // unreachable: size_ > 0 implies a non-empty lane
  }

  /// Closes the queue: pushes fail from now on, pops drain what remains.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_nonempty_.notify_all();
    cv_nonfull_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }
  [[nodiscard]] int size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return size_;
  }
  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int num_lanes() const noexcept {
    return static_cast<int>(lanes_.size());
  }
  /// Deepest the queue got (total across lanes) since construction or the
  /// last reset_high_water().
  [[nodiscard]] int high_water() const {
    std::lock_guard<std::mutex> lk(mu_);
    return high_water_;
  }
  void reset_high_water() {
    std::lock_guard<std::mutex> lk(mu_);
    high_water_ = size_;
  }

 private:
  void enqueue_locked(T item, int lane) {
    MEMXCT_CHECK_MSG(lane >= 0 && lane < static_cast<int>(lanes_.size()),
                     "queue lane out of range");
    lanes_[static_cast<std::size_t>(lane)].push_back(std::move(item));
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
  }

  const int capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_nonempty_;  ///< Consumers wait for items.
  std::condition_variable cv_nonfull_;   ///< Blocking push waits for room.
  std::vector<std::deque<T>> lanes_;
  int size_ = 0;  ///< Total items across lanes (the bounded quantity).
  int high_water_ = 0;
  bool closed_ = false;
};

}  // namespace memxct::common
