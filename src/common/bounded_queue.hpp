// BoundedQueue: fixed-capacity MPMC queue for the serving admission path.
//
// The ring buffer is allocated once at construction; try_push / pop_batch
// only move elements in and out of pre-existing slots, so steady-state
// admission is allocation-free (enforced by the serve-hot-path lint rule).
// try_push never blocks: a full queue returns false and the caller sheds the
// request fail-loudly instead of growing an unbounded backlog.
//
// pop_batch implements the cross-request batching window: it blocks until at
// least one item is available (or the queue is closed and empty), then keeps
// collecting immediately-available items — waiting up to `window` past the
// first pop for stragglers — until `max_items` are gathered. Closing the
// queue wakes every waiter; items still queued at close time are drained by
// subsequent pop_batch calls (graceful drain), and only then does pop_batch
// return 0.
//
// Lock discipline (compiler-checked under Clang, DESIGN.md §10): every slot
// and cursor is guarded by `mutex_`; the ring vector itself is guarded too
// (its *size* is immutable, but its slots are written under the lock), so
// capacity() reports the separately stored `capacity_`.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace sc::common {

template <typename T>
class BoundedQueue {
public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity), ring_(capacity) {
    SC_CHECK(capacity > 0, "bounded queue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push. Returns false (and leaves `item` unspecified-moved
  /// only on success) when the queue is full or closed. On success, `depth`
  /// (if given) receives the queue's size right after this push, read under
  /// the lock: a size() call afterwards can already see a consumer's pop.
  // sc-lint: serve-hot-path
  bool try_push(T&& item, std::size_t* depth = nullptr) SC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || count_ == capacity_) return false;
      ring_[(head_ + count_) % capacity_] = std::move(item);
      ++count_;
      if (depth != nullptr) *depth = count_;
    }
    cv_.notify_one();
    return true;
  }

  /// Pops between 1 and `max_items` items into `out` (appended; `out` is NOT
  /// cleared — callers reuse a retained buffer). Blocks until the first item
  /// arrives, then collects more until `max_items` are gathered or `window`
  /// has elapsed since the first pop. Returns the number popped; 0 means the
  /// queue is closed and fully drained.
  // sc-lint: serve-hot-path
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items,
                        std::chrono::microseconds window) SC_EXCLUDES(mutex_) {
    if (max_items == 0) return 0;
    std::size_t popped = 0;
    {
      MutexLock lock(mutex_);
      cv_.wait(mutex_, [&]() SC_REQUIRES(mutex_) { return count_ > 0 || closed_; });
      if (count_ == 0) return 0;  // closed and drained

      const auto deadline = std::chrono::steady_clock::now() + window;
      for (;;) {
        while (count_ > 0 && popped < max_items) {
          out.push_back(std::move(ring_[head_]));
          head_ = (head_ + 1) % capacity_;
          --count_;
          ++popped;
        }
        if (popped >= max_items || closed_ || window.count() <= 0) break;
        if (cv_.wait_until(mutex_, deadline,
                           [&]() SC_REQUIRES(mutex_) { return count_ > 0 || closed_; })) {
          if (count_ == 0) break;  // woken by close
          continue;                // more items arrived inside the window
        }
        break;  // window expired
      }
    }
    cv_.notify_all();  // wake other consumers (and close() waiters)
    return popped;
  }

  /// Closes the queue: subsequent try_push calls fail, waiters wake, queued
  /// items remain poppable until drained.
  void close() SC_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const SC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const SC_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return count_;
  }

  std::size_t capacity() const { return capacity_; }

private:
  const std::size_t capacity_;  ///< immutable; readable without the lock
  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<T> ring_ SC_GUARDED_BY(mutex_);
  std::size_t head_ SC_GUARDED_BY(mutex_) = 0;
  std::size_t count_ SC_GUARDED_BY(mutex_) = 0;
  bool closed_ SC_GUARDED_BY(mutex_) = false;
};

}  // namespace sc::common
