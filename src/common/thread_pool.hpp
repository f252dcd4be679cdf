// Minimal work-stealing-free thread pool with one fan-out primitive,
// parallel_for.
//
// Used to fan out simulator evaluations, dataset scoring, the Huge tier's
// ingest and shard loops, recursive bisection and the nn row panels. Each
// call's helpers share one claim counter with the caller, and the caller
// works too and waits only on indices a helper has claimed. So concurrent
// callers sharing one pool never wait on each other's work, and a call from
// a thread whose pool workers are all busy still finishes (DESIGN.md §5).
//
// Lock discipline (compiler-checked under Clang, DESIGN.md §10): the task
// queue is guarded by the pool's `mutex_`, and its condition variable waits
// through sc::CondVar. Worker threads and callers only touch guarded fields
// inside sc::MutexLock scopes; a call's claim state is atomics only.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace sc {

class ThreadPool {
public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Marks the calling thread as a pool worker for the scope's lifetime, so
  /// parallel_for (and the nn row-panel split, which checks in_worker()
  /// before touching the global pool) runs inline on it. For threads that
  /// already get their parallelism from elsewhere, such as the serving
  /// tier's request workers. Scopes nest; exit restores the flag.
  class InlineScope {
  public:
    InlineScope();
    ~InlineScope();

    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

  private:
    bool prev_;
  };

  /// Run fn(i) for i in [0, n), blocking until every index has finished.
  /// The caller takes index 0 before it queues any helper, so index 0 always
  /// runs on the calling thread; then the caller and at most
  /// min(n - 1, size()) helper tasks claim single indices from one shared
  /// counter until none is left. The caller runs its indices inside an
  /// InlineScope, as workers do, so a loop body never fans out. The caller then waits (a bounded spin, then std::atomic::wait) only
  /// for indices a helper has already claimed, never for a helper that has
  /// not started, so a call finishes even when every worker is busy. The
  /// claim state is shared-owned: a helper that starts after the call
  /// returned finds nothing to claim and exits without touching fn. Rethrows
  /// the first exception of fn on the caller, once; no index starts after it
  /// was caught. Runs as a plain loop on the calling thread for n <= 1, on a
  /// 1-worker pool, and when called from a pool worker or an InlineScope.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      SC_EXCLUDES(mutex_);

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Sizes the global pool before its first use (0 = hardware_concurrency).
  /// Returns false (and changes nothing) once global() has been constructed.
  static bool configure_global(std::size_t threads);

  /// True when the calling thread is a worker of any ThreadPool or is inside
  /// an InlineScope.
  static bool in_worker();

private:
  void enqueue(std::function<void()> task) SC_EXCLUDES(mutex_);
  void worker_loop() SC_EXCLUDES(mutex_);

  /// Immutable after construction (the vector is filled in the constructor
  /// before any thread can observe the pool) — deliberately unguarded.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar cv_task_;
  std::deque<std::function<void()>> queue_ SC_GUARDED_BY(mutex_);
  bool stop_ SC_GUARDED_BY(mutex_) = false;
};

}  // namespace sc
