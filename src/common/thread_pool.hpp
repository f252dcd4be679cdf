// Minimal work-stealing-free thread pool with parallel_for and claim_for.
//
// Used to fan out simulator evaluations, dataset scoring and batched
// linear algebra. parallel_for's work reaches the pool through a TaskGroup:
// each group counts its own tasks, and its wait() blocks on those tasks alone
// and rethrows only their first exception. claim_for's helpers share one
// claim counter with the caller instead, and the caller waits only on the
// indices they claimed. Either way, concurrent callers sharing one pool
// never wait on each other's work (DESIGN.md §5).
//
// Lock discipline (compiler-checked under Clang, DESIGN.md §10): the task
// queue is guarded by the pool's `mutex_`, each group's completion state by
// its own mutex; both condition variables wait through sc::CondVar. Worker
// threads and callers only touch guarded fields inside sc::MutexLock scopes.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
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

  /// A set of tasks run on one pool and awaited together. The completion
  /// state is shared with every queued task, so it outlives the group object
  /// until the last task has released it. wait() must not be called from a
  /// worker of the same pool (it could wait on a task queued behind itself).
  class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool& pool);
    /// Waits for outstanding tasks (their exception, if any, is dropped).
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueue fn on a pool worker. Returns immediately.
    template <typename Fn>
    void run(Fn&& fn) {
      state_->add();
      pool_.enqueue([state = state_, fn = std::forward<Fn>(fn)]() mutable {
        std::exception_ptr err;
        try {
          fn();
        } catch (...) {
          err = std::current_exception();
        }
        state->complete(std::move(err));
      });
    }

    /// Block until every task run() on this group has finished. Rethrows the
    /// group's first captured task exception, if any (once; the group is
    /// reusable afterwards).
    void wait();

  private:
    // Completion state shared by the group and its queued tasks: the last
    // task to finish may still hold it after wait() returned.
    class State {
    public:
      void add() SC_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        ++pending_;
      }

      void complete(std::exception_ptr err) SC_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        if (err && !error_) error_ = std::move(err);
        if (--pending_ == 0) cv_idle_.notify_all();
      }

      /// Blocks until no task is pending; returns (and clears) the first error.
      std::exception_ptr wait() SC_EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        cv_idle_.wait(mutex_, [this]() SC_REQUIRES(mutex_) { return pending_ == 0; });
        return std::exchange(error_, nullptr);
      }

    private:
      Mutex mutex_;
      CondVar cv_idle_;
      std::size_t pending_ SC_GUARDED_BY(mutex_) = 0;
      std::exception_ptr error_ SC_GUARDED_BY(mutex_);
    };

    ThreadPool& pool_;
    std::shared_ptr<State> state_;
  };

  /// Marks the calling thread as a pool worker for the scope's lifetime, so
  /// every fan-out site (which all check in_worker()) runs inline on it. For
  /// threads that already get their parallelism from elsewhere, such as the
  /// serving tier's request workers. Scopes nest; exit restores the flag.
  class InlineScope {
  public:
    InlineScope();
    ~InlineScope();

    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

  private:
    bool prev_;
  };

  /// Run fn(i) for i in [0, n) across the pool, blocking until done; only
  /// this call's chunks are awaited. Falls back to serial execution for tiny
  /// n, and when called from a pool worker thread or an InlineScope (a nested
  /// wait on the owning pool could deadlock).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      SC_EXCLUDES(mutex_);

  /// Run fn(i) for i in [0, n) with the caller working too, blocking until
  /// done. The caller and at most min(n - 1, size()) helper tasks claim
  /// indices from one shared counter until none is left; the caller then
  /// waits (a bounded spin, then std::atomic::wait) only for indices a helper
  /// has already claimed, never for a helper that has not started. The claim
  /// state is shared-owned, so a helper that starts after the call returned
  /// finds nothing to claim and exits without touching fn. Rethrows the first
  /// exception of fn on the caller, once; no index starts after it was
  /// caught. Runs inline for n <= 1, on a 1-worker pool, and when called from
  /// a pool worker or an InlineScope. Meant for short fan-outs whose caller
  /// has nothing else to do (the nn row panels, DESIGN.md §5.5); coarse loops
  /// keep parallel_for's schedule.
  void claim_for(std::size_t n, const std::function<void(std::size_t)>& fn)
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
