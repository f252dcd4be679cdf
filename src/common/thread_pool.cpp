#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace sc {

namespace {
// Desired size of the global pool (0 = hardware_concurrency) and whether the
// pool has been constructed; configure_global only works before construction.
std::atomic<std::size_t> g_global_threads{0};
std::atomic<bool> g_global_built{false};
thread_local bool t_in_worker = false;

/// Polls of claim_for's wait before it sleeps in std::atomic::wait: long
/// enough to cover a helper finishing a short panel, short enough that a
/// waiter whose helper was preempted soon yields its core.
constexpr int kClaimSpins = 1024;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

/// State of one claim_for call, shared by the caller and its helper tasks.
/// `fn` stays valid while `pending` > 0: the caller returns only after every
/// index has finished, and a helper touches fn only for an index it claimed.
struct ClaimState {
  ClaimState(std::size_t count, const std::function<void(std::size_t)>* body)
      : n(count), fn(body), pending(count) {}

  /// Claims and runs indices until none is left. Once an index has thrown,
  /// later claims are counted off without running.
  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      if (!failed.load()) {
        try {
          (*fn)(i);
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
      // Publishes this index's writes (and `error`) to the caller, which
      // reads them once it has seen `pending` reach 0.
      if (pending.fetch_sub(1) == 1) pending.notify_all();
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending;  ///< indices not yet finished or skipped
  std::atomic<bool> failed{false};
  /// Written once, by the thread whose exchange set `failed`.
  std::exception_ptr error;
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(pool), state_(std::make_shared<State>()) {}

ThreadPool::TaskGroup::~TaskGroup() { (void)state_->wait(); }  // unobserved errors drop

void ThreadPool::TaskGroup::wait() {
  if (std::exception_ptr err = state_->wait()) std::rethrow_exception(err);
}

ThreadPool::InlineScope::InlineScope() : prev_(t_in_worker) { t_in_worker = true; }

ThreadPool::InlineScope::~InlineScope() { t_in_worker = prev_; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = workers_.size();
  if (n <= 1 || workers <= 1 || in_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Chunked static schedule: enough chunks for balance, few enough to
  // keep queue overhead negligible.
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  TaskGroup group(*this);
  std::size_t start = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t begin = start;
    const std::size_t end = start + len;
    start = end;
    group.run([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  group.wait();
}

void ThreadPool::claim_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = workers_.size();
  if (n <= 1 || workers <= 1 || in_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const auto state = std::make_shared<ClaimState>(n, &fn);
  const std::size_t helpers = std::min(n - 1, workers);
  for (std::size_t h = 0; h < helpers; ++h) enqueue([state] { state->work(); });
  state->work();
  // Every index is claimed now; wait for the ones helpers are still running.
  for (int spin = 0; spin < kClaimSpins && state->pending.load() != 0; ++spin) cpu_relax();
  for (std::size_t left; (left = state->pending.load()) != 0;) state->pending.wait(left);
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::global() {
  g_global_built.store(true);
  static ThreadPool pool(g_global_threads.load());
  return pool;
}

bool ThreadPool::configure_global(std::size_t threads) {
  if (g_global_built.load()) return false;
  g_global_threads.store(threads);
  return true;
}

bool ThreadPool::in_worker() { return t_in_worker; }

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      cv_task_.wait(mutex_,
                    [this]() SC_REQUIRES(mutex_) { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // TaskGroup::run's wrapper captures every exception
  }
}

}  // namespace sc
