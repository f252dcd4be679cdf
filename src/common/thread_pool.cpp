#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace sc {

namespace {
// Desired size of the global pool (0 = hardware_concurrency) and whether the
// pool has been constructed; configure_global only works before construction.
std::atomic<std::size_t> g_global_threads{0};
std::atomic<bool> g_global_built{false};
thread_local bool t_in_worker = false;

/// Polls of parallel_for's wait before it sleeps in std::atomic::wait: long
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

/// State of one parallel_for call, shared by the caller and its helper tasks.
/// `fn` stays valid while `pending` > 0: the caller returns only after every
/// index has finished, and a helper touches fn only for an index it claimed.
struct ClaimState {
  ClaimState(std::size_t count, const std::function<void(std::size_t)>* body)
      : n(count), fn(body), pending(count) {}

  /// Claims and runs indices until none is left.
  void work() {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) run(i);
  }

  /// Runs claimed index `i`; once an index has thrown, later ones are
  /// counted off without running.
  void run(std::size_t i) {
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

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending;  ///< indices not yet finished or skipped
  std::atomic<bool> failed{false};
  /// Written once, by the thread whose exchange set `failed`; taken by the
  /// caller once `pending` is 0.
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
  const std::size_t workers = workers_.size();
  if (n <= 1 || workers <= 1 || in_worker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const auto state = std::make_shared<ClaimState>(n, &fn);
  state->next.store(1);  // index 0 is the caller's, before any helper can claim
  const std::size_t helpers = std::min(n - 1, workers);
  for (std::size_t h = 0; h < helpers; ++h) enqueue([state] { state->work(); });
  {
    const InlineScope as_worker;
    state->run(0);
    state->work();
  }
  // Every index is claimed now; wait for the ones helpers are still running.
  for (int spin = 0; spin < kClaimSpins && state->pending.load() != 0; ++spin) cpu_relax();
  for (std::size_t left; (left = state->pending.load()) != 0;) state->pending.wait(left);
  // Take the error out of the shared state: a late helper may release the
  // state last, and must not also release the exception the caller handles.
  if (state->error) std::rethrow_exception(std::exchange(state->error, nullptr));
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
    task();  // ClaimState::work captures every exception of the loop body
  }
}

}  // namespace sc
