// Shared helpers for the test suite: small canonical stream graphs, and a
// gate that holds every worker of a thread pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/stream_graph.hpp"

namespace sc::test {

/// 0 -> 1 -> ... -> n-1, uniform ipt / payload.
inline graph::StreamGraph make_chain(std::size_t n, double ipt = 1.0,
                                     double payload = 1.0) {
  graph::GraphBuilder b("chain");
  for (std::size_t i = 0; i < n; ++i) b.add_node(ipt);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge(static_cast<graph::NodeId>(i), static_cast<graph::NodeId>(i + 1), payload);
  }
  return b.build();
}

/// Diamond: 0 -> {1, 2} -> 3 with split semantics at the fork.
inline graph::StreamGraph make_diamond(double ipt = 1.0, double payload = 1.0) {
  graph::GraphBuilder b("diamond");
  for (int i = 0; i < 4; ++i) b.add_node(ipt);
  b.add_edge(0, 1, payload, 0.5);
  b.add_edge(0, 2, payload, 0.5);
  b.add_edge(1, 3, payload);
  b.add_edge(2, 3, payload);
  return b.build();
}

/// Broadcast diamond: the fork sends the full rate down both branches.
inline graph::StreamGraph make_broadcast_diamond(double ipt = 1.0, double payload = 1.0) {
  graph::GraphBuilder b("bdiamond");
  for (int i = 0; i < 4; ++i) b.add_node(ipt);
  b.add_edge(0, 1, payload, 1.0);
  b.add_edge(0, 2, payload, 1.0);
  b.add_edge(1, 3, payload);
  b.add_edge(2, 3, payload);
  return b.build();
}

/// Two independent chains sharing no edges: {0->1} and {2->3}.
inline graph::StreamGraph make_two_components() {
  graph::GraphBuilder b("twocomp");
  for (int i = 0; i < 4; ++i) b.add_node(1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  return b.build();
}

/// Holds every worker of `pool` in one loop index each until the gate
/// opens, so nothing queued behind those indices can start meanwhile. A
/// holder thread runs a parallel_for of size() + 1 indices that each block
/// until the gate opens: the holder claims one index and each worker the
/// next, so once all of them have arrived every worker is held. Needs a pool
/// of at least two workers (a 1-worker pool runs parallel_for inline).
class WorkerGate {
public:
  explicit WorkerGate(ThreadPool& pool)
      : arrived_(static_cast<std::ptrdiff_t>(pool.size() + 1)) {
    if (pool.size() < 2) throw std::logic_error("WorkerGate needs at least two workers");
    holder_ = std::thread([this, &pool] {
      pool.parallel_for(pool.size() + 1, [this](std::size_t) {
        arrived_.count_down();
        open_.wait();
      });
    });
    arrived_.wait();
  }
  ~WorkerGate() { release(); }

  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  /// Lets the held workers go. Safe from any thread, and more than once.
  void open() {
    if (!opened_.exchange(true)) open_.count_down();
  }

  /// Opens the gate and waits until every held worker has left it. Call
  /// from the thread that built the gate.
  void release() {
    open();
    if (holder_.joinable()) holder_.join();
  }

private:
  std::latch arrived_;
  std::latch open_{1};
  std::atomic<bool> opened_{false};
  std::thread holder_;  ///< declared last: its loop uses the latches
};

}  // namespace sc::test
