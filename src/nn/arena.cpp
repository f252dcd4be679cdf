#include "nn/arena.hpp"

#include <atomic>
#include <vector>

#include "nn/tensor.hpp"

namespace sc::nn {

namespace {

std::atomic<std::uint64_t> g_acquires{0};
std::atomic<std::uint64_t> g_reuses{0};
std::atomic<std::uint64_t> g_fresh{0};
std::atomic<std::uint64_t> g_pooled_nodes{0};
std::atomic<std::uint64_t> g_pooled_bytes{0};
std::atomic<std::uint64_t> g_high_water_bytes{0};

// Per-thread caps: beyond these, released nodes are deleted instead of
// parked, bounding the arena's footprint on any single thread.
constexpr std::size_t kMaxPooledNodes = 4096;
constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;  // 64 MiB

std::uint64_t node_bytes(const detail::TensorData& d) {
  return static_cast<std::uint64_t>(d.value.capacity() + d.grad.capacity()) *
         sizeof(double);
}

/// Thread-local free list; deletes leftovers at thread exit.
struct FreeList {
  std::vector<detail::TensorData*> nodes;
  std::size_t bytes = 0;

  ~FreeList() {
    for (detail::TensorData* p : nodes) {
      g_pooled_nodes.fetch_sub(1, std::memory_order_relaxed);
      g_pooled_bytes.fetch_sub(node_bytes(*p), std::memory_order_relaxed);
      delete p;
    }
  }
};

FreeList& free_list() {
  thread_local FreeList list;
  return list;
}

void update_high_water(std::uint64_t pooled) {
  std::uint64_t hw = g_high_water_bytes.load(std::memory_order_relaxed);
  while (pooled > hw &&
         !g_high_water_bytes.compare_exchange_weak(hw, pooled,
                                                   std::memory_order_relaxed)) {
  }
}

/// Resets tape state and buffers, keeping vector capacities for reuse.
void reset_node(detail::TensorData& d) {
  d.backward_fn = nullptr;
  d.inputs.clear();   // keeps capacity
  d.shape.clear();    // keeps capacity
  d.value.clear();    // keeps capacity
  d.grad.clear();     // keeps capacity; ensure_grad() re-zeros on next use
  d.requires_grad = false;
}

/// shared_ptr deleter that parks the node instead of freeing it.
struct ArenaDeleter {
  void operator()(detail::TensorData* p) const {
    FreeList& list = free_list();
    if (list.nodes.size() >= kMaxPooledNodes || list.bytes >= kMaxPooledBytes) {
      delete p;
      return;
    }
    reset_node(*p);
    const std::uint64_t bytes = node_bytes(*p);
    list.nodes.push_back(p);
    list.bytes += static_cast<std::size_t>(bytes);
    g_pooled_nodes.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t pooled =
        g_pooled_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    update_high_water(pooled);
  }
};

}  // namespace

namespace detail {

std::shared_ptr<TensorData> alloc_tensor_data() {
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  FreeList& list = free_list();
  if (!list.nodes.empty()) {
    TensorData* p = list.nodes.back();
    list.nodes.pop_back();
    const std::uint64_t bytes = node_bytes(*p);
    list.bytes -= static_cast<std::size_t>(bytes);
    g_pooled_nodes.fetch_sub(1, std::memory_order_relaxed);
    g_pooled_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    g_reuses.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<TensorData>(p, ArenaDeleter{});
  }
  g_fresh.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<TensorData>(new TensorData, ArenaDeleter{});
}

}  // namespace detail

namespace arena {

ArenaStats stats() {
  ArenaStats s;
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  s.reuses = g_reuses.load(std::memory_order_relaxed);
  s.fresh_allocs = g_fresh.load(std::memory_order_relaxed);
  s.pooled_nodes = g_pooled_nodes.load(std::memory_order_relaxed);
  s.pooled_bytes = g_pooled_bytes.load(std::memory_order_relaxed);
  s.high_water_bytes = g_high_water_bytes.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_acquires.store(0, std::memory_order_relaxed);
  g_reuses.store(0, std::memory_order_relaxed);
  g_fresh.store(0, std::memory_order_relaxed);
  g_high_water_bytes.store(g_pooled_bytes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

void trim_thread_pool() {
  FreeList& list = free_list();
  for (detail::TensorData* p : list.nodes) {
    g_pooled_nodes.fetch_sub(1, std::memory_order_relaxed);
    g_pooled_bytes.fetch_sub(node_bytes(*p), std::memory_order_relaxed);
    delete p;
  }
  list.nodes.clear();
  list.bytes = 0;
}

}  // namespace arena
}  // namespace sc::nn
