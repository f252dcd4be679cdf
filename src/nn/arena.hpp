// Tensor arena: a per-thread recycling workspace for autograd nodes.
//
// Every tensor op allocates a TensorData (shape + value + grad + tape
// bookkeeping). During training the same forward/backward structure is
// rebuilt every update, so the steady state is "allocate N buffers, free N
// buffers" per step — pure allocator churn. The arena parks released nodes
// on a per-thread free list with their vector capacities intact; the next op on that thread pops a node and re-sizes it
// in place (an `assign` into existing capacity performs no heap allocation).
// After a warm-up update, the policy forward+backward path runs out of the
// recycled flat buffers instead of the heap.
//
// Numerics are untouched: recycled nodes are fully reset (grad cleared, tape
// links dropped) before reuse, so a recycled node behaves exactly like a
// fresh one.
//
// Thread-safety: each thread owns its free list; a node released on a
// different thread than the one that allocated it simply parks on the
// releasing thread's list. Per-thread lists are capped (node count and
// bytes) so pathological workloads degrade to plain heap behaviour.
//
// Lock discipline (DESIGN.md §10): mutex-free by construction — the free
// lists are thread_local (never shared), and the stats counters are relaxed
// atomics. No capability annotations apply; the thread-ownership invariant
// is covered by the TSan job, not the static analysis.
#pragma once

#include <cstdint>
#include <memory>

namespace sc::nn {

namespace detail {
struct TensorData;

/// Allocates a TensorData from the calling thread's free list (the heap when
/// the list is empty). The returned node is always fully reset.
std::shared_ptr<TensorData> alloc_tensor_data();
}  // namespace detail

namespace arena {

struct ArenaStats {
  std::uint64_t acquires = 0;      ///< nodes handed out
  std::uint64_t reuses = 0;        ///< of those, served from a free list
  std::uint64_t fresh_allocs = 0;  ///< of those, heap-allocated (cold pool)
  std::uint64_t pooled_nodes = 0;  ///< nodes currently parked, all threads
  std::uint64_t pooled_bytes = 0;  ///< value+grad capacity bytes parked
  std::uint64_t high_water_bytes = 0;  ///< max pooled_bytes ever observed
};

/// Process-wide counters (relaxed atomics; approximate under concurrency).
ArenaStats stats();
void reset_stats();

/// Frees the calling thread's parked nodes (tests / memory pressure).
void trim_thread_pool();

}  // namespace arena
}  // namespace sc::nn
