// The one place sc_bench reads the libraries' public stats structs and the
// serve stats endpoint. When those structs change shape, this file (and
// only this file) changes with them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "partition/streaming.hpp"
#include "rl/reinforce.hpp"

namespace sc::bench {

/// Sums of the per-epoch trainer counters.
struct EpochTotals {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t dedup_hits = 0;
  bool all_finite = true;
};
EpochTotals sum_epoch_stats(const std::vector<rl::EpochStats>& epochs);

/// Counters from the Huge pipeline's returned structs, added as per-layer
/// metrics.
void add_streaming_counters(WorkloadResult& r, const partition::StreamingIngest& ingest,
                            const partition::StreamingStats& stats);

/// Cumulative counters from one {"cmd":"stats"} response line.
struct ServeCounters {
  double accepted = 0, shed = 0, completed = 0, errors = 0;
  double batches = 0, batched_requests = 0, dedup_shared = 0;
  double context_hits = 0, context_misses = 0, context_evictions = 0;
  double tail_hits = 0, tail_misses = 0;
};
/// Parses a stats response line; throws sc::Error when it is malformed.
ServeCounters parse_serve_stats(const std::string& line);
/// Per-layer metrics from the counter deltas `after - before`.
void add_serve_counter_deltas(WorkloadResult& r, const ServeCounters& before,
                              const ServeCounters& after);

}  // namespace sc::bench
