#include "counters.hpp"

#include <cmath>

#include "common/error.hpp"
#include "serve/protocol.hpp"

namespace sc::bench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

EpochTotals sum_epoch_stats(const std::vector<rl::EpochStats>& epochs) {
  EpochTotals t;
  for (const rl::EpochStats& s : epochs) {
    t.cache_hits += s.cache_hits;
    t.cache_misses += s.cache_misses;
    t.dedup_hits += s.dedup_hits;
    for (const double v : {s.mean_sample_reward, s.mean_best_reward, s.mean_greedy_reward,
                           s.mean_compression, s.mean_loss}) {
      t.all_finite = t.all_finite && std::isfinite(v);
    }
  }
  return t;
}

void add_streaming_counters(WorkloadResult& r, const partition::StreamingIngest& ingest,
                            const partition::StreamingStats& stats) {
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  r.layer("graph.ingest_chunks", d(ingest.read_stats.chunks), "count");
  r.layer("graph.ingest_queue_peak", d(ingest.read_stats.queue_peak), "count");
  r.layer("graph.degree_queue_peak", d(ingest.degree_queue_peak), "count");
  r.layer("graph.csr_mb", d(ingest.graph.footprint_bytes()) / (1024.0 * 1024.0), "MiB");
  r.layer("partition.stage_stream_s", stats.stage_stream_s, "s");
  r.layer("partition.stage_coarsen_s", stats.stage_coarsen_s, "s");
  r.layer("partition.stage_partition_s", stats.stage_partition_s, "s");
  r.layer("partition.stage_refine_s", stats.stage_refine_s, "s");
  r.layer("partition.evictions", d(stats.evictions), "count");
  r.layer("partition.buffer_peak", d(stats.buffer_peak), "count");
  r.layer("partition.coarse_nodes", d(stats.coarse_nodes), "count");
  r.layer("partition.cross_shard_edges", d(stats.cross_shard_edges), "count");
  r.layer("partition.refine_moves", d(stats.refine_moves), "count");
}

ServeCounters parse_serve_stats(const std::string& line) {
  const serve::JsonValue doc = serve::parse_json(line);
  const serve::JsonValue* s = doc.find("stats");
  SC_CHECK(s != nullptr && s->type == serve::JsonValue::Type::Object,
           "stats response has no \"stats\" object: " << line.substr(0, 200));
  const serve::JsonValue* cc = s->find("context_cache");
  SC_CHECK(cc != nullptr, "stats response has no \"context_cache\" object");
  ServeCounters c;
  c.accepted = s->number_or("accepted", 0);
  c.shed = s->number_or("shed", 0);
  c.completed = s->number_or("completed", 0);
  c.errors = s->number_or("errors", 0);
  c.batches = s->number_or("batches", 0);
  c.batched_requests = s->number_or("batched_requests", 0);
  c.dedup_shared = s->number_or("dedup_shared", 0);
  c.context_hits = cc->number_or("hits", 0);
  c.context_misses = cc->number_or("misses", 0);
  c.context_evictions = cc->number_or("evictions", 0);
  c.tail_hits = cc->number_or("tail_hits", 0);
  c.tail_misses = cc->number_or("tail_misses", 0);
  return c;
}

void add_serve_counter_deltas(WorkloadResult& r, const ServeCounters& before,
                              const ServeCounters& after) {
  const double batches = after.batches - before.batches;
  const double ctx_hits = after.context_hits - before.context_hits;
  const double ctx_misses = after.context_misses - before.context_misses;
  const double tail_hits = after.tail_hits - before.tail_hits;
  const double tail_misses = after.tail_misses - before.tail_misses;
  r.layer("serve.batch_mean", ratio(after.batched_requests - before.batched_requests, batches),
          "count");
  r.layer("serve.dedup_shared", after.dedup_shared - before.dedup_shared, "count");
  r.layer("serve.context_hit_ratio", ratio(ctx_hits, ctx_hits + ctx_misses), "ratio");
  r.layer("serve.tail_hit_ratio", ratio(tail_hits, tail_hits + tail_misses), "ratio");
  r.layer("serve.context_evictions", after.context_evictions - before.context_evictions,
          "count");
}

}  // namespace sc::bench
