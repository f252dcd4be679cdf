// sc_bench — the repository's end-to-end benchmark harness.
//
//   sc_bench --workload <train-large|serve-repeat|serve-fresh|huge-stream|all>
//            --seed 42 --threads 4 [--seconds 15] --out run.json
//            [--trace run.trace.json] [--smoke] [--workdir DIR]
//
// Prints one "workload metric value unit" line per metric and writes the
// same data, plus correctness hashes and an env block, as JSON. Exits 1 when
// any correctness check fails and 2 on a refused configuration. See
// bench/e2e/README.md for the workloads, metrics and bounds.
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "nn/simd.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace {

using namespace sc::bench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every workload reports from its untraced window.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"throughput", "1/s"},     {"p50_ms", "ms"},
    {"p99_ms", "ms"},       {"peak_rss_mb", "MiB"},    {"mean_relative", "ratio"},
    {"cut_fraction", "ratio"},
};

/// Per-layer metrics of a traced run. A workload that never calls a layer
/// reports that layer's metrics as 0.
constexpr MetricSpec kPerLayer[] = {
    {"trace_overhead", "ratio"},
    {"gen.generate_s", "s"},
    {"rl.epoch_ms", "ms"},
    {"rl.epoch_self_ms", "ms"},
    {"rl.cpu_util", "ratio"},
    {"rl.episode_cache_hit_ratio", "ratio"},
    {"rl.dedup_hits", "count"},
    {"rl.context_build_us", "us"},
    {"partition.place_calls", "count"},
    {"partition.place_us", "us"},
    {"gnn.forward_us", "us"},
    {"gnn.forward_batch_ms", "ms"},
    {"nn.backward_us", "us"},
    {"graph.contract_us", "us"},
    {"sim.simulate_us", "us"},
    {"serve.service_p50_ms", "ms"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.fingerprint_us", "us"},
    {"serve.batch_mean", "count"},
    {"serve.dedup_shared", "count"},
    {"serve.context_hit_ratio", "ratio"},
    {"serve.tail_hit_ratio", "ratio"},
    {"serve.context_evictions", "count"},
    {"serve.backlog_max", "count"},
    {"serve.server_cpu_util", "ratio"},
    {"serve.generator_lag_p99_ms", "ms"},
    {"graph.ingest_s", "s"},
    {"graph.ingest_cpu_util", "ratio"},
    {"graph.load_s", "s"},
    {"graph.ingest_chunks", "count"},
    {"graph.ingest_queue_peak", "count"},
    {"graph.degree_queue_peak", "count"},
    {"graph.csr_mb", "MiB"},
    {"partition.streaming_s", "s"},
    {"partition.streaming_cpu_util", "ratio"},
    {"partition.stage_stream_s", "s"},
    {"partition.stage_coarsen_s", "s"},
    {"partition.stage_partition_s", "s"},
    {"partition.stage_refine_s", "s"},
    {"partition.evictions", "count"},
    {"partition.buffer_peak", "count"},
    {"partition.coarse_nodes", "count"},
    {"partition.cross_shard_edges", "count"},
    {"partition.refine_moves", "count"},
};

const char* const kWorkloads[] = {"train-large", "serve-repeat", "serve-fresh", "huge-stream"};

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string escape(const std::string& s) { return sc::serve::escape_json(s); }

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool validate_build() {
#ifdef SC_VALIDATE_BUILD
  return true;
#else
  return false;
#endif
}

std::string env_json(const RunConfig& cfg) {
  std::ostringstream os;
  os << "{\"build_type\":\"" << escape(SC_BENCH_BUILD_TYPE) << "\""
     << ",\"sc_validate_build\":" << (validate_build() ? "true" : "false")
     << ",\"sanitizer\":\"" << escape(SC_BENCH_SANITIZE) << "\""
     << ",\"compiler\":\"" << escape(__VERSION__) << "\""
     << ",\"simd_tier\":\"" << sc::nn::simd::tier_name(sc::nn::simd::active()) << "\""
     << ",\"nproc\":" << available_cpus()
     << ",\"cpu_model\":\"" << escape(cpu_model()) << "\""
     << ",\"threads\":" << cfg.threads << "}";
  return os.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
       << json_number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

/// Checks a workload reported exactly the canonical metric set; fills the
/// per-layer metrics of layers it never called with 0.
void normalize_metrics(WorkloadResult& r, bool traced) {
  std::set<std::string> seen;
  for (const Metric& m : r.metrics) seen.insert(m.name);
  for (const MetricSpec& spec : kEndToEnd) {
    SC_CHECK(seen.count(spec.name) == 1, r.workload << " did not report " << spec.name);
  }
  SC_CHECK(seen.size() == std::size(kEndToEnd), r.workload << " reported an unlisted metric");
  if (!traced) {
    r.layer_metrics.clear();
    return;
  }
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : kPerLayer) {
    Metric m{spec.name, 0.0, spec.unit};
    for (const Metric& got : r.layer_metrics) {
      if (got.name == spec.name) m = got;
    }
    ordered.push_back(m);
  }
  for (const Metric& got : r.layer_metrics) {
    bool listed = false;
    for (const MetricSpec& spec : kPerLayer) listed = listed || got.name == spec.name;
    SC_CHECK(listed, r.workload << " reported unlisted per-layer metric " << got.name);
  }
  r.layer_metrics = std::move(ordered);
}

std::string run_json(const RunConfig& cfg, const std::vector<WorkloadResult>& results) {
  std::ostringstream os;
  os << "{\"schema\":\"sc_bench/1\",\"seed\":" << cfg.seed
     << ",\"seconds\":" << json_number(cfg.seconds)
     << ",\"smoke\":" << (cfg.smoke ? "true" : "false")
     << ",\"traced\":" << (cfg.trace ? "true" : "false") << ",\"env\":" << env_json(cfg)
     << ",\"workloads\":[";
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    os << (w ? "," : "") << "\n{\"name\":\"" << r.workload << "\""
       << ",\"correct\":" << (r.failures.empty() ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      os << (i ? "," : "") << "\"" << escape(r.failures[i]) << "\"";
    }
    os << "],\"hashes\":{";
    std::size_t i = 0;
    for (const auto& [k, v] : r.hashes) {
      os << (i++ ? "," : "") << "\"" << escape(k) << "\":\"" << escape(v) << "\"";
    }
    os << "},\"metrics\":" << metrics_json(r.metrics)
       << ",\"layer_metrics\":" << metrics_json(r.layer_metrics) << "}";
  }
  os << "]}\n";
  return os.str();
}

/// Smoke-mode self-check: both files parse as JSON and carry what the
/// contract promises.
void validate_outputs(const std::string& out, const std::string& trace_path,
                      const std::vector<WorkloadResult>& results) {
  using sc::serve::JsonValue;
  const JsonValue doc = sc::serve::parse_json(read_file(out));
  const JsonValue* wls = doc.find("workloads");
  SC_CHECK(wls != nullptr && wls->array.size() == results.size(), "run JSON lacks workloads");
  SC_CHECK(doc.find("env") != nullptr, "run JSON lacks env");
  for (const JsonValue& w : wls->array) {
    const JsonValue* m = w.find("metrics");
    SC_CHECK(m != nullptr, "workload without metrics");
    for (const MetricSpec& spec : kEndToEnd) {
      const JsonValue* v = m->find(spec.name);
      SC_CHECK(v != nullptr && v->find("value") != nullptr &&
                   v->find("value")->type == JsonValue::Type::Number,
               "run JSON: " << spec.name << " missing or not a number");
    }
    if (!trace_path.empty()) {
      const JsonValue* lm = w.find("layer_metrics");
      for (const MetricSpec& spec : kPerLayer) {
        SC_CHECK(lm != nullptr && lm->find(spec.name) != nullptr,
                 "run JSON: per-layer " << spec.name << " missing");
      }
    }
  }
  if (trace_path.empty()) return;
  const JsonValue tr = sc::serve::parse_json(read_file(trace_path));
  const JsonValue* events = tr.find("traceEvents");
  SC_CHECK(events != nullptr && events->type == JsonValue::Type::Array,
           "trace JSON lacks traceEvents");
  std::size_t complete = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    SC_CHECK(ph != nullptr && e.find("name") != nullptr, "trace event without ph/name");
    if (ph->string == "X") {
      SC_CHECK(e.find("ts") != nullptr && e.find("dur") != nullptr, "X event without ts/dur");
      ++complete;
    }
  }
  SC_CHECK(complete > 0, "trace JSON has no complete events");
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace sc;
  const Flags flags(argc, argv);
  flags.check_unknown({"workload", "seed", "threads", "seconds", "out", "trace", "smoke",
                       "workdir"});
  if (!flags.has("workload") || !flags.has("out")) {
    std::cerr << "usage: sc_bench --workload <train-large|serve-repeat|serve-fresh|"
                 "huge-stream|all> --seed N --threads N --out run.json\n"
                 "                [--seconds 15] [--trace run.trace.json] [--smoke]\n"
                 "                [--workdir DIR]\n";
    return 2;
  }
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.threads = static_cast<std::size_t>(flags.get_int("threads", 4));
  cfg.smoke = flags.get_bool("smoke", false);
  cfg.seconds = flags.get_double("seconds", cfg.smoke ? 1.0 : 15.0);
  const std::string trace_path = flags.get_string("trace", "");
  cfg.trace = !trace_path.empty();
  cfg.workdir = flags.get_string("workdir", "sc_bench_work");
  const std::string out = flags.get_string("out", "");
  const std::string which = flags.get_string("workload", "");

  // Build and environment guard: timings from checked or instrumented
  // builds, or from an oversubscribed pool, are not comparable.
  const std::string build_type = SC_BENCH_BUILD_TYPE;
  const std::string sanitizer = SC_BENCH_SANITIZE;
  if (!cfg.smoke && (build_type != "Release" || validate_build() || sanitizer != "OFF")) {
    std::cerr << "sc_bench: refusing a measured run on a " << build_type
              << " build (SC_VALIDATE " << (validate_build() ? "ON" : "OFF") << ", sanitizer "
              << sanitizer << "); use -DCMAKE_BUILD_TYPE=Release -DSC_VALIDATE=OFF "
              << "-DSC_SANITIZE=OFF or --smoke\n";
    return 2;
  }
  if (cfg.threads < 1 || cfg.threads > available_cpus()) {
    std::cerr << "sc_bench: --threads " << cfg.threads << " must be in [1, "
              << available_cpus() << "] (the CPUs this process may use)\n";
    return 2;
  }
  if (!(cfg.seconds > 0.0)) {
    std::cerr << "sc_bench: --seconds must be positive\n";
    return 2;
  }
  std::vector<std::string> workloads;
  for (const char* w : kWorkloads) {
    if (which == "all" || which == w) workloads.push_back(w);
  }
  if (workloads.empty()) {
    std::cerr << "sc_bench: unknown workload '" << which << "'\n";
    return 2;
  }
  SC_CHECK(ThreadPool::configure_global(cfg.threads), "global pool already running");
  ::mkdir(cfg.workdir.c_str(), 0755);

  std::vector<WorkloadResult> results;
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
  for (const std::string& w : workloads) {
    WorkloadResult r;
    try {
      if (w == "train-large") r = run_train_large(cfg);
      if (w == "serve-repeat") r = run_serve(cfg, /*fresh=*/false);
      if (w == "serve-fresh") r = run_serve(cfg, /*fresh=*/true);
      if (w == "huge-stream") r = run_huge_stream(cfg);
      r.workload = w;
      normalize_metrics(r, cfg.trace);
    } catch (const std::exception& e) {
      r.workload = w;
      r.failures.push_back(std::string("workload aborted: ") + e.what());
      r.failed = std::max<std::uint64_t>(r.failed, 1);
      r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    }
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.6g %s\n", w.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : r.layer_metrics) {
      std::printf("%s %s %.6g %s\n", w.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const std::string& f : r.failures) {
      std::printf("%s FAILED %s\n", w.c_str(), f.c_str());
    }
    std::fflush(stdout);
    results.push_back(std::move(r));
    trace::take(spans, counters);
  }

  {
    std::ofstream os(out);
    os << run_json(cfg, results);
    os.flush();
    SC_CHECK(os.good(), "cannot write " << out);
  }
  if (cfg.trace) {
    SC_CHECK(trace::write_chrome_json(trace_path, "sc_bench " + which, spans, counters),
             "cannot write " << trace_path);
  }
  if (cfg.smoke) validate_outputs(out, trace_path, results);

  bool correct = true;
  for (const WorkloadResult& r : results) correct = correct && r.failures.empty();
  return correct ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "sc_bench: " << e.what() << '\n';
  return 1;
}
