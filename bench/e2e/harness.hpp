// Shared plumbing for the sc_bench end-to-end harness: clocks, process
// resource readings, the span recorder behind --trace, metric records and
// the JSON writer for run files.
//
// Spans are recorded only by the harness, around its own calls into a
// library layer. Nothing here switches a library code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/rates.hpp"
#include "sim/cluster.hpp"

namespace sc::bench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
std::int64_t nanos_since_start(Clock::time_point t);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Share of `g`'s unit-rate traffic that crosses devices under `p`.
double cut_fraction(const graph::StreamGraph& g, const graph::LoadProfile& profile,
                    const sim::Placement& p);

/// FNV-1a over 32-bit labels, the placement fingerprint the benches share.
std::uint64_t fnv_labels(const std::vector<int>& labels, std::uint64_t h = 1469598103934665603ULL);
std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Process resources (Linux /proc and getrusage).
// ---------------------------------------------------------------------------

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double peak_rss_mb(int pid = 0);
/// Trims the allocator and resets this process's VmHWM through
/// /proc/self/clear_refs. False when the kernel does not support it.
bool reset_peak_rss();
/// User + system CPU seconds of this process.
double process_cpu_seconds();
/// utime + stime of `pid` from /proc/<pid>/stat, in seconds.
double child_cpu_seconds(int pid);
/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t available_cpus();

// ---------------------------------------------------------------------------
// Span recorder (Chrome trace events). Disabled, a Span costs one relaxed
// load; enabled, two clock reads and an append to a per-thread buffer.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t req;  ///< request id for serve spans, 0 otherwise
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t tid;  ///< trace track; 0 = the recording thread's
};

struct CounterRecord {
  std::string name;
  std::int64_t ts_ns;
  double value;
};

namespace trace {

void record_spans(bool on);
bool recording();
std::uint64_t next_id();
void record(const SpanRecord& r);
void counter(const std::string& name, double value);

/// Every recorded span, merged across threads (call when recording threads
/// are idle).
std::vector<SpanRecord> spans();
/// Durations (ms) of every span named `name`.
std::vector<double> durations_ms(const std::string& name);
/// Per-span self time (duration minus the union of its children's
/// intervals), in ms, for every span named `name`.
std::vector<double> self_ms(const std::string& name);
/// Removes and returns everything recorded so far (one workload's trace).
void take(std::vector<SpanRecord>& spans, std::vector<CounterRecord>& counters);
/// Writes Chrome trace-event JSON ({"traceEvents":[...]}) to `path`.
bool write_chrome_json(const std::string& path, const std::string& process_name,
                       const std::vector<SpanRecord>& spans,
                       const std::vector<CounterRecord>& counters);

}  // namespace trace

/// RAII span. `parent` defaults to the span the thread is inside.
class Span {
public:
  explicit Span(const char* name, std::uint64_t parent = ~std::uint64_t{0});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct WorkloadResult {
  std::string workload;
  std::vector<Metric> metrics;        ///< end-to-end
  std::vector<Metric> layer_metrics;  ///< per-layer (traced runs only)
  std::map<std::string, std::string> hashes;
  std::vector<std::string> failures;  ///< correctness failures; empty = correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Run configuration shared by every workload.
struct RunConfig {
  std::uint64_t seed = 42;
  std::size_t threads = 4;
  double seconds = 15.0;
  bool smoke = false;
  bool trace = false;
  std::string workdir;  ///< scratch files: the Huge graph, model, socket, logs
};

/// Relative slowdown of a workload's primary metric with tracing on
/// (positive = tracing cost), from its untraced and traced values.
double trace_overhead(double untraced, double traced, bool higher_is_better);

/// Adds the p50 per call of every probe span ("probe.<layer metric>")
/// recorded so far, for the probes that ran.
void add_probe_metrics(WorkloadResult& r);

std::string json_number(double v);

}  // namespace sc::bench
