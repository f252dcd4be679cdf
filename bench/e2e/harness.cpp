#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "serve/protocol.hpp"

namespace sc::bench {

namespace {

const Clock::time_point g_start = Clock::now();

std::size_t status_kb(const std::string& path, const char* key) {
  std::ifstream is(path);
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(is, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream ls(line.substr(prefix.size()));
      std::size_t kb = 0;
      ls >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t nanos_since_start(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_start).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cut_fraction(const graph::StreamGraph& g, const graph::LoadProfile& profile,
                    const sim::Placement& p) {
  double cut = 0.0;
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (p[edges[e].src] != p[edges[e].dst]) cut += profile.edge_traffic[e];
  }
  return profile.total_traffic > 0.0 ? cut / profile.total_traffic : 0.0;
}

std::uint64_t fnv_labels(const std::vector<int>& labels, std::uint64_t h) {
  for (const int p : labels) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<std::uint64_t>((static_cast<std::uint32_t>(p) >> (8 * b)) & 0xFFu);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  return static_cast<double>(status_kb(path, "VmHWM")) / 1024.0;
}

bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);  // return freed pages so the next peak starts from live memory
#endif
  std::ofstream os("/proc/self/clear_refs");
  if (!os.good()) return false;
  os << "5\n";
  os.flush();
  return os.good();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double child_cpu_seconds(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  // Fields after the command name start at field 3 (state); utime and stime
  // are fields 14 and 15.
  std::istringstream ls(text.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int f = 3; f <= 15 && ls >> field; ++f) {
    if (f == 14) utime = std::stod(field);
    if (f == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

namespace trace {

namespace {

struct ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

// Buffers are owned by the registry, not the thread, so spans survive the
// threads that recorded them.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::vector<CounterRecord> g_counters;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::uint32_t t_tid = 0;
thread_local std::uint64_t t_current = 0;

ThreadBuffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_tid = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *t_buffer;
}

}  // namespace

void record_spans(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool recording() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record(const SpanRecord& r) {
  ThreadBuffer& buf = local_buffer();
  SpanRecord copy = r;
  if (copy.tid == 0) copy.tid = t_tid;
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.spans.push_back(copy);
}

void counter(const std::string& name, double value) {
  if (!recording()) return;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  g_counters.push_back({name, nanos_since_start(Clock::now()), value});
}

std::vector<SpanRecord> spans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buf : g_buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

std::vector<double> durations_ms(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans()) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e6);
  }
  return out;
}

std::vector<double> self_ms(const std::string& name) {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.start_ns + s.dur_ns);
  }
  std::vector<double> out;
  for (const SpanRecord& s : all) {
    if (name != s.name) continue;
    const std::int64_t lo = s.start_ns;
    const std::int64_t hi = s.start_ns + s.dur_ns;
    std::int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (const auto& [a0, b0] : iv) {
        const std::int64_t a = std::max(a0, lo);
        const std::int64_t b = std::min(b0, hi);
        if (b <= a) continue;
        if (a > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
        } else {
          cur_hi = std::max(cur_hi, b);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out.push_back(static_cast<double>(s.dur_ns - covered) / 1e6);
  }
  return out;
}

void take(std::vector<SpanRecord>& out_spans, std::vector<CounterRecord>& out_counters) {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buf : g_buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    out_spans.insert(out_spans.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  out_counters.insert(out_counters.end(), g_counters.begin(), g_counters.end());
  g_counters.clear();
}

bool write_chrome_json(const std::string& path, const std::string& process_name,
                       const std::vector<SpanRecord>& spans,
                       const std::vector<CounterRecord>& counters) {
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\""
     << serve::escape_json(process_name) << "\"}}";
  char buf[256];
  for (const SpanRecord& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                  s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.req));
    os << buf;
  }
  for (const CounterRecord& c : counters) {
    os << ",\n{\"name\":\"" << serve::escape_json(c.name)
       << "\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
       << json_number(static_cast<double>(c.ts_ns) / 1e3) << ",\"args\":{\"value\":"
       << json_number(c.value) << "}}";
  }
  os << "\n]}\n";
  os.flush();
  return os.good();
}

}  // namespace trace

Span::Span(const char* name, std::uint64_t parent) : name_(name) {
  if (!trace::recording()) return;
  id_ = trace::next_id();
  parent_ = parent == ~std::uint64_t{0} ? trace::t_current : parent;
  saved_current_ = trace::t_current;
  trace::t_current = id_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  trace::t_current = saved_current_;
  trace::record({name_, id_, parent_, 0, nanos_since_start(start_),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count(), 0});
}

double trace_overhead(double untraced, double traced, bool higher_is_better) {
  if (untraced <= 0.0 || traced <= 0.0) return 0.0;
  return higher_is_better ? untraced / traced - 1.0 : traced / untraced - 1.0;
}

void add_probe_metrics(WorkloadResult& r) {
  struct Probe {
    const char* span;
    const char* metric;
    double scale;  ///< from ms
    const char* unit;
  };
  constexpr Probe kProbes[] = {
      {"probe.rl.context_build", "rl.context_build_us", 1e3, "us"},
      {"probe.gnn.forward", "gnn.forward_us", 1e3, "us"},
      {"probe.gnn.forward_batch", "gnn.forward_batch_ms", 1.0, "ms"},
      {"probe.nn.backward", "nn.backward_us", 1e3, "us"},
      {"probe.graph.contract", "graph.contract_us", 1e3, "us"},
      {"probe.sim.simulate", "sim.simulate_us", 1e3, "us"},
      {"probe.serve.parse", "serve.parse_us", 1e3, "us"},
      {"probe.serve.fingerprint", "serve.fingerprint_us", 1e3, "us"},
  };
  for (const Probe& p : kProbes) {
    const std::vector<double> ms = trace::durations_ms(p.span);
    if (!ms.empty()) r.layer(p.metric, percentile(ms, 0.5) * p.scale, p.unit);
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace sc::bench
