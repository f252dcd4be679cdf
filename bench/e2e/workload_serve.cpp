// serve-repeat / serve-fresh: the sc_serve binary on a unix socket, driven
// through its NDJSON protocol by one client process with one sender thread
// on a fixed schedule and two connections, each with one receiver thread.
//
//   serve-repeat  a fixed catalogue of 32 Medium jobs at 80-20 popularity:
//                 after warm-up every request hits the context and tail
//                 caches, so the cost is socket + parse + fingerprint +
//                 batched forward (the read side of the serving caches,
//                 where batching and dedup show).
//   serve-fresh   every request carries a graph the server has not seen
//                 within its 64-entry context cache: each one builds a
//                 context, contracts, partitions, simulates and evicts (the
//                 write side of the same caches).
//
// The measured window is an open-loop step at a fixed nominal rate (latency
// from each request's scheduled send time, so a stall counts against every
// request it delays), then a closed-loop step that keeps a fixed number of
// requests outstanding per connection (capacity).
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "counters.hpp"
#include "gen/dataset.hpp"
#include "gnn/features.hpp"
#include "rl/rollout.hpp"
#include "serve/context_cache.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace sc::bench {

namespace {

// Calibrated once on a 4-core Xeon host (README.md, "Calibration"): about a
// third of the closed-loop capacity C measured there, where latency is still
// service time; nearer C a busy host moment tips the server into queueing.
constexpr double kNominalRateRepeat = 600.0;
constexpr double kNominalRateFresh = 250.0;

constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kConnections = 2;
/// Requests kept outstanding per connection in the closed-loop step: one
/// full batch (sc_serve's default --max-batch).
constexpr std::size_t kWindowPerConnection = 16;
constexpr std::size_t kRepeatJobs = 32;
/// 80-20 popularity: 80% of requests go to the first 20% of jobs.
constexpr double kHotShare = 0.8;
constexpr double kHotJobs = 0.2;
/// Every k-th request of the nominal step is recomputed in-process.
constexpr std::size_t kVerifyEvery = 10;
/// Share of the window spent in the open-loop nominal step.
constexpr double kNominalShare = 0.8;

using Nanos = std::int64_t;

Nanos now_ns() { return nanos_since_start(Clock::now()); }

sim::ClusterSpec medium_spec() {
  return rl::to_cluster_spec(gen::setting_config(gen::Setting::Medium).workload);
}

// ---------------------------------------------------------------------------
// sc_serve child process
// ---------------------------------------------------------------------------

class ServerProcess {
public:
  ServerProcess(const std::string& bin, const std::vector<std::string>& args,
                const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    SC_CHECK(pid_ >= 0, "fork failed: " << std::strerror(errno));
    if (pid_ == 0) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~ServerProcess() { kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int pid() const { return pid_; }

  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exit_status_ = status;
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Waits up to `timeout_s` for the child to exit; true when it did with 0.
  bool wait_exit(double timeout_s) {
    const auto t0 = Clock::now();
    while (running()) {
      if (seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return WIFEXITED(exit_status_) && WEXITSTATUS(exit_status_) == 0;
  }

  void kill() {
    if (!running()) return;
    ::kill(pid_, SIGTERM);
    if (wait_exit(2.0)) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &exit_status_, 0);
    pid_ = -1;
  }

private:
  pid_t pid_ = -1;
  int exit_status_ = 0;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SC_CHECK(fd >= 0, "socket failed: " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SC_CHECK(path.size() < sizeof(addr.sun_path), "socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, iovec* iov, int n) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n);
    ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    while (n > 0 && static_cast<std::size_t>(sent) >= iov->iov_len) {
      sent -= static_cast<ssize_t>(iov->iov_len);
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= static_cast<std::size_t>(sent);
    }
  }
  return true;
}

/// Blocking line reader over a socket fd.
class LineReader {
public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool next(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buf_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  int fd_;
  std::string buf_;
  std::size_t scanned_ = 0;
};

/// Synchronous request/response on a control connection (stats, shutdown).
std::string control(int fd, const std::string& cmd) {
  std::string line = cmd + "\n";
  iovec iov{line.data(), line.size()};
  SC_CHECK(send_all(fd, &iov, 1), "control connection closed");
  LineReader reader(fd);
  std::string reply;
  SC_CHECK(reader.next(reply), "control connection closed before answering " << cmd);
  return reply;
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

/// Per-request bookkeeping, indexed by request id.
struct Slot {
  std::size_t job = 0;
  Nanos scheduled_ns = 0;
  Nanos sent_ns = 0;
  Nanos recv_ns = 0;
  std::string response;
};

/// Request bodies are serialized in set-up; a request on the wire is
/// `{"id":<n>` + body, so sending formats one integer and copies nothing.
struct RequestPool {
  std::vector<std::string> bodies;  ///< everything after the id, newline-terminated
  std::vector<std::size_t> sequence;  ///< job of the i-th request sent
};

/// The request line for `job` with id 1 and no newline, as the server
/// parses it.
std::string request_line(const RequestPool& pool, std::size_t job) {
  const std::string& body = pool.bodies[job];
  return "{\"id\":1" + body.substr(0, body.size() - 1);
}

class Client {
public:
  Client(const std::string& socket, const RequestPool& pool, std::size_t max_requests)
      : pool_(pool), slots_(max_requests + 1) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      const int fd = connect_unix(socket);
      SC_CHECK(fd >= 0, "cannot connect to " << socket);
      fds_.push_back(fd);
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      receivers_.emplace_back([this, c] { receive(c); });
    }
  }
  ~Client() {
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& t : receivers_) t.join();
    for (const int fd : fds_) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::uint64_t sent() const { return next_id_.load(std::memory_order_acquire) - 1; }
  std::uint64_t answered() const { return answered_.load(std::memory_order_acquire); }
  const Slot& slot(std::uint64_t id) const { return slots_[id]; }

  /// Open loop: `count` requests at `rate`, on a schedule that does not
  /// wait for responses. Returns the first id sent. Tracks the backlog
  /// (sent - answered) at each send.
  std::uint64_t open_loop(double rate, std::size_t count, std::size_t* backlog_max) {
    const std::uint64_t first = next_id_.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      const auto due = t0 + std::chrono::nanoseconds(
                                static_cast<Nanos>(static_cast<double>(i) * 1e9 / rate));
      std::this_thread::sleep_until(due);
      send_next(i % kConnections, nanos_since_start(due));
      if (backlog_max != nullptr) {
        *backlog_max = std::max<std::size_t>(*backlog_max, sent() - answered());
      }
    }
    return first;
  }

  /// Closed loop: keeps kWindowPerConnection requests outstanding per
  /// connection until `deadline`; receivers send the replacement for each
  /// response. Returns the first id sent.
  std::uint64_t closed_loop(Clock::time_point deadline) {
    const std::uint64_t first = next_id_.load(std::memory_order_relaxed);
    deadline_ns_.store(nanos_since_start(deadline), std::memory_order_release);
    closed_.store(true, std::memory_order_release);
    for (std::size_t k = 0; k < kWindowPerConnection; ++k) {
      for (std::size_t c = 0; c < kConnections; ++c) send_next(c, now_ns());
    }
    std::this_thread::sleep_until(deadline);
    closed_.store(false, std::memory_order_release);
    return first;
  }

  /// Waits until every request sent has been answered, up to `timeout_s`.
  bool drain(double timeout_s) {
    const auto t0 = Clock::now();
    while (answered() < sent()) {
      if (seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

private:
  void send_next(std::size_t conn, Nanos scheduled) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
    SC_CHECK(id < slots_.size(), "request slots exhausted");
    Slot& s = slots_[id];
    s.job = pool_.sequence[(id - 1) % pool_.sequence.size()];
    s.scheduled_ns = scheduled;
    char head[32];
    const int n = std::snprintf(head, sizeof(head), "{\"id\":%llu",
                                static_cast<unsigned long long>(id));
    const std::string& body = pool_.bodies[s.job];
    iovec iov[2] = {{head, static_cast<std::size_t>(n)},
                    {const_cast<char*>(body.data()), body.size()}};
    // In the closed loop the primer and the receiver share a connection.
    std::lock_guard<std::mutex> lock(send_mutex_[conn]);
    s.sent_ns = now_ns();
    // A failed send leaves the request unanswered, which the analysis counts.
    (void)send_all(fds_[conn], iov, 2);
  }

  void receive(std::size_t conn) {
    LineReader reader(fds_[conn]);
    std::string line;
    while (reader.next(line)) {
      const Nanos t = now_ns();
      // Responses start with {"id":<n>; the rest is parsed after the window.
      const std::uint64_t id = std::strtoull(line.c_str() + 6, nullptr, 10);
      if (id == 0 || id >= slots_.size()) continue;
      slots_[id].recv_ns = t;
      slots_[id].response = std::move(line);
      answered_.fetch_add(1, std::memory_order_acq_rel);
      if (closed_.load(std::memory_order_acquire) &&
          t < deadline_ns_.load(std::memory_order_acquire)) {
        send_next(conn, t);
      }
    }
  }

  const RequestPool& pool_;
  std::vector<Slot> slots_;
  std::vector<int> fds_;
  std::vector<std::thread> receivers_;
  std::mutex send_mutex_[kConnections];
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<bool> closed_{false};
  std::atomic<Nanos> deadline_ns_{0};
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct ServeSetup {
  std::vector<graph::StreamGraph> graphs;  ///< one per job
  RequestPool pool;
  std::string checkpoint;
  std::string socket;
  std::unique_ptr<ServerProcess> server;
  int control_fd = -1;
  std::unique_ptr<Client> client;
  double generate_s = 0.0;

  ServeSetup() = default;
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;
  ~ServeSetup() { shutdown(); }

  /// Graceful drain through the protocol; returns the server's VmHWM (MiB)
  /// read just before the shutdown command.
  double shutdown() {
    double rss = 0.0;
    client.reset();
    if (server && server->running()) {
      rss = peak_rss_mb(server->pid());
      if (control_fd >= 0) {
        try {
          (void)control(control_fd, "{\"cmd\":\"shutdown\"}");
        } catch (const std::exception&) {
        }
      }
      if (!server->wait_exit(10.0)) server->kill();
    }
    if (control_fd >= 0) ::close(control_fd);
    control_fd = -1;
    server.reset();
    if (!socket.empty()) ::unlink(socket.c_str());
    return rss;
  }
};

struct Plan {
  bool fresh = false;
  double rate = 0.0;
  double warmup_s = 0.0;
  double nominal_s = 0.0;
  double closed_s = 0.0;
  std::size_t nominal_count = 0;
  std::size_t jobs = 0;
  std::size_t max_requests = 0;
};

Plan make_plan(const RunConfig& cfg, bool fresh) {
  Plan p;
  p.fresh = fresh;
  p.rate = cfg.smoke ? 50.0 : (fresh ? kNominalRateFresh : kNominalRateRepeat);
  p.warmup_s = cfg.smoke ? 0.2 : 1.0;
  p.nominal_s = cfg.seconds * kNominalShare;
  p.closed_s = cfg.seconds - p.nominal_s;
  p.nominal_count = static_cast<std::size_t>(std::lround(p.rate * p.nominal_s));
  const auto warm_count = static_cast<std::size_t>(std::lround(p.rate * p.warmup_s));
  // Fresh: distinct graphs for the warm-up, the nominal step and the
  // nominal rate over the closed-loop step; beyond that the closed loop
  // cycles the pool, which is far larger than the server's 64-entry context
  // cache, so a recycled graph still misses.
  p.jobs = fresh ? warm_count + p.nominal_count +
                       static_cast<std::size_t>(std::lround(p.rate * p.closed_s))
                 : (cfg.smoke ? 8 : kRepeatJobs);
  p.max_requests = warm_count + p.nominal_count + 200000;
  return p;
}

/// Request order: serve-fresh walks its seeded pool in order; serve-repeat
/// draws from the fixed job catalogue with 80-20 popularity (the first 20%
/// of the catalogue is hot), after one request per job at the start of the
/// warm-up.
std::vector<std::size_t> make_sequence(const Plan& plan, std::uint64_t seed) {
  std::vector<std::size_t> seq;
  if (plan.fresh) {
    for (std::size_t j = 0; j < plan.jobs; ++j) seq.push_back(j);
    return seq;
  }
  for (std::size_t j = 0; j < plan.jobs; ++j) seq.push_back(j);
  Rng rng(seeded(seed));
  const auto hot = std::max<std::size_t>(1, static_cast<std::size_t>(kHotJobs * plan.jobs));
  while (seq.size() < plan.max_requests) {
    seq.push_back(rng.bernoulli(kHotShare) ? rng.index(hot) : hot + rng.index(plan.jobs - hot));
  }
  return seq;
}

std::vector<graph::StreamGraph> generate_jobs(const Plan& plan, std::uint64_t seed) {
  // Chunks generate in parallel; each chunk's graphs depend only on the
  // seed and the chunk index.
  constexpr std::size_t kChunk = 64;
  const gen::GeneratorConfig gcfg = gen::setting_config(gen::Setting::Medium);
  const std::size_t chunks = (plan.jobs + kChunk - 1) / kChunk;
  std::vector<std::vector<graph::StreamGraph>> parts(chunks);
  ThreadPool::global().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t n = std::min(kChunk, plan.jobs - c * kChunk);
    parts[c] = gen::generate_graphs(gcfg, n, seed * 1000003ULL + c, "job");
  });
  std::vector<graph::StreamGraph> out;
  out.reserve(plan.jobs);
  for (auto& part : parts) {
    for (auto& g : part) out.push_back(std::move(g));
  }
  return out;
}

std::unique_ptr<ServeSetup> make_setup(const RunConfig& cfg, const Plan& plan, int instance) {
  auto s = std::make_unique<ServeSetup>();
  const auto t0 = Clock::now();
  s->graphs = generate_jobs(plan, plan.fresh ? seeded(cfg.seed) : kCatalogueSeed + 1);
  s->pool.bodies.resize(s->graphs.size());
  ThreadPool::global().parallel_for(s->graphs.size(), [&](std::size_t j) {
    std::string line = serve::write_alloc_request(0, s->graphs[j]);
    s->pool.bodies[j] = line.substr(std::strlen("{\"id\":0")) + "\n";
  });
  s->pool.sequence = make_sequence(plan, cfg.seed);
  s->generate_s = seconds_since(t0);

  // The served model: the library's default policy initialisation, which
  // coarsens lightly, as trained policies do (EXPERIMENTS.md, deviation 2),
  // so every request still pays for a full multilevel partition.
  s->checkpoint = cfg.workdir + "/serve-model.ckpt";
  gnn::CoarseningPolicy(gnn::PolicyConfig{}).save(s->checkpoint);

  s->socket = cfg.workdir + "/serve-" + std::to_string(::getpid()) + "-" +
              std::to_string(instance) + ".sock";
  ::unlink(s->socket.c_str());
  s->server = std::make_unique<ServerProcess>(
      SC_BENCH_SERVE_BIN,
      std::vector<std::string>{"--model", s->checkpoint, "--socket", s->socket, "--placer",
                               "metis", "--workers", std::to_string(kServerWorkers),
                               "--threads", std::to_string(kServerThreads), "--setting",
                               "medium"},
      cfg.workdir + "/serve.log");
  const auto t_spawn = Clock::now();
  while ((s->control_fd = connect_unix(s->socket)) < 0) {
    SC_CHECK(s->server->running(), "sc_serve exited during start-up (see "
                                       << cfg.workdir << "/serve.log)");
    SC_CHECK(seconds_since(t_spawn) < 30.0, "sc_serve did not start within 30 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  s->client = std::make_unique<Client>(s->socket, s->pool, plan.max_requests);

  // Warm-up: one request per repeat job, then the nominal rate; drained.
  const auto warm = static_cast<std::size_t>(std::lround(plan.rate * plan.warmup_s));
  s->client->open_loop(plan.rate, plan.fresh ? warm : plan.jobs + warm, nullptr);
  SC_CHECK(s->client->drain(30.0), "warm-up requests unanswered");
  return s;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Window {
  Nanos nominal_start_ns = 0;
  std::uint64_t nominal_first = 0, nominal_end = 0;  ///< ids [first, end)
  std::uint64_t closed_first = 0, closed_end = 0;
  Nanos closed_start_ns = 0, closed_deadline_ns = 0;
  std::size_t backlog_max = 0;
  double nominal_wall_s = 0.0;
  double server_cpu_s = 0.0;
  ServeCounters before, after;
  bool drained = true;
};

/// One second of the nominal step; a traced run polls the stats endpoint
/// at the start of every odd slot only, so requests sent in even slots
/// measure the step without tracing work (trace_overhead compares them).
constexpr Nanos kSlotNs = 1'000'000'000;

bool traced_slot(const Window& w, Nanos t) { return ((t - w.nominal_start_ns) / kSlotNs) % 2 == 1; }

Window measure(ServeSetup& s, const Plan& plan, bool traced) {
  Window w;
  Client& client = *s.client;
  w.before = parse_serve_stats(control(s.control_fd, "{\"cmd\":\"stats\"}"));
  const double cpu0 = child_cpu_seconds(s.server->pid());
  const auto t0 = Clock::now();
  w.nominal_start_ns = nanos_since_start(t0);
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    w.nominal_first = client.open_loop(plan.rate, plan.nominal_count, &w.backlog_max);
    sending.store(false, std::memory_order_release);
  });
  // While tracing, the main thread feeds the Chrome counter events from
  // the stats endpoint and the client backlog; otherwise it just waits.
  Nanos polled = -1;
  while (sending.load(std::memory_order_acquire)) {
    const Nanos now = now_ns();
    const Nanos slot = (now - w.nominal_start_ns) / kSlotNs;
    if (traced && traced_slot(w, now) && slot != polled) {
      polled = slot;
      const ServeCounters c = parse_serve_stats(control(s.control_fd, "{\"cmd\":\"stats\"}"));
      trace::counter("serve.completed", c.completed);
      trace::counter("serve.batches", c.batches);
      trace::counter("client.backlog", static_cast<double>(client.sent() - client.answered()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sender.join();
  w.nominal_end = w.nominal_first + plan.nominal_count;
  w.drained = client.drain(30.0);
  w.nominal_wall_s = seconds_since(t0);
  w.server_cpu_s = child_cpu_seconds(s.server->pid()) - cpu0;
  w.after = parse_serve_stats(control(s.control_fd, "{\"cmd\":\"stats\"}"));

  const auto c0 = Clock::now();
  const auto deadline = c0 + std::chrono::nanoseconds(static_cast<Nanos>(plan.closed_s * 1e9));
  w.closed_start_ns = nanos_since_start(c0);
  w.closed_deadline_ns = nanos_since_start(deadline);
  w.closed_first = client.closed_loop(deadline);
  w.drained = client.drain(30.0) && w.drained;
  w.closed_end = client.sent() + 1;
  return w;
}

struct Parsed {
  bool ok = false;
  double relative = 0.0;
  double latency_us = 0.0;
  sim::Placement placement;
};

Parsed parse_response(const std::string& line) {
  Parsed p;
  if (line.empty()) return p;
  const serve::JsonValue doc = serve::parse_json(line);
  p.ok = doc.bool_or("ok", false);
  p.relative = doc.number_or("relative", 0.0);
  p.latency_us = doc.number_or("latency_us", 0.0);
  if (const serve::JsonValue* pl = doc.find("placement")) {
    for (const serve::JsonValue& v : pl->array) p.placement.push_back(static_cast<int>(v.number));
  }
  return p;
}

/// The per-layer probes of the serving path, on the workload's own request
/// lines: parse, fingerprint, context build, no-grad forward, contract and
/// simulate per graph, and one batched forward over 16 graphs.
void run_probes(const ServeSetup& s, const gnn::CoarseningPolicy& policy, WorkloadResult& r) {
  const sim::ClusterSpec spec = medium_spec();
  const std::size_t n = std::min<std::size_t>(s.pool.bodies.size(), 32);
  std::vector<std::unique_ptr<serve::AllocRequest>> reqs;
  std::vector<std::unique_ptr<rl::GraphContext>> ctxs;
  const rl::CoarsePlacer placer = rl::metis_placer();
  nn::NoGradGuard no_grad;
  for (int round = 0; round < 3; ++round) {
    reqs.clear();
    ctxs.clear();
    for (std::size_t j = 0; j < n; ++j) {
      const std::string line = request_line(s.pool, j);
      {
        Span span("probe.serve.parse");
        reqs.push_back(std::make_unique<serve::AllocRequest>(
            serve::parse_request_line(line, spec).request));
      }
      {
        Span span("probe.serve.fingerprint");
        (void)serve::fingerprint(reqs.back()->graph, reqs.back()->spec);
      }
      {
        Span span("probe.rl.context_build");
        ctxs.push_back(std::make_unique<rl::GraphContext>(reqs.back()->graph, reqs.back()->spec));
      }
      const rl::GraphContext& ctx = *ctxs.back();
      nn::Tensor logits;
      {
        Span span("probe.gnn.forward");
        logits = policy.logits(ctx.features);
      }
      const gnn::EdgeMask mask = policy.greedy(logits.value());
      graph::Coarsening storage;
      const graph::Coarsening* coarse = nullptr;
      {
        Span span("probe.graph.contract");
        coarse = &rl::contract_mask(ctx, mask, storage);
      }
      const sim::Placement p = placer(*coarse, ctx.simulator);
      Span span("probe.sim.simulate");
      (void)ctx.simulator.relative_throughput(p);
    }
    std::vector<const gnn::GraphFeatures*> parts;
    for (std::size_t j = 0; j < std::min<std::size_t>(ctxs.size(), 16); ++j) {
      parts.push_back(&ctxs[j]->features);
    }
    Span span("probe.gnn.forward_batch");
    const gnn::BatchedGraphFeatures b = gnn::batch_features(parts);
    (void)policy.logits(b.merged);
  }
  add_probe_metrics(r);
}


/// What the client saw in one measured window, checked against the
/// program's outputs.
struct Analysis {
  std::vector<double> latency_ms, service_ms, transport_ms, lag_ms;
  std::vector<double> traced_slot_ms, plain_slot_ms;  ///< latency by slot kind
  double relative_sum = 0.0, cut_sum = 0.0;
  std::size_t ok = 0;
  double capacity_rps = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t placement_hash = 1469598103934665603ULL;
};

/// Checks every response (a job gets the same placement every time it is
/// asked; `job_hash` carries that across windows) and recomputes every
/// kVerifyEvery-th nominal request in-process from the same checkpoint: the
/// placement through rl::allocate_with_policy must match exactly, the
/// relative throughput through a fresh FluidSimulator to 1e-12 after the
/// JSON round trip.
Analysis analyze(const ServeSetup& s, const Window& w, const gnn::CoarseningPolicy& policy,
                 std::unordered_map<std::size_t, std::uint64_t>& job_hash, WorkloadResult& r) {
  Analysis a;
  const Client& client = *s.client;
  const sim::ClusterSpec spec = medium_spec();
  const rl::CoarsePlacer placer = rl::metis_placer();
  std::size_t hashed = 0;
  const auto check_placement = [&](const Parsed& p, std::size_t job) {
    if (p.placement.size() != s.graphs[job].num_nodes()) return false;
    for (const int d : p.placement) {
      if (d < 0 || static_cast<std::size_t>(d) >= spec.num_devices) return false;
    }
    const std::uint64_t h = fnv_labels(p.placement);
    return job_hash.emplace(job, h).first->second == h;
  };
  for (std::uint64_t id = w.nominal_first; id < w.nominal_end; ++id) {
    const Slot& slot = client.slot(id);
    ++a.attempted;
    const Parsed p = parse_response(slot.response);
    if (slot.recv_ns == 0 || !p.ok) {
      ++a.failed;
      continue;
    }
    r.check(check_placement(p, slot.job), "bad placement in response " + std::to_string(id));
    const double latency = static_cast<double>(slot.recv_ns - slot.scheduled_ns) / 1e6;
    a.latency_ms.push_back(latency);
    (traced_slot(w, slot.scheduled_ns) ? a.traced_slot_ms : a.plain_slot_ms).push_back(latency);
    a.service_ms.push_back(p.latency_us / 1e3);
    a.transport_ms.push_back(latency - p.latency_us / 1e3);
    a.lag_ms.push_back(static_cast<double>(slot.sent_ns - slot.scheduled_ns) / 1e6);
    a.relative_sum += p.relative;
    const graph::StreamGraph& g = s.graphs[slot.job];
    a.cut_sum += cut_fraction(g, graph::compute_load_profile(g), p.placement);
    ++a.ok;
    if (hashed < 256) {
      a.placement_hash = fnv_labels(p.placement, a.placement_hash);
      ++hashed;
    }
    if ((id - w.nominal_first) % kVerifyEvery != 0) continue;
    const serve::ParsedMessage msg =
        serve::parse_request_line(request_line(s.pool, slot.job), spec);
    const rl::GraphContext ctx(msg.request.graph, msg.request.spec);
    const sim::Placement mine = rl::allocate_with_policy(policy, ctx, placer);
    r.check(mine == p.placement, "served placement differs from the in-process one (request " +
                                     std::to_string(id) + ")");
    const double rel = ctx.simulator.relative_throughput(mine);
    r.check(std::abs(rel - p.relative) <= 1e-12,
            "served relative throughput differs from the in-process one (request " +
                std::to_string(id) + ")");
  }
  // Capacity: responses per second in each 0.5 s bin of the closed-loop
  // step, median over the bins, so one host stall costs one bin.
  constexpr Nanos kBinNs = 500'000'000;
  const auto bins = static_cast<std::size_t>(
      std::max<Nanos>(1, (w.closed_deadline_ns - w.closed_start_ns) / kBinNs));
  std::vector<double> per_bin(bins, 0.0);
  for (std::uint64_t id = w.closed_first; id < w.closed_end; ++id) {
    const Slot& slot = client.slot(id);
    ++a.attempted;
    const Parsed p = parse_response(slot.response);
    if (slot.recv_ns == 0 || !p.ok) {
      ++a.failed;
      continue;
    }
    r.check(check_placement(p, slot.job), "bad placement in response " + std::to_string(id));
    const Nanos offset = slot.recv_ns - w.closed_start_ns;
    if (offset >= 0 && offset < static_cast<Nanos>(bins) * kBinNs) {
      per_bin[static_cast<std::size_t>(offset / kBinNs)] += 1e9 / static_cast<double>(kBinNs);
    }
  }
  a.capacity_rps = median(per_bin);
  r.check(w.drained, "requests left unanswered 30 s after the window");
  r.check(a.ok > 0, "no successful request in the nominal step");
  return a;
}

/// Requests per part of robust_p99: its p99 is then the second-largest
/// latency of the part.
constexpr std::size_t kTailPartRequests = 125;

/// p99 of consecutive parts of the nominal step (in send order), each of at
/// least kTailPartRequests requests (24 parts on serve-fresh, 57 on
/// serve-repeat at --seconds 15); then the median over the parts. A stall of
/// tens of milliseconds (a few per run, at random moments, more on a busy
/// host) delays a burst of requests that lands in one part, so it moves that
/// part's p99 and not the result unless half the parts hold one.
double robust_p99(const std::vector<double>& latency_ms) {
  const std::size_t n = latency_ms.size();
  const std::size_t parts = std::max<std::size_t>(n / kTailPartRequests, 1);
  const auto at = [&](std::size_t k) {
    return latency_ms.begin() + static_cast<std::ptrdiff_t>(k * n / parts);
  };
  std::vector<double> p99s;
  for (std::size_t k = 0; k < parts; ++k) {
    p99s.push_back(percentile(std::vector<double>(at(k), at(k + 1)), 0.99));
  }
  return median(p99s);
}

/// Client-side request spans for the trace: "serve.request" from the
/// scheduled send to the response, with the server-reported service time
/// as its child, both keyed by request id. Lanes keep spans on one track
/// from overlapping.
void record_request_spans(const ServeSetup& s, const Window& w) {
  std::vector<Nanos> lane_end;
  for (std::uint64_t id = w.nominal_first; id < w.nominal_end; ++id) {
    const Slot& slot = s.client->slot(id);
    const Parsed p = parse_response(slot.response);
    if (slot.recv_ns == 0 || !p.ok) continue;
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > slot.scheduled_ns) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = slot.recv_ns;
    const auto tid = static_cast<std::uint32_t>(1000 + lane);
    const std::uint64_t span_id = trace::next_id();
    const auto service_ns = static_cast<Nanos>(p.latency_us * 1e3);
    trace::record({"serve.request", span_id, 0, id, slot.scheduled_ns,
                   slot.recv_ns - slot.scheduled_ns, tid});
    trace::record({"serve.service", trace::next_id(), span_id, id,
                   std::max(slot.scheduled_ns, slot.recv_ns - service_ns),
                   std::min(service_ns, slot.recv_ns - slot.scheduled_ns), tid});
  }
}

}  // namespace

WorkloadResult run_serve(const RunConfig& cfg, bool fresh) {
  WorkloadResult r;
  const Plan plan = make_plan(cfg, fresh);
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> setup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = make_setup(cfg, plan, k);
    setup_s.push_back(seconds_since(t0));
  }
  gnn::CoarseningPolicy policy{gnn::PolicyConfig{}};
  policy.load(setup->checkpoint);

  std::unordered_map<std::size_t, std::uint64_t> job_hash;
  trace::record_spans(cfg.trace);
  const Window w = measure(*setup, plan, cfg.trace);
  const Analysis a = analyze(*setup, w, policy, job_hash, r);
  if (cfg.trace) record_request_spans(*setup, w);
  const double rss = setup->shutdown();
  r.attempted = a.attempted;
  r.failed = a.failed;
  r.check(r.failed == 0, std::to_string(r.failed) + " requests shed, failed or unanswered");
  r.hashes["placements"] = hex64(a.placement_hash);

  const double p50 = percentile(a.latency_ms, 0.5);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("throughput", a.capacity_rps, "1/s");
  r.e2e("p50_ms", p50, "ms");
  r.e2e("p99_ms", robust_p99(a.latency_ms), "ms");
  r.e2e("peak_rss_mb", rss, "MiB");
  r.e2e("mean_relative", a.ok > 0 ? a.relative_sum / static_cast<double>(a.ok) : 0.0, "ratio");
  r.e2e("cut_fraction", a.ok > 0 ? a.cut_sum / static_cast<double>(a.ok) : 0.0, "ratio");
  if (!cfg.trace) return r;

  run_probes(*setup, policy, r);
  trace::record_spans(false);

  r.layer("trace_overhead",
          trace_overhead(percentile(a.plain_slot_ms, 0.5), percentile(a.traced_slot_ms, 0.5),
                         /*higher_is_better=*/false),
          "ratio");
  r.layer("gen.generate_s", setup->generate_s, "s");
  r.layer("serve.service_p50_ms", percentile(a.service_ms, 0.5), "ms");
  r.layer("serve.transport_p50_ms", percentile(a.transport_ms, 0.5), "ms");
  r.layer("serve.backlog_max", static_cast<double>(w.backlog_max), "count");
  r.layer("serve.server_cpu_util",
          w.server_cpu_s / (w.nominal_wall_s * static_cast<double>(available_cpus())), "ratio");
  r.layer("serve.generator_lag_p99_ms", percentile(a.lag_ms, 0.99), "ms");
  add_serve_counter_deltas(r, w.before, w.after);
  return r;
}

}  // namespace sc::bench
