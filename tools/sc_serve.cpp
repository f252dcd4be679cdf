// sc_serve — long-running allocation server (and line-protocol client).
//
// Server: loads a trained policy once and answers allocation requests over a
// newline-delimited JSON protocol (src/serve/protocol.hpp) on a Unix or TCP
// socket. Requests flow through the AllocationService pipeline: bounded
// admission queue (full queue = fail-loud shed), cross-request batched
// encoder forwards, per-worker retained scratch, shared context/episode
// caches, graceful drain on shutdown.
//
//   sc_serve --model m.ckpt [--socket /tmp/sc_serve.sock | --port 7777]
//            [--workers N] [--queue-depth N] [--max-batch N]
//            [--batch-window-us N] [--best-of-cap K]
//            [--placer metis|oracle|coarsen-only] [--setting medium]
//            [--threads N]
//
// --max-batch 1 serves every request in its own encoder forward; results
// are the same at any batch size.
//
// Request parallelism comes from --workers: each worker runs its whole
// request on its own thread and never fans out to the thread pool (DESIGN.md
// §8). --threads N only sizes the process-wide pool, which no server worker
// uses; it is accepted like in every other tool.
//
// Client (used by tests/tools_smoke.sh, handy interactively):
//
//   sc_serve --connect /tmp/sc_serve.sock --data graphs.txt [--best-of K]
//   sc_serve --connect 127.0.0.1:7777 --stats
//   sc_serve --connect /tmp/sc_serve.sock --shutdown
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "graph/io.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "tool_common.hpp"

namespace {

int g_listen_fd = -1;
std::atomic<bool> g_shutdown{false};

extern "C" void handle_signal(int) {
  // Async-signal-safe: flag the accept loop and kick it out of accept().
  g_shutdown.store(true);
  if (g_listen_fd >= 0) ::shutdown(g_listen_fd, SHUT_RDWR);
}

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection's write side, shared with in-flight response callbacks so
/// the fd stays open until the last response for this connection lands.
struct ConnState {
  explicit ConnState(int fd) : fd(fd) {}
  ~ConnState() {
    if (fd >= 0) ::close(fd);
  }

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    std::string out = line;
    out.push_back('\n');
    (void)write_all(fd, out.data(), out.size());  // peer gone: drop silently
  }

  const int fd;
  std::mutex write_mutex;
};

/// Buffered line reader over a socket fd.
class LineReader {
public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool next(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  int fd_;
  std::string buf_;
};

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SC_CHECK(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SC_CHECK(path.size() < sizeof(addr.sun_path), "socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  SC_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
           "bind(" << path << ") failed: " << std::strerror(errno));
  SC_CHECK(::listen(fd, 64) == 0, "listen failed: " << std::strerror(errno));
  return fd;
}

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SC_CHECK(fd >= 0, "socket(AF_INET) failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  SC_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
           "bind(127.0.0.1:" << port << ") failed: " << std::strerror(errno));
  SC_CHECK(::listen(fd, 64) == 0, "listen failed: " << std::strerror(errno));
  return fd;
}

int connect_to(const std::string& target) {
  const auto colon = target.rfind(':');
  const bool tcp = colon != std::string::npos &&
                   target.find('/') == std::string::npos && colon + 1 < target.size();
  if (tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SC_CHECK(fd >= 0, "socket failed: " << std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(std::stoi(target.substr(colon + 1))));
    const std::string host = target.substr(0, colon);
    SC_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "cannot parse host '" << host << "' (use a numeric IP)");
    SC_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
             "connect(" << target << ") failed: " << std::strerror(errno));
    return fd;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SC_CHECK(fd >= 0, "socket failed: " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SC_CHECK(target.size() < sizeof(addr.sun_path), "socket path too long: " << target);
  std::strncpy(addr.sun_path, target.c_str(), sizeof(addr.sun_path) - 1);
  SC_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
           "connect(" << target << ") failed: " << std::strerror(errno));
  return fd;
}

void serve_connection(std::shared_ptr<ConnState> conn, sc::serve::AllocationService& service,
                      const sc::sim::ClusterSpec& default_spec, std::size_t best_of_cap) {
  using namespace sc;
  LineReader reader(conn->fd);
  std::string line;
  while (!g_shutdown.load(std::memory_order_relaxed) && reader.next(line)) {
    if (line.empty()) continue;
    serve::ParsedMessage msg;
    try {
      msg = serve::parse_request_line(line, default_spec);
    } catch (const std::exception& e) {
      serve::AllocResponse err;
      err.status = serve::ResponseStatus::Error;
      err.error = e.what();
      conn->write_line(serve::write_response(err));
      continue;
    }
    if (msg.kind == serve::MessageKind::Stats) {
      conn->write_line(serve::write_stats(service.stats()));
      continue;
    }
    if (msg.kind == serve::MessageKind::Shutdown) {
      conn->write_line("{\"ok\":true,\"shutdown\":true}");
      g_shutdown.store(true);
      if (g_listen_fd >= 0) ::shutdown(g_listen_fd, SHUT_RDWR);
      break;
    }
    // Cap best_of server-side: a client asking for a huge k must not pin a
    // worker for unbounded simulation time.
    msg.request.best_of = std::min(msg.request.best_of, best_of_cap);
    const std::uint64_t id = msg.request.id;
    const bool admitted = service.submit(
        std::move(msg.request),
        [conn](serve::AllocResponse res) { conn->write_line(serve::write_response(res)); });
    if (!admitted) {
      serve::AllocResponse shed;
      shed.id = id;
      shed.status = serve::ResponseStatus::Shed;
      shed.error = "queue full (shed)";
      conn->write_line(serve::write_response(shed));
    }
  }
}

int run_server(const sc::Flags& flags) {
  using namespace sc;
  SC_CHECK(flags.has("model"), "--model is required in server mode");

  core::CoarsenPartitionFramework fw;
  fw.load(flags.get_string("model", ""));
  const std::string placer_name = flags.get_string("placer", "metis");
  rl::CoarsePlacer placer;
  if (placer_name == "metis") {
    placer = rl::metis_placer();
  } else if (placer_name == "oracle") {
    placer = rl::metis_oracle_placer();
  } else if (placer_name == "coarsen-only") {
    placer = rl::coarsen_only_placer();
  } else {
    SC_CHECK(false, "unknown placer '" << placer_name << "' (metis|oracle|coarsen-only)");
  }

  serve::ServeConfig cfg;
  cfg.workers = static_cast<std::size_t>(flags.get_int("workers", 1));
  SC_CHECK(cfg.workers > 0, "server mode needs at least one worker");
  cfg.queue_depth = static_cast<std::size_t>(flags.get_int("queue-depth", 256));
  cfg.max_batch = static_cast<std::size_t>(flags.get_int("max-batch", 16));
  cfg.batch_window_us = static_cast<std::size_t>(flags.get_int("batch-window-us", 200));
  const auto best_of_cap = static_cast<std::size_t>(flags.get_int("best-of-cap", 64));
  const sim::ClusterSpec default_spec = tools::spec_from_flags(flags);

  serve::AllocationService service(std::move(fw.policy()), placer, cfg);

  std::string endpoint;
  if (flags.has("port")) {
    const int port = static_cast<int>(flags.get_int("port", 0));
    g_listen_fd = listen_tcp(port);
    endpoint = "127.0.0.1:" + std::to_string(port);
  } else {
    endpoint = flags.get_string("socket", "/tmp/sc_serve.sock");
    g_listen_fd = listen_unix(endpoint);
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "sc_serve: listening on " << endpoint << " (workers=" << cfg.workers
            << ", queue=" << cfg.queue_depth << ", batch max=" << cfg.max_batch
            << " window=" << cfg.batch_window_us << "us)"
            << std::endl;

  std::vector<std::thread> conn_threads;
  for (;;) {
    const int cfd = ::accept(g_listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (g_shutdown.load()) break;
      if (errno == EINTR) continue;
      break;
    }
    auto conn = std::make_shared<ConnState>(cfd);
    conn_threads.emplace_back(
        [conn, &service, default_spec, best_of_cap]() mutable {
          serve_connection(std::move(conn), service, default_spec, best_of_cap);
        });
  }

  // Graceful drain: close admission, answer everything already accepted,
  // then tear down connections and the listener.
  service.stop();
  for (auto& t : conn_threads) {
    if (t.joinable()) t.join();
  }
  ::close(g_listen_fd);
  const auto s = service.stats();
  std::cout << "sc_serve: drained (accepted=" << s.accepted << ", completed=" << s.completed
            << ", shed=" << s.shed << ", errors=" << s.errors << ", batches=" << s.batches
            << ", max_batch=" << s.max_batch_observed << ")" << std::endl;
  return 0;
}

int run_client(const sc::Flags& flags) {
  using namespace sc;
  const int fd = connect_to(flags.get_string("connect", ""));
  const auto conn = std::make_shared<ConnState>(fd);
  LineReader reader(fd);
  std::string line;

  if (flags.get_bool("stats", false)) {
    conn->write_line("{\"cmd\":\"stats\"}");
    SC_CHECK(reader.next(line), "server closed connection before answering");
    std::cout << line << std::endl;
    return 0;
  }
  if (flags.get_bool("shutdown", false)) {
    conn->write_line("{\"cmd\":\"shutdown\"}");
    SC_CHECK(reader.next(line), "server closed connection before answering");
    std::cout << line << std::endl;
    return 0;
  }

  SC_CHECK(flags.has("data"), "client mode needs --data (or --stats / --shutdown)");
  const auto graphs = graph::load_graphs(flags.get_string("data", ""));
  SC_CHECK(!graphs.empty(), "dataset is empty");
  const auto best_of = static_cast<std::size_t>(flags.get_int("best-of", 0));
  const bool report = flags.get_bool("report", false);

  // Pipeline every request, then collect every response (ids disambiguate).
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    conn->write_line(serve::write_alloc_request(i + 1, graphs[i], best_of,
                                                flags.get_int("seed", 1), report));
  }
  std::size_t ok = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    SC_CHECK(reader.next(line), "server closed connection with "
                                    << (graphs.size() - i) << " responses outstanding");
    const serve::JsonValue doc = serve::parse_json(line);
    if (doc.bool_or("ok", false)) {
      ++ok;
      std::cout << "id " << doc.number_or("id", 0) << ": relative "
                << doc.number_or("relative", 0) << ", latency "
                << doc.number_or("latency_us", 0) << " us, batch "
                << doc.number_or("batch", 0) << '\n';
    } else {
      ++failed;
      const serve::JsonValue* err = doc.find("error");
      std::cout << "id " << doc.number_or("id", 0) << ": FAILED ("
                << (err != nullptr ? err->string : "unknown") << ")\n";
    }
  }
  std::cout << "sc_serve client: " << ok << "/" << graphs.size() << " ok, " << failed
            << " failed" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace sc;
  const Flags flags(argc, argv);
  flags.check_unknown(tools::known_flags(
      {"model", "socket", "port", "workers", "queue-depth", "max-batch",
       "batch-window-us", "best-of-cap", "placer", "connect", "data",
       "best-of", "seed", "report", "stats", "shutdown"}));
  configure_threads_from_flags(flags);
  tools::apply_validation_from_flags(flags);

  if (flags.has("connect")) return run_client(flags);
  if (!flags.has("model")) {
    tools::usage(
        "usage (server): sc_serve --model <ckpt> [--socket PATH | --port N]\n"
        "                [--workers N] [--queue-depth N] [--max-batch N]\n"
        "                [--batch-window-us N] [--best-of-cap K]\n"
        "                [--placer metis|oracle|coarsen-only] [--setting medium]\n"
        "usage (client): sc_serve --connect <path|host:port>\n"
        "                (--data graphs.txt [--best-of K] [--report] | --stats |\n"
        "                 --shutdown)\n");
  }
  return run_server(flags);
} catch (const std::exception& e) {
  std::cerr << "sc_serve: " << e.what() << '\n';
  return 1;
}
