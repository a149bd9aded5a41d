// streamcover_serve — long-lived coverage service over the solver and
// workload registries.
//
// Serves the line-delimited JSON protocol (src/serve/protocol.h) on
// stdin/stdout by default, or on a TCP listen socket with --port. Both
// front ends feed the same CoverageServer core: bounded queue, worker
// pool, per-request deadlines, latency histograms. SIGINT/SIGTERM
// drain gracefully: in-flight and queued requests finish, new work is
// rejected with `shutting_down`, then the process exits 0.
//
// Examples:
//   echo '{"op":"solve","instance":"planted:n=2000,m=4000,k=20",
//          "solver":"iter","deadline_ms":5000}' | streamcover_serve
//   streamcover_serve --port 7070 --workers 8 --queue 128 \
//       --preload planted:n=2000,m=4000,k=20 &
//   printf '{"op":"stats"}\n' | nc -q1 127.0.0.1 7070

#include <arpa/inet.h>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace streamcover {
namespace {

// ---------------------------------------------------------------------
// Signal plumbing: handlers only write one byte into a self-pipe; the
// front-end poll loops wake on it and start the drain. Async-signal-safe
// by construction.

int g_signal_pipe[2] = {-1, -1};
std::atomic<bool> g_stop_requested{false};

void OnStopSignal(int /*signo*/) {
  g_stop_requested.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

bool InstallSignalHandlers() {
  if (::pipe(g_signal_pipe) != 0) return false;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnStopSignal;
  ::sigemptyset(&sa.sa_mask);
  return ::sigaction(SIGINT, &sa, nullptr) == 0 &&
         ::sigaction(SIGTERM, &sa, nullptr) == 0;
}

// ---------------------------------------------------------------------
// Flags

struct ServeArgs {
  ServerOptions server;
  int port = -1;  // -1 = stdio mode
  std::vector<std::string> preload;
  bool ok = true;
};

void Usage(FILE* out) {
  std::fprintf(out,
               "usage: streamcover_serve [options]\n"
               "  --port N                TCP listen port on 127.0.0.1 "
               "(default: serve stdin/stdout)\n"
               "  --workers N             solver worker threads "
               "(default 4)\n"
               "  --queue N               bounded request queue capacity "
               "(default 64)\n"
               "  --cache-bytes N         instance cache byte budget "
               "(default 0 = unlimited)\n"
               "  --default-deadline-ms N deadline for requests that "
               "carry none (default 0 = none)\n"
               "  --preload NAME          load an instance before "
               "serving (repeatable)\n");
}

bool ParseInt64Flag(const char* text, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

ServeArgs ParseArgs(int argc, char** argv) {
  ServeArgs args;
  auto bad = [&args](const std::string& message) {
    std::fprintf(stderr, "streamcover_serve: %s\n", message.c_str());
    Usage(stderr);
    args.ok = false;
  };
  for (int i = 1; i < argc && args.ok; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        bad("flag " + flag + " needs a value");
        return nullptr;
      }
      return argv[++i];
    };
    int64_t value = 0;
    if (flag == "--help" || flag == "-h") {
      Usage(stdout);
      std::exit(0);
    } else if (flag == "--port") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInt64Flag(v, &value) || value < 1 || value > 65535) {
        bad("--port must be in [1, 65535]");
        break;
      }
      args.port = static_cast<int>(value);
    } else if (flag == "--workers") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInt64Flag(v, &value) || value < 1 || value > 256) {
        bad("--workers must be in [1, 256]");
        break;
      }
      args.server.workers = static_cast<uint32_t>(value);
    } else if (flag == "--queue") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInt64Flag(v, &value) || value < 1 || value > 1000000) {
        bad("--queue must be in [1, 1000000]");
        break;
      }
      args.server.queue_capacity = static_cast<size_t>(value);
    } else if (flag == "--cache-bytes") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInt64Flag(v, &value) || value < 0) {
        bad("--cache-bytes must be >= 0");
        break;
      }
      args.server.cache_bytes = static_cast<uint64_t>(value);
    } else if (flag == "--default-deadline-ms") {
      const char* v = next();
      if (v == nullptr) break;
      if (!ParseInt64Flag(v, &value) || value < 0) {
        bad("--default-deadline-ms must be >= 0");
        break;
      }
      args.server.default_deadline_ms = value;
    } else if (flag == "--preload") {
      const char* v = next();
      if (v == nullptr) break;
      args.preload.emplace_back(v);
    } else {
      bad("unknown flag " + flag);
    }
  }
  return args;
}

// ---------------------------------------------------------------------
// Line framing shared by both front ends: append a read chunk, peel off
// complete lines. `buffer` never holds a newline between calls, so the
// search starts at the new bytes and a long line costs one pass over
// them, not one per chunk. End of input (n <= 0) terminates a final
// line that has no newline. Returns false at end of input.

bool FeedLines(const char* chunk, ssize_t n, std::string& buffer,
               CoverageServer& server,
               const CoverageServer::Responder& respond) {
  size_t start = 0;
  size_t from = buffer.size();
  buffer.append(n > 0 ? std::string_view(chunk, static_cast<size_t>(n))
                      : std::string_view("\n"));
  for (;;) {
    const size_t nl = buffer.find('\n', from);
    if (nl == std::string::npos) break;
    std::string line = buffer.substr(start, nl - start);
    start = from = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    server.HandleLine(line, respond);
  }
  buffer.erase(0, start);
  return n > 0;
}

// ---------------------------------------------------------------------
// stdio front end

int ServeStdio(CoverageServer& server) {
  std::mutex write_mu;
  CoverageServer::Responder respond =
      [&write_mu](const std::string& line) {
        std::lock_guard<std::mutex> lock(write_mu);
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
      };
  std::string buffer;
  char chunk[4096];
  while (!g_stop_requested.load(std::memory_order_relaxed)) {
    struct pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0},
                            {g_signal_pipe[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // signal: drain below
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
    // EOF (or error): drain below.
    if (!FeedLines(chunk, n, buffer, server, respond)) break;
  }
  server.Shutdown();
  return 0;
}

// ---------------------------------------------------------------------
// TCP front end: accept loop + one reader thread per connection.

struct Connection {
  int fd = -1;
  std::mutex write_mu;
};

void ServeConnection(std::shared_ptr<Connection> conn,
                     CoverageServer* server) {
  CoverageServer::Responder respond =
      [conn](const std::string& line) {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        std::string framed = line + "\n";
        size_t sent = 0;
        while (sent < framed.size()) {
          const ssize_t n = ::send(conn->fd, framed.data() + sent,
                                   framed.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) break;  // peer went away; nothing to report to
          sent += static_cast<size_t>(n);
        }
      };
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (!FeedLines(chunk, n, buffer, *server, respond)) break;
  }
}

int ServeTcp(CoverageServer& server, int port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("streamcover_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    std::perror("streamcover_serve: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "streamcover_serve: listening on 127.0.0.1:%d\n",
               port);

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;

  while (!g_stop_requested.load(std::memory_order_relaxed)) {
    struct pollfd fds[2] = {{listen_fd, POLLIN, 0},
                            {g_signal_pipe[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // signal: drain below
    if (fds[0].revents == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = conn_fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(conn);
      readers.emplace_back(ServeConnection, conn, &server);
    }
  }
  ::close(listen_fd);
  // Finish admitted work, then unblock every connection reader.
  server.Shutdown();
  {
    std::lock_guard<std::mutex> lock(conns_mu);
    for (const auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& reader : readers) reader.join();
  for (const auto& conn : conns) ::close(conn->fd);
  std::fprintf(stderr, "streamcover_serve: drained, exiting\n");
  return 0;
}

int Main(int argc, char** argv) {
  ServeArgs args = ParseArgs(argc, argv);
  if (!args.ok) return 2;
  if (!InstallSignalHandlers()) {
    std::fprintf(stderr,
                 "streamcover_serve: cannot install signal handlers\n");
    return 1;
  }
  CoverageServer server(args.server);
  for (const std::string& name : args.preload) {
    std::string error;
    if (server.Preload(name, &error)) {
      std::fprintf(stderr, "streamcover_serve: preloaded %s\n",
                   name.c_str());
    } else {
      std::fprintf(stderr,
                   "streamcover_serve: preload of %s failed: %s\n",
                   name.c_str(), error.c_str());
    }
  }
  server.Start();
  if (args.port < 0) return ServeStdio(server);
  return ServeTcp(server, args.port);
}

}  // namespace
}  // namespace streamcover

int main(int argc, char** argv) {
  return streamcover::Main(argc, argv);
}
