// xia_server: the engine's network daemon. Builds or recovers a
// database, binds the framed wire protocol (src/net/), and serves
// queries, mutations, EXPLAIN, what-if advising, and metrics over TCP
// until SIGTERM/SIGINT, then drains gracefully (in-flight requests
// finish, the WAL is checkpointed) and exits 0.
//
//   $ xia_server --data-dir /var/lib/xia --demo tpox --port 4711
//   xia_server listening on 127.0.0.1:4711
//
// --port 0 (the default) picks a free ephemeral port; --port-file writes
// the resolved port for scripts/tests to pick up, so parallel runs never
// collide on a fixed port.

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "fault/fault.h"
#include "net/server.h"
#include "util/atomic_file.h"
#include "util/string_util.h"

namespace {

using namespace xia;  // NOLINT

// Signal handlers may only do async-signal-safe work: write one byte to
// this self-pipe; the main thread blocks on the read end and runs the
// actual (not signal-safe) shutdown.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int /*signum*/) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: xia_server [--host H] [--port P] [--port-file FILE]\n"
      "                  [--data-dir DIR] [--fsync always|interval|off]\n"
      "                  [--demo tpox|xmark] [--demo-scale small|full]\n"
      "                  [--max-connections N] [--max-inflight N]\n"
      "                  [--budget-ms MS] [--drain-timeout-s S]\n"
      "                  [--metrics-json FILE] [--metrics-interval-s S]\n"
      "                  [--follow HOST:PORT] [--follower-id ID]\n"
      "                  [--repl-checkpoint-every N]\n"
      "                  [--sync-replicas K] [--quorum-timeout-ms MS]\n"
      "                  [--follower-ttl-s S]\n"
      "  --port 0 (default) picks a free ephemeral port; --port-file\n"
      "  writes the resolved port so scripts can find the server.\n"
      "  --follow runs this node as a read replica of the leader at\n"
      "  HOST:PORT (requires --data-dir; mutations get read_only).\n"
      "  --sync-replicas K acks a mutation only after K replicas have\n"
      "  durably acked its LSN (kUnavailable on timeout, never a silent\n"
      "  downgrade); --follower-ttl-s prunes followers that stay\n"
      "  disconnected longer than S seconds from the quorum set.\n");
  return 2;
}

bool ParseCount(const char* text, size_t* out) {
  double v = 0;
  if (!ParseDouble(text, &v) || v < 0 ||
      v != static_cast<double>(static_cast<size_t>(v))) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (Status s = fault::FaultRegistry::Global().ConfigureFromEnv(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return StatusExitCode(s);
  }

  net::ServerOptions options;
  std::string port_file;
  std::string demo_scale = "full";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0;
    size_t n = 0;
    if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      if (!ParseCount(argv[++i], &n) || n > 65535) return Usage();
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--data-dir" && has_value) {
      options.data_dir = argv[++i];
    } else if (arg == "--fsync" && has_value) {
      options.fsync_policy = argv[++i];
    } else if (arg == "--demo" && has_value) {
      options.demo = argv[++i];
    } else if (arg == "--demo-scale" && has_value) {
      demo_scale = argv[++i];
    } else if (arg == "--max-connections" && has_value) {
      if (!ParseCount(argv[++i], &n) || n == 0) return Usage();
      options.max_connections = n;
    } else if (arg == "--max-inflight" && has_value) {
      if (!ParseCount(argv[++i], &n)) return Usage();
      options.max_inflight_requests = n;
    } else if (arg == "--budget-ms" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 0) return Usage();
      options.default_budget_ms = v;
    } else if (arg == "--drain-timeout-s" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 0) return Usage();
      options.drain_timeout_s = v;
    } else if (arg == "--metrics-json" && has_value) {
      options.metrics_json_path = argv[++i];
    } else if (arg == "--metrics-interval-s" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v <= 0) return Usage();
      options.metrics_interval_s = v;
    } else if (arg == "--follow" && has_value) {
      const std::string target = argv[++i];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos || colon + 1 >= target.size()) {
        return Usage();
      }
      if (!ParseCount(target.c_str() + colon + 1, &n) || n == 0 ||
          n > 65535) {
        return Usage();
      }
      options.follow_host = target.substr(0, colon);
      options.follow_port = static_cast<uint16_t>(n);
    } else if (arg == "--follower-id" && has_value) {
      options.follower_id = argv[++i];
    } else if (arg == "--repl-checkpoint-every" && has_value) {
      if (!ParseCount(argv[++i], &n)) return Usage();
      options.repl_checkpoint_every = n;
    } else if (arg == "--sync-replicas" && has_value) {
      if (!ParseCount(argv[++i], &n)) return Usage();
      options.sync_replicas = n;
    } else if (arg == "--quorum-timeout-ms" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v <= 0) return Usage();
      options.quorum_timeout_ms = v;
    } else if (arg == "--follower-ttl-s" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 0) return Usage();
      options.follower_ttl_s = v;
    } else {
      return Usage();
    }
  }
  if (demo_scale == "small") {
    // Loopback-test scale: big enough to exercise every code path,
    // small enough that ctest sessions start in milliseconds.
    options.demo_tpox_scale = tpox::TpoxScale{50, 100, 25, 42};
    options.demo_xmark_scale = tpox::XmarkScale{60, 60, 30, 7};
  } else if (demo_scale != "full") {
    return Usage();
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  net::Server server(options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return StatusExitCode(s);
  }
  if (!options.data_dir.empty()) {
    std::printf("%s: %s\n", options.data_dir.c_str(),
                server.recovery().ToString().c_str());
  }
  std::printf("xia_server listening on %s:%u\n", server.host().c_str(),
              server.port());
  if (options.is_follower()) {
    std::printf("xia_server following %s:%u as \"%s\" (read replica)\n",
                options.follow_host.c_str(), options.follow_port,
                options.follower_id.c_str());
  }
  if (options.sync_replicas > 0) {
    std::printf(
        "xia_server quorum mode: %zu sync replica(s), %.0f ms ack timeout\n",
        options.sync_replicas, options.quorum_timeout_ms);
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    const Status s =
        WriteFileAtomic(port_file, std::to_string(server.port()) + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      (void)server.Stop();
      return StatusExitCode(s);
    }
  }

  // Block until SIGTERM/SIGINT.
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("xia_server draining...\n");
  std::fflush(stdout);
  const Status stopped = server.Stop();
  const net::ServerStats stats = server.GetStats();
  std::printf(
      "xia_server stopped: %llu connections, %llu requests, "
      "%llu protocol errors, %llu admission rejects\n",
      static_cast<unsigned long long>(stats.connections_total),
      static_cast<unsigned long long>(stats.requests_total),
      static_cast<unsigned long long>(stats.protocol_errors),
      static_cast<unsigned long long>(stats.admission_rejects));
  if (!stopped.ok()) {
    std::fprintf(stderr, "error: %s\n", stopped.ToString().c_str());
    return StatusExitCode(stopped);
  }
  return 0;
}
