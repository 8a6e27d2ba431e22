// xia_client: command-line client for xia_server. Three modes:
//
//   * single-shot:  xia_client --port 4711 query 'for $s in ...'
//   * scripted:     xia_client --port 4711 --script session.txt
//                   (or commands on stdin, one per line)
//   * load driver:  xia_client --port 4711 --load 32 --requests 200
//                   opens 32 connections, sends 200 requests each, and
//                   prints qps plus p50/p95/p99 latency.
//
// Commands: ping [TOKEN|sleep=MS], query|run STMT, mutate STMT,
// explain [analyze] STMT, advise [BUDGET [ALGO [BUDGET_MS]]],
// metrics [json|prom|table]. `advise` with no --workload file advises on
// the server's captured workload.
//
// Error contract (shared with xia_shell/xia_advise): the first failing
// command prints a single "error: ..." line on stderr and exits with
// StatusExitCode (10 + StatusCode), so scripts can tell failure kinds
// apart.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/ddl.h"
#include "net/client.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace xia;  // NOLINT

std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  const size_t space = line.find_first_of(" \t");
  if (space == std::string::npos) return {line, ""};
  return {line.substr(0, space), std::string(Trim(line.substr(space)))};
}

void PrintExecReply(const net::ExecReply& reply) {
  std::printf("count=%llu docs=%llu idx=%llu wall=%.6fs\n",
              static_cast<unsigned long long>(reply.result_count),
              static_cast<unsigned long long>(reply.docs_examined),
              static_cast<unsigned long long>(reply.index_entries_scanned),
              reply.wall_seconds);
  for (const std::string& row : reply.rows) {
    std::printf("  %s\n", row.c_str());
  }
}

class ClientShell {
 public:
  ClientShell(std::string host, uint16_t port, std::string workload_text,
              double budget_ms)
      : host_(std::move(host)),
        port_(port),
        workload_text_(std::move(workload_text)),
        budget_ms_(budget_ms) {}

  Status Connect() { return client_.Connect(host_, port_); }

  /// Connect with up to `retries` additional attempts under jittered
  /// exponential backoff (the OnlineAdvisor shape: 0.05s initial, x2,
  /// capped) — how a follower-facing script rides out a leader that is
  /// still starting or briefly partitioned away.
  Status ConnectWithRetry(size_t retries) {
    Status status = Connect();
    if (status.ok() || retries == 0) return status;
    Random jitter(static_cast<uint64_t>(::getpid()));
    double backoff = 0.05;
    for (size_t attempt = 0; attempt < retries && !status.ok(); ++attempt) {
      const double sleep_s = backoff * (0.5 + 0.5 * jitter.NextDouble());
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      backoff = std::min(backoff * 2.0, 2.0);
      status = Connect();
    }
    return status;
  }

  /// Load-driver mode: execute commands but print nothing.
  void set_quiet(bool quiet) { quiet_ = quiet; }

  /// Enables follow-the-leader redirects (see DispatchWithRedirect).
  void set_redirect_retries(size_t retries) { redirect_retries_ = retries; }

  Status Dispatch(const std::string& line) {
    auto [cmd, rest] = SplitCommand(line);
    if (cmd == "ping") return Ping(rest);
    if (cmd == "query" || cmd == "run") return Query(rest);
    if (cmd == "mutate") return Mutate(rest);
    if (cmd == "explain") return Explain(rest);
    if (cmd == "advise") return Advise(rest);
    if (cmd == "metrics") return Metrics(rest);
    if (cmd == "repl") return Repl(rest);
    if (cmd == "create") return CreateIndex(rest);
    return Status::InvalidArgument("unknown command: " + cmd);
  }

  /// Dispatch, and when the server rejects a write because it is a
  /// follower (kReadOnly) or a deposed leader (kFenced) while naming
  /// where the leader actually is, reconnect there and retry once.
  /// Only active under --retry N (N also bounds the reconnect attempts),
  /// so plain invocations keep failing loudly.
  Status DispatchWithRedirect(const std::string& line) {
    const Status status = Dispatch(line);
    if (redirect_retries_ == 0) return status;
    if (status.code() != StatusCode::kReadOnly &&
        status.code() != StatusCode::kFenced) {
      return status;
    }
    const std::string hint = client_.leader_hint();
    const size_t colon = hint.rfind(':');
    if (colon == std::string::npos || colon + 1 >= hint.size()) {
      return status;
    }
    double v = 0;
    if (!ParseDouble(hint.substr(colon + 1), &v) || v < 1 || v > 65535) {
      return status;
    }
    std::fprintf(stderr, "redirecting to leader %s\n", hint.c_str());
    host_ = hint.substr(0, colon);
    port_ = static_cast<uint16_t>(v);
    client_.Close();
    if (const Status reconnect = ConnectWithRetry(redirect_retries_);
        !reconnect.ok()) {
      return status;  // the original rejection is the better story
    }
    return Dispatch(line);
  }

  int RunScript(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed == "quit" || trimmed == "exit") break;
      if (Status s = DispatchWithRedirect(std::string(trimmed)); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return StatusExitCode(s);
      }
    }
    return 0;
  }

 private:
  Status Ping(const std::string& rest) {
    const std::string token = rest.empty() ? "ping" : rest;
    XIA_ASSIGN_OR_RETURN(const std::string echoed, client_.Ping(token));
    if (echoed != token) {
      return Status::Internal("ping echo mismatch: " + echoed);
    }
    if (!quiet_) std::printf("pong %s\n", echoed.c_str());
    return Status::OK();
  }

  Status Query(const std::string& rest) {
    if (rest.empty()) return Status::InvalidArgument("query STMT");
    net::QueryRequest request;
    request.statement = rest;
    request.materialize_rows = true;
    request.budget_ms = budget_ms_;
    XIA_ASSIGN_OR_RETURN(const net::ExecReply reply, client_.Query(request));
    if (!quiet_) PrintExecReply(reply);
    return Status::OK();
  }

  Status Mutate(const std::string& rest) {
    if (rest.empty()) return Status::InvalidArgument("mutate STMT");
    net::MutationRequest request;
    request.statement = rest;
    request.budget_ms = budget_ms_;
    XIA_ASSIGN_OR_RETURN(const net::ExecReply reply, client_.Mutate(request));
    if (!quiet_) PrintExecReply(reply);
    return Status::OK();
  }

  // create index NAME on COLL PATTERN [type] [virtual] [online]
  Status CreateIndex(const std::string& rest) {
    XIA_ASSIGN_OR_RETURN(const engine::CreateIndexSpec spec,
                         engine::ParseCreateIndex(rest));
    net::CreateIndexRequest request;
    request.name = spec.name;
    request.collection = spec.collection;
    request.pattern = spec.pattern.path.ToString();
    request.value_type = static_cast<uint8_t>(spec.pattern.type);
    request.structural = spec.pattern.structural;
    request.is_virtual = spec.is_virtual;
    request.online = spec.online;
    XIA_ASSIGN_OR_RETURN(const net::CreateIndexReply reply,
                         client_.CreateIndex(request));
    if (!quiet_) {
      std::printf("created %s%s: %llu entries, %llu bytes, %.3fs",
                  spec.name.c_str(), spec.is_virtual ? " (virtual)" : "",
                  static_cast<unsigned long long>(reply.entry_count),
                  static_cast<unsigned long long>(reply.size_bytes),
                  reply.build_seconds);
      if (reply.online) {
        std::printf(" [online: stall %.3fs, %llu delta ops]",
                    reply.stall_seconds,
                    static_cast<unsigned long long>(reply.delta_ops));
      }
      std::printf("\n");
    }
    return Status::OK();
  }

  Status Explain(const std::string& rest) {
    net::ExplainRequest request;
    auto [first, tail] = SplitCommand(rest);
    if (first == "analyze") {
      request.analyze = true;
      request.statement = tail;
    } else {
      request.statement = rest;
    }
    if (request.statement.empty()) {
      return Status::InvalidArgument("explain [analyze] STMT");
    }
    request.budget_ms = budget_ms_;
    XIA_ASSIGN_OR_RETURN(const net::TextReply reply,
                         client_.Explain(request));
    if (!quiet_) std::printf("%s\n", reply.text.c_str());
    return Status::OK();
  }

  Status Advise(const std::string& rest) {
    net::AdviseRequest request;
    request.workload_text = workload_text_;
    request.budget_ms = budget_ms_;
    auto [budget_text, tail] = SplitCommand(rest);
    auto [algo_text, ms_text] = SplitCommand(tail);
    if (!budget_text.empty()) {
      double bytes = 0;
      if (!ParseByteSize(budget_text, &bytes) || bytes <= 0) {
        return Status::InvalidArgument("bad budget: " + budget_text);
      }
      request.disk_budget_bytes = static_cast<uint64_t>(bytes);
    }
    request.algorithm = algo_text;
    if (!ms_text.empty()) {
      double ms = 0;
      if (!ParseDouble(ms_text, &ms) || ms <= 0) {
        return Status::InvalidArgument("bad BUDGET_MS: " + ms_text);
      }
      request.budget_ms = ms;
    }
    XIA_ASSIGN_OR_RETURN(const net::AdviseReply reply,
                         client_.Advise(request));
    if (quiet_) return Status::OK();
    for (const net::AdviseReplyIndex& index : reply.indexes) {
      std::printf("  %s  -- %s%s\n", index.ddl.c_str(),
                  HumanBytes(static_cast<double>(index.size_bytes)).c_str(),
                  index.is_general ? " [general]" : "");
    }
    std::printf(
        "  total %s, est. speedup %.2fx, %llu optimizer calls%s\n",
        HumanBytes(static_cast<double>(reply.total_size_bytes)).c_str(),
        reply.est_speedup,
        static_cast<unsigned long long>(reply.optimizer_calls),
        reply.partial ? ", partial=true" : "");
    return Status::OK();
  }

  Status Repl(const std::string& rest) {
    if (rest != "status") return Status::InvalidArgument("repl status");
    XIA_ASSIGN_OR_RETURN(const net::ReplStatusReply rs, client_.ReplStatus());
    if (quiet_) return Status::OK();
    std::printf(
        "role=%s epoch=%llu epoch_start_lsn=%llu durable_lsn=%llu "
        "checkpoint_lsn=%llu applied_lsn=%llu",
        rs.role.c_str(), static_cast<unsigned long long>(rs.repl_epoch),
        static_cast<unsigned long long>(rs.epoch_start_lsn),
        static_cast<unsigned long long>(rs.durable_lsn),
        static_cast<unsigned long long>(rs.checkpoint_lsn),
        static_cast<unsigned long long>(rs.applied_lsn));
    if (!rs.leader_endpoint.empty()) {
      std::printf(" leader=%s", rs.leader_endpoint.c_str());
    }
    std::printf("\n");
    for (const net::ReplStatusFollower& f : rs.followers) {
      std::printf("  follower %-20s %-21s acked_lsn=%llu %s\n",
                  f.follower_id.c_str(), f.remote.c_str(),
                  static_cast<unsigned long long>(f.acked_lsn),
                  f.connected ? "connected" : "disconnected");
    }
    return Status::OK();
  }

  Status Metrics(const std::string& rest) {
    net::MetricsFormat format = net::MetricsFormat::kTable;
    if (rest == "json") {
      format = net::MetricsFormat::kJson;
    } else if (rest == "prom") {
      format = net::MetricsFormat::kPrometheus;
    } else if (!rest.empty() && rest != "table") {
      return Status::InvalidArgument("metrics [json|prom|table]");
    }
    XIA_ASSIGN_OR_RETURN(const net::TextReply reply,
                         client_.Metrics(format));
    if (!quiet_) std::printf("%s\n", reply.text.c_str());
    return Status::OK();
  }

  /// Mutable: a leader redirect re-targets the shell mid-session.
  std::string host_;
  uint16_t port_;
  const std::string workload_text_;
  const double budget_ms_;
  bool quiet_ = false;
  size_t redirect_retries_ = 0;
  net::Client client_;
};

/// Multi-connection load driver: `connections` threads, each with its own
/// client, sending `requests` copies of `command`. Reports aggregate qps
/// and latency percentiles.
int RunLoad(const std::string& host, uint16_t port, size_t connections,
            size_t requests, const std::string& command,
            const std::string& workload_text, double budget_ms,
            size_t retries) {
  std::mutex mu;
  std::vector<double> latencies;
  Status first_error = Status::OK();
  latencies.reserve(connections * requests);

  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      ClientShell shell(host, port, workload_text, budget_ms);
      // Each request's stdout would swamp the report, so the driver only
      // keeps timings.
      shell.set_quiet(true);
      std::vector<double> local;
      local.reserve(requests);
      Status status = shell.ConnectWithRetry(retries);
      if (status.ok()) {
        for (size_t r = 0; r < requests; ++r) {
          Stopwatch timer;
          status = shell.Dispatch(command);
          if (!status.ok()) break;
          local.push_back(timer.ElapsedSeconds());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
      if (!status.ok() && first_error.ok()) first_error = status;
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();

  if (!first_error.ok()) {
    std::fprintf(stderr, "error: %s\n", first_error.ToString().c_str());
    return StatusExitCode(first_error);
  }
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](size_t rank) {
    return latencies.empty() ? 0.0 : latencies[std::min(
               latencies.size() - 1, rank)] * 1e3;
  };
  std::printf(
      "load: %zu conns x %zu reqs = %zu ok in %.3fs  qps=%.1f  "
      "p50=%.3fms p95=%.3fms p99=%.3fms\n",
      connections, requests, latencies.size(), seconds,
      seconds > 0 ? static_cast<double>(latencies.size()) / seconds : 0.0,
      pct(latencies.size() / 2), pct(latencies.size() * 95 / 100),
      pct(latencies.size() * 99 / 100));
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: xia_client [--host H] (--port P | --port-file FILE)\n"
      "                  [--workload FILE] [--budget-ms MS] [--retry N]\n"
      "                  [--script FILE | COMMAND...\n"
      "                   | --load CONNS --requests N [--command CMD]]\n"
      "commands: ping [TOKEN|sleep=MS] | query|run STMT | mutate STMT\n"
      "          | explain [analyze] STMT\n"
      "          | advise [BUDGET [ALGO [BUDGET_MS]]]\n"
      "          | metrics [json|prom|table] | repl status\n"
      "          | create index NAME on COLL PATTERN\n"
      "            [string|numeric|structural] [virtual] [online]\n"
      "  with --retry N, a write rejected by a follower or deposed\n"
      "  leader (read_only/fenced) is retried once against the leader\n"
      "  endpoint named in the rejection.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string port_file;
  std::string script;
  std::string workload_file;
  std::string load_command = "ping";
  double budget_ms = 0;
  size_t retries = 0;
  size_t load_connections = 0;
  size_t load_requests = 100;
  std::vector<std::string> command_words;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0;
    if (arg == "--host" && has_value) {
      host = argv[++i];
    } else if (arg == "--port" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 1 || v > 65535) return Usage();
      port = static_cast<uint16_t>(v);
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--script" && has_value) {
      script = argv[++i];
    } else if (arg == "--workload" && has_value) {
      workload_file = argv[++i];
    } else if (arg == "--budget-ms" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 0) return Usage();
      budget_ms = v;
    } else if (arg == "--retry" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 0 ||
          v != static_cast<double>(static_cast<size_t>(v))) {
        return Usage();
      }
      retries = static_cast<size_t>(v);
    } else if (arg == "--load" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 1) return Usage();
      load_connections = static_cast<size_t>(v);
    } else if (arg == "--requests" && has_value) {
      if (!ParseDouble(argv[++i], &v) || v < 1) return Usage();
      load_requests = static_cast<size_t>(v);
    } else if (arg == "--command" && has_value) {
      load_command = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      command_words.push_back(arg);
    }
  }
  if (!port_file.empty()) {
    std::ifstream f(port_file);
    double v = 0;
    std::string text;
    if (!f || !std::getline(f, text) ||
        !ParseDouble(Trim(text), &v) || v < 1 || v > 65535) {
      std::fprintf(stderr, "error: bad port file: %s\n", port_file.c_str());
      return StatusExitCode(Status::InvalidArgument(""));
    }
    port = static_cast<uint16_t>(v);
  }
  if (port == 0) return Usage();

  std::string workload_text;
  if (!workload_file.empty()) {
    std::ifstream f(workload_file);
    if (!f) {
      std::fprintf(stderr, "error: cannot open %s\n", workload_file.c_str());
      return StatusExitCode(Status::NotFound(""));
    }
    std::ostringstream buffer;
    buffer << f.rdbuf();
    workload_text = buffer.str();
  }

  if (load_connections > 0) {
    return RunLoad(host, port, load_connections, load_requests, load_command,
                   workload_text, budget_ms, retries);
  }

  ClientShell shell(host, port, workload_text, budget_ms);
  shell.set_redirect_retries(retries);
  if (Status s = shell.ConnectWithRetry(retries); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return StatusExitCode(s);
  }
  if (!command_words.empty()) {
    if (Status s = shell.DispatchWithRedirect(Join(command_words, " "));
        !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return StatusExitCode(s);
    }
    return 0;
  }
  if (!script.empty()) {
    std::ifstream f(script);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", script.c_str());
      return 1;
    }
    return shell.RunScript(f);
  }
  return shell.RunScript(std::cin);
}
