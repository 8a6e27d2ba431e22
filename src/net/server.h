// xia::net::Server — the engine's concurrent network front door.
//
// One Server owns one xia::Database (store, statistics, catalog,
// executor, workload capture, optional WAL — the request path shared
// with the shell and the crash harness, DESIGN §18) and serves the
// framed wire protocol (net/wire.h) over TCP. The server keeps only its
// own concerns: framing, admission, sessions, role/epoch and
// replication state, and the quorum wait.
//
//   * Front end: an acceptor thread plus one session thread per
//     connection (connections are long-lived and bounded by
//     max_connections, so thread-per-connection keeps the request path
//     free of queue hops; the heavy advise work is itself parallelized
//     through xia::util::ThreadPool via AdvisorOptions.threads).
//   * Reader/writer isolation: the Database's std::shared_mutex, in
//     the lock mode Database documents per operation — queries, EXPLAIN
//     and what-if advising run concurrently; mutations are exclusive and
//     commit through the WAL before acking.
//   * Admission control: at most max_inflight_requests are dispatched at
//     once; beyond that the server answers kResourceExhausted instead of
//     queueing unboundedly. Every admitted request runs under a Deadline
//     (request budget_ms, else default_budget_ms) and the session's
//     CancelToken, so shutdown can cut long requests cooperatively.
//   * Graceful shutdown (Stop): refuse new connections, half-close every
//     idle session (their blocked reads see EOF), let in-flight requests
//     finish and send their responses within drain_timeout_s, then cancel
//     stragglers through their CancelTokens, join everything, checkpoint
//     the WAL, and close it.
//
// Lock order (extends the DESIGN §9/§12 order): role_mu_ -> Database
// lock (shared or exclusive) -> WAL internals. sessions_mu_ and
// capture/templatizer locks are leaves and are never held while a
// request executes or while the Database lock is held. Session threads
// never take sessions_mu_ while holding the Database lock.
//
// Observability: xia.net.* counters/gauges/histograms — connections
// (current/total), per-type request counters and latency histograms,
// bytes in/out, protocol errors, admission rejects. With
// options.metrics_json_path set, a background thread atomically rewrites
// that file with the full metrics JSON snapshot every
// metrics_interval_s (the `metrics` request type serves the same
// snapshot over the wire).

#ifndef XIA_NET_SERVER_H_
#define XIA_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "db/database.h"
#include "fault/deadline.h"
#include "net/socket.h"
#include "net/wire.h"
#include "repl/applier.h"
#include "repl/hub.h"
#include "tpox/tpox_data.h"
#include "tpox/xmark.h"
#include "util/status.h"
#include "workload/templatizer.h"

namespace xia::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, read it back with
  /// port(). Parallel test runs should always use 0.
  uint16_t port = 0;
  /// Durable data directory (wal::WalManager layout). Empty = volatile
  /// in-memory store.
  std::string data_dir;
  /// WAL fsync policy name ("always"/"interval"/"off"); "" = default.
  std::string fsync_policy;
  /// Pre-load a demo database: "", "tpox", or "xmark". Only seeds an
  /// empty store — a recovered data dir keeps its contents.
  std::string demo;
  tpox::TpoxScale demo_tpox_scale;
  tpox::XmarkScale demo_xmark_scale;
  size_t max_connections = 64;
  /// 0 resolves to max_connections.
  size_t max_inflight_requests = 0;
  /// Default per-request wall-clock budget in ms (0 = unbounded);
  /// requests may set their own.
  double default_budget_ms = 0;
  /// How long Stop() waits for in-flight requests before cancelling them.
  double drain_timeout_s = 5.0;
  /// Periodic metrics JSON dump destination ("" = off) and cadence.
  std::string metrics_json_path;
  double metrics_interval_s = 1.0;
  /// Default worker threads for advise requests that do not pin their
  /// own (1 = serial, 0 = one per hardware thread).
  size_t advise_threads = 1;

  // ---- replication (xia::repl, DESIGN §14) ----

  /// Non-empty = run as a read replica following the leader at
  /// follow_host:follow_port. Requires data_dir (the follower's local
  /// WAL is what makes its rejoin crash-safe). Followers serve queries,
  /// EXPLAIN, advise, and metrics; mutations get kReadOnly.
  std::string follow_host;
  uint16_t follow_port = 0;
  /// Identity reported to the leader (per-follower ack tracking).
  std::string follower_id = "follower";
  /// Follower: local checkpoint cadence in applied records (0 = only at
  /// shutdown).
  size_t repl_checkpoint_every = 0;
  /// Crash-harness hook threaded into both the WAL writer and the
  /// replication applier (named kill points, see DESIGN §14).
  wal::WalTestHook repl_test_hook;

  // ---- quorum commit + failover (DESIGN §15) ----

  /// Leader: a mutation acks to its client only after this many
  /// followers have acked its LSN (0 = async replication, the PR-7
  /// behavior). The wait never downgrades silently: a quorum that does
  /// not form within quorum_timeout_ms fails the request with
  /// kUnavailable even though the mutation is locally durable.
  size_t sync_replicas = 0;
  /// Per-request quorum deadline in ms.
  double quorum_timeout_ms = 2000;
  /// How long the hub keeps a disconnected follower's ack history
  /// before pruning it (0 = forever).
  double follower_ttl_s = 0;

  /// Startup role (the runtime role can change via promote/follow).
  bool is_follower() const { return !follow_host.empty(); }
};

/// Point-in-time replication state (tests, tools, the harness).
struct ReplStatus {
  bool is_follower = false;
  /// Follower-side applier progress (zero-valued on a leader).
  repl::ApplierStats applier;
  /// Leader-side per-follower view (empty on a follower).
  std::vector<repl::FollowerInfo> followers;
  uint64_t durable_lsn = 0;
  uint64_t checkpoint_lsn = 0;
  /// Replication epoch this node is in and its barrier LSN (DESIGN §15).
  uint64_t repl_epoch = 1;
  uint64_t epoch_start_lsn = 0;
};

/// Point-in-time server accounting (tests and the shutdown summary).
struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t requests_total = 0;
  uint64_t protocol_errors = 0;
  uint64_t admission_rejects = 0;
  size_t open_sessions = 0;
  size_t inflight_requests = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Builds the database (demo and/or data-dir recovery), binds the
  /// listener, and spawns the acceptor. On return the server is
  /// reachable at port().
  Status Start();

  /// Graceful shutdown; see the header comment. Idempotent. Returns the
  /// first error encountered while draining/checkpointing (the server is
  /// stopped regardless).
  Status Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return listener_.port(); }
  const std::string& host() const { return options_.host; }

  ServerStats GetStats() const;

  /// The recovery report from opening the data dir (fresh_start for
  /// volatile servers).
  const wal::RecoveryReport& recovery() const { return db_.recovery(); }

  /// Replication progress; safe while running.
  ReplStatus GetReplStatus() const;

  /// A deterministic digest of the full database state (snapshot bytes +
  /// name-sorted real index definitions) under the shared lock. Two
  /// nodes with equal digests hold identical data — the crash harness's
  /// convergence check.
  Result<std::string> StoreDigest();

  /// Forces a WAL checkpoint now (exclusive lock). Leaders use this to
  /// move the checkpoint horizon so joining followers exercise the
  /// snapshot-transfer path.
  Status CheckpointNow();

  /// Current role (runtime — promote/follow can change it while the
  /// server runs; options().is_follower() is only the startup role).
  bool IsFollowerNow() const {
    return follower_mode_.load(std::memory_order_acquire);
  }

  /// Promotion (DESIGN §15): stops the applier, bumps the replication
  /// epoch (writing the kEpochBarrier record), and starts accepting
  /// writes. Idempotent on a node that is already the leader (returns
  /// the current epoch without bumping). Requires a durable data dir.
  Status Promote(uint64_t* epoch, uint64_t* barrier_lsn);

  /// (Re)join as a follower of `host:port` at runtime: demotes a
  /// deposed leader (in-flight streams fence themselves off) and starts
  /// the applier, whose first kReplHello handles divergence truncation.
  Status Follow(const std::string& host, uint16_t port);

 private:
  struct Session {
    uint64_t id = 0;
    Socket socket;
    std::thread thread;
    /// True while a request is being executed (not while blocked in
    /// recv); drain waits for these.
    std::atomic<bool> in_request{false};
    /// Cancelled by Stop() once the drain deadline passes.
    fault::CancelToken cancel;
    std::atomic<bool> done{false};
  };

  Status InitDatabase();
  void AcceptLoop();
  void SessionLoop(Session* session);
  /// Reaps finished sessions (joins their threads). Called from the
  /// acceptor between connections and from Stop.
  void ReapSessionsLocked();

  /// Dispatches one verified frame; returns the encoded response frame.
  std::string HandleFrame(Session* session, const Frame& frame);

  /// Turns the session into a leader->follower replication stream; runs
  /// until disconnect/stop. Returns an encoded error frame instead when
  /// the subscribe is rejected (follower, no WAL, bad payload).
  std::string HandleReplSubscribe(Session* session, const Frame& frame);

  Result<std::string> HandlePing(Session* session, const Frame& frame,
                                 const fault::Deadline& deadline);
  Result<std::string> HandleQuery(Session* session, const Frame& frame);
  Result<std::string> HandleMutation(Session* session, const Frame& frame);
  Result<std::string> HandleAdvise(Session* session, const Frame& frame);
  Result<std::string> HandleExplain(Session* session, const Frame& frame);
  Result<std::string> HandleCreateIndex(const Frame& frame);
  Result<std::string> HandleMetrics(const Frame& frame);
  Result<std::string> HandleReplStatus(const Frame& frame);
  Result<std::string> HandlePromote(const Frame& frame);
  Result<std::string> HandleFollow(const Frame& frame);

  /// Where this node believes the current leader is ("host:port"; empty
  /// when unknown) — attached to kReadOnly/kFenced error replies.
  std::string LeaderEndpointHint() const;
  /// Starts the applier against the current leader endpoint (role_mu_
  /// must be held).
  void StartApplierLocked();

  /// Resolves a request budget (else the server default) to a Deadline.
  fault::Deadline MakeDeadline(double budget_ms) const;
  void UpdateServerGauges();
  void MetricsDumpLoop();

  const ServerOptions options_;
  const size_t max_inflight_;

  Database db_;

  // ---- replication ----
  /// mutable: every hub call (reads included) prunes expired
  /// disconnected followers, which is bookkeeping, not observable
  /// state change — const status queries stay const.
  mutable repl::ReplHub repl_hub_;
  /// Runtime role: true while this node applies a leader's stream.
  /// Startup value comes from options_.is_follower(); promote/follow
  /// flip it. Streams watch it as their demotion signal.
  std::atomic<bool> follower_mode_{false};
  /// Guards applier_ swaps and the leader endpoint below. Lock order:
  /// role_mu_ -> Database lock (Promote holds role_mu_ across the epoch
  /// bump); request handlers never take role_mu_ while holding the
  /// Database lock.
  mutable std::mutex role_mu_;
  std::unique_ptr<repl::Applier> applier_;  // guarded by role_mu_
  std::string leader_host_;                 // guarded by role_mu_
  uint16_t leader_port_ = 0;                // guarded by role_mu_

  /// Advise-on-captured folds batches drained from the Database's
  /// capture into templates_ under tmpl_mu_ (leaf lock).
  std::mutex tmpl_mu_;
  workload::Templatizer templates_;

  // ---- front end ----
  Listener listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex sessions_mu_;
  std::list<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<size_t> open_sessions_{0};
  std::atomic<size_t> inflight_{0};

  // ---- metrics dump thread ----
  std::thread metrics_dumper_;
  std::mutex metrics_mu_;
  std::condition_variable metrics_cv_;
  bool metrics_stop_ = false;
};

}  // namespace xia::net

#endif  // XIA_NET_SERVER_H_
