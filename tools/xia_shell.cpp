// xia_shell: an interactive shell over the whole XIA stack — load or
// generate data, inspect statistics, create/drop (virtual) indexes,
// EXPLAIN and run statements, build a workload, and ask the advisor.
//
//   $ xia_shell
//   xia> demo
//   xia> workload add for $s in c('SDOC')/Security where $s/Symbol = "SYM000017" return $s
//   xia> advise 1MB topdown-full
//   xia> create index sym on SDOC /Security/Symbol string
//   xia> explain for $s in c('SDOC')/Security where $s/Symbol = "SYM000017" return $s
//   xia> run      for $s in c('SDOC')/Security where $s/Symbol = "SYM000017" return $s
//
// Also scriptable: `xia_shell < script.txt` (used by the test suite).

#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "db/database.h"
#include "engine/ddl.h"
#include "engine/query_parser.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"
#include "storage/xml_directory.h"
#include "tpox/tpox_data.h"
#include "tpox/xmark.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workload/online_advisor.h"
#include "workload/workload_io.h"

namespace {

using namespace xia;  // NOLINT

class Shell {
 public:
  /// The capture sink stays disabled until `monitor start`, so the hot
  /// path pays one atomic load.
  explicit Shell(DatabaseOptions options) : db_(std::move(options)) {}

  /// Opens the --data-dir: recovers (or initializes a fresh WAL + empty
  /// store) and routes every later mutation through the WAL. A torn log
  /// tail is salvaged and reported, never an error; only real corruption
  /// (kDataLoss) fails the open.
  Status OpenDataDir() {
    XIA_RETURN_IF_ERROR(db_.Open());
    std::printf("%s: %s\n", db_.wal()->data_dir().c_str(),
                db_.recovery().ToString().c_str());
    return Status::OK();
  }

  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::printf("xia shell — 'help' lists commands\n");
    for (;;) {
      if (interactive) {
        std::printf("xia> ");
        std::fflush(stdout);
      }
      if (!std::getline(in, line)) break;
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      if (trimmed == "quit" || trimmed == "exit") break;
      Status status = Dispatch(std::string(trimmed));
      if (!status.ok()) {
        // Errors go to stderr so scripted sessions can separate them from
        // command output; a script aborts with a StatusCode-derived exit
        // code (see StatusExitCode) that distinguishes failure kinds.
        std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
        if (!interactive) return StatusExitCode(status);
      }
    }
    return 0;
  }

 private:
  static std::pair<std::string, std::string> SplitCommand(
      const std::string& line) {
    const size_t space = line.find_first_of(" \t");
    if (space == std::string::npos) return {line, ""};
    return {line.substr(0, space), std::string(Trim(line.substr(space)))};
  }

  Status Dispatch(const std::string& line) {
    auto [cmd, rest] = SplitCommand(line);
    if (cmd == "help") return Help();
    if (cmd == "demo") return Demo(rest);
    if (cmd == "load") return Load(rest);
    if (cmd == "save") return SaveSnapshot(rest);
    if (cmd == "restore") return RestoreSnapshot(rest);
    if (cmd == "collections") return Collections();
    if (cmd == "stats") return Stats(rest);
    if (cmd == "indexes") return Indexes();
    if (cmd == "create") return Create(rest);
    if (cmd == "drop") return DropIndex(rest);
    if (cmd == "runstats") return RunStatsCommand(rest);
    if (cmd == "checkpoint") return CheckpointCommand();
    if (cmd == "wal") return WalCommand(rest);
    if (cmd == "enumerate") return Enumerate(rest);
    if (cmd == "explain") return Explain(rest);
    if (cmd == "run") return RunStatement(rest);
    if (cmd == "workload") return WorkloadCommand(rest);
    if (cmd == "advise") return Advise(rest);
    if (cmd == "monitor") return MonitorCommand(rest);
    if (cmd == "replay") return Replay(rest);
    if (cmd == "trace") return TraceCommand(rest);
    if (cmd == "faults") return Faults();
    return Status::InvalidArgument("unknown command '" + cmd +
                                   "' (try 'help')");
  }

  Status Help() {
    std::printf(
        "  demo [tpox|xmark]              generate a demo database\n"
        "  load DIR                       load DIR/<collection>/*.xml\n"
        "  save FILE | restore FILE       binary snapshot of the store\n"
        "  collections                    list collections\n"
        "  stats                          process-wide metrics table\n"
        "  stats COLLECTION [N]           top-N data paths with statistics\n"
        "  indexes                        list catalog indexes\n"
        "  create collection NAME         create an empty collection\n"
        "  create index NAME on COLL PATTERN [string|numeric|structural]"
        " [virtual] [online]\n"
        "  drop index NAME\n"
        "  runstats COLLECTION            refresh data statistics\n"
        "  checkpoint                     snapshot + truncate the WAL"
        " (--data-dir)\n"
        "  wal status                     durability state (--data-dir)\n"
        "  enumerate STATEMENT            Enumerate-Indexes mode candidates\n"
        "  explain STATEMENT              best plan + cost\n"
        "  explain analyze STATEMENT      execute and compare to estimates\n"
        "  run STATEMENT                  execute best plan\n"
        "  workload add STATEMENT | load FILE | save FILE | list | show |"
        " clear\n"
        "  advise BUDGET [greedy|heuristics|topdown-lite|topdown-full|dp]"
        " [BUDGET_MS]\n"
        "                                 BUDGET_MS caps wall-clock time;\n"
        "                                 on expiry the best-so-far partial\n"
        "                                 recommendation is reported\n"
        "  monitor start [MIN_QUERIES] [INTERVAL_S]   capture + online"
        " advising\n"
        "  monitor status|flush|stop      online advisor state / force a"
        " pass / stop\n"
        "  monitor save FILE              save the captured (templatized)"
        " workload\n"
        "  replay FILE [TIMES]            execute a workload file TIMES"
        " times\n"
        "  trace on|off                   per-phase advisor trace in advise\n"
        "  faults                         fault-injection points (XIA_FAULTS)\n"
        "  quit\n");
    return Status::OK();
  }

  Status Demo(const std::string& which) {
    const bool is_tpox = which.empty() || which == "tpox";
    if (!is_tpox && which != "xmark") {
      return Status::InvalidArgument("demo tpox|xmark");
    }
    return BulkLoad([is_tpox](storage::DocumentStore* store,
                              storage::StatisticsCatalog* statistics) {
      XIA_RETURN_IF_ERROR(
          is_tpox
              ? tpox::BuildTpoxDatabase(tpox::TpoxScale(), store, statistics)
              : tpox::BuildXmarkDatabase(tpox::XmarkScale(), store,
                                         statistics));
      std::printf("%s demo database loaded (%s)\n", is_tpox ? "TPoX" : "XMark",
                  is_tpox ? "SDOC/ODOC/CADOC" : "XITEM/XAUCTION/XPERSON");
      return Status::OK();
    });
  }

  Status Load(const std::string& dir) {
    return BulkLoad([&](storage::DocumentStore* store,
                        storage::StatisticsCatalog* statistics) -> Status {
      XIA_ASSIGN_OR_RETURN(
          const std::vector<storage::LoadedCollection> loaded,
          storage::LoadXmlDirectory(dir, store, statistics));
      for (const storage::LoadedCollection& coll : loaded) {
        std::printf("loaded %s: %zu documents\n", coll.name.c_str(),
                    coll.documents);
      }
      return Status::OK();
    });
  }

  /// Bulk loads (demo/load/restore) bypass the executor; with --data-dir
  /// Database::BulkLoad makes them durable with a checkpoint.
  Status BulkLoad(const Database::Loader& load) {
    XIA_RETURN_IF_ERROR(db_.BulkLoad(load));
    if (db_.wal() == nullptr) return Status::OK();
    std::printf("checkpointed at lsn %llu\n",
                static_cast<unsigned long long>(
                    db_.wal()->GetStatus().checkpoint_lsn));
    return Status::OK();
  }

  Status SaveSnapshot(const std::string& path) {
    if (path.empty()) return Status::InvalidArgument("save FILE");
    std::shared_lock<std::shared_mutex> lock(db_.mutex());
    XIA_RETURN_IF_ERROR(storage::SaveSnapshotToFile(db_.store(), path));
    std::printf("saved %zu collection(s) to %s\n",
                db_.store().CollectionNames().size(), path.c_str());
    return Status::OK();
  }

  Status RestoreSnapshot(const std::string& path) {
    if (path.empty()) return Status::InvalidArgument("restore FILE");
    return BulkLoad([&](storage::DocumentStore* store,
                        storage::StatisticsCatalog* statistics) -> Status {
      if (!store->CollectionNames().empty()) {
        return Status::FailedPrecondition(
            "store is not empty; restore only works in a fresh session");
      }
      XIA_RETURN_IF_ERROR(storage::LoadSnapshotFromFile(path, store));
      for (const std::string& name : store->CollectionNames()) {
        XIA_ASSIGN_OR_RETURN(storage::Collection * coll,
                             store->GetCollection(name));
        statistics->RunStats(*coll);
        std::printf("restored %s: %zu documents\n", name.c_str(),
                    coll->live_count());
      }
      return Status::OK();
    });
  }

  Status Collections() {
    for (const std::string& name : db_.store().CollectionNames()) {
      XIA_ASSIGN_OR_RETURN(const storage::Collection* coll,
                           db_.store().GetCollection(name));
      std::printf("  %-12s %6zu documents  %10s  %8zu nodes\n", name.c_str(),
                  coll->live_count(),
                  HumanBytes(static_cast<double>(coll->total_bytes())).c_str(),
                  coll->total_nodes());
    }
    return Status::OK();
  }

  Status Stats(const std::string& rest) {
    auto [name, n_text] = SplitCommand(rest);
    if (name.empty()) {
      // Bare `stats`: the process-wide metrics table.
      std::printf("%s", obs::MetricsRegistry::Global().Snapshot()
                            .ToTable().c_str());
      return Status::OK();
    }
    size_t limit = 15;
    double n = 0;
    if (!n_text.empty() && ParseDouble(n_text, &n) && n > 0) {
      limit = static_cast<size_t>(n);
    }
    XIA_ASSIGN_OR_RETURN(const storage::CollectionStatistics* cs,
                         db_.statistics().Get(name));
    std::printf("%-52s %8s %8s %8s\n", "path", "count", "distinct",
                "numeric");
    std::vector<const storage::PathStats*> paths;
    for (const auto& [_, stats] : cs->paths()) paths.push_back(&stats);
    std::sort(paths.begin(), paths.end(),
              [](const auto* a, const auto* b) { return a->count > b->count; });
    for (size_t i = 0; i < paths.size() && i < limit; ++i) {
      std::printf("%-52s %8llu %8llu %8llu\n",
                  paths[i]->PathString().c_str(),
                  static_cast<unsigned long long>(paths[i]->count),
                  static_cast<unsigned long long>(paths[i]->distinct_values),
                  static_cast<unsigned long long>(paths[i]->numeric_count));
    }
    return Status::OK();
  }

  Status Indexes() {
    bool any = false;
    for (const std::string& coll : db_.store().CollectionNames()) {
      for (const auto* def : db_.catalog().IndexesFor(coll)) {
        std::printf("  %-14s %-10s %-40s %8s %s\n", def->name.c_str(),
                    coll.c_str(), def->pattern.ToString().c_str(),
                    HumanBytes(static_cast<double>(def->stats.size_bytes))
                        .c_str(),
                    def->is_virtual ? "[virtual]" : "");
        any = true;
      }
    }
    if (!any) std::printf("  (no indexes)\n");
    return Status::OK();
  }

  // create collection NAME | create index NAME on COLL PATTERN ...
  Status Create(const std::string& rest) {
    auto [kind, arg] = SplitCommand(rest);
    if (kind == "collection") {
      if (arg.empty()) return Status::InvalidArgument("create collection NAME");
      XIA_RETURN_IF_ERROR(db_.CreateCollection(arg));
      std::printf("created collection %s\n", arg.c_str());
      return Status::OK();
    }
    return CreateIndex(rest);
  }

  // create index NAME on COLL PATTERN [type] [virtual] [online]
  Status CreateIndex(const std::string& rest) {
    XIA_ASSIGN_OR_RETURN(const engine::CreateIndexSpec spec,
                         engine::ParseCreateIndex(rest));
    XIA_ASSIGN_OR_RETURN(const IndexBuildResult built, db_.CreateIndex(spec));
    std::printf("created %s%s: %llu entries, %s\n", spec.name.c_str(),
                spec.is_virtual ? " (virtual)" : "",
                static_cast<unsigned long long>(built.stats.entry_count),
                HumanBytes(static_cast<double>(built.stats.size_bytes))
                    .c_str());
    if (spec.online) {
      const storage::OnlineBuildReport& report = built.online;
      std::printf("  online build: %.3fs total, %.3fs stalled, "
                  "%llu delta ops, %llu docs scanned\n",
                  report.total_seconds, report.exclusive_seconds,
                  static_cast<unsigned long long>(report.delta_ops_applied),
                  static_cast<unsigned long long>(report.docs_scanned));
    }
    return Status::OK();
  }

  Status DropIndex(const std::string& rest) {
    auto [kw, name] = SplitCommand(rest);
    if (kw != "index" || name.empty()) {
      return Status::InvalidArgument("drop index NAME");
    }
    return db_.DropIndex(name);
  }

  Status RunStatsCommand(const std::string& rest) {
    if (rest.empty()) return Status::InvalidArgument("runstats COLLECTION");
    XIA_RETURN_IF_ERROR(db_.RunStats(rest));
    std::printf("  statistics refreshed for %s\n", rest.c_str());
    return Status::OK();
  }

  Status CheckpointCommand() {
    XIA_RETURN_IF_ERROR(RequireDataDir());
    XIA_RETURN_IF_ERROR(db_.Checkpoint());
    const wal::WalStatus st = db_.wal()->GetStatus();
    std::printf("  checkpointed at lsn %llu (log reset to %s)\n",
                static_cast<unsigned long long>(st.checkpoint_lsn),
                HumanBytes(static_cast<double>(st.log_bytes)).c_str());
    return Status::OK();
  }

  Status WalCommand(const std::string& rest) {
    if (rest != "status") return Status::InvalidArgument("wal status");
    XIA_RETURN_IF_ERROR(RequireDataDir());
    std::printf("  %s\n", db_.wal()->GetStatus().ToString().c_str());
    std::printf("  last open: %s\n",
                db_.recovery().ToString().c_str());
    return Status::OK();
  }

  Status RequireDataDir() {
    if (db_.wal() != nullptr) return Status::OK();
    return Status::FailedPrecondition("no data dir (start with --data-dir)");
  }

  Status Enumerate(const std::string& text) {
    XIA_ASSIGN_OR_RETURN(engine::Statement stmt,
                         engine::ParseStatement(text));
    XIA_ASSIGN_OR_RETURN(std::vector<xpath::IndexPattern> patterns,
                         db_.EnumerateIndexes(stmt));
    if (patterns.empty()) {
      std::printf("  (no indexable patterns)\n");
    }
    for (const auto& p : patterns) std::printf("  %s\n", p.ToString().c_str());
    return Status::OK();
  }

  Status Explain(const std::string& text) {
    auto [first, rest] = SplitCommand(text);
    const bool analyze = first == "analyze";
    XIA_ASSIGN_OR_RETURN(engine::Statement stmt,
                         engine::ParseStatement(analyze ? rest : text));
    XIA_ASSIGN_OR_RETURN(std::string report, db_.Explain(stmt, analyze));
    std::printf(analyze ? "  %s" : "  %s\n", report.c_str());
    return Status::OK();
  }

  Status RunStatement(const std::string& text) {
    XIA_ASSIGN_OR_RETURN(engine::Statement stmt,
                         engine::ParseStatement(text));
    RunOptions run;
    run.materialize_rows = true;
    run.max_rows = 10;
    XIA_ASSIGN_OR_RETURN(const RunResult ran, db_.Run(stmt, run));
    const engine::ExecResult& result = ran.exec;
    std::printf("  %s\n  %llu results, %llu docs examined, %llu index "
                "entries, %.4fs\n",
                ran.plan.Describe().c_str(),
                static_cast<unsigned long long>(result.result_count),
                static_cast<unsigned long long>(result.docs_examined),
                static_cast<unsigned long long>(result.index_entries_scanned),
                result.wall_seconds);
    for (const std::string& row : result.rows) {
      std::printf("    %.110s\n", row.c_str());
    }
    if (result.result_count > result.rows.size() && !result.rows.empty()) {
      std::printf("    ... (%llu more)\n",
                  static_cast<unsigned long long>(result.result_count -
                                                  result.rows.size()));
    }
    return Status::OK();
  }

  Status WorkloadCommand(const std::string& rest) {
    auto [sub, arg] = SplitCommand(rest);
    if (sub == "add") {
      XIA_ASSIGN_OR_RETURN(engine::Statement stmt,
                           engine::ParseStatement(arg));
      stmt.label = StringPrintf("stmt-%zu", workload_.size() + 1);
      workload_.push_back(std::move(stmt));
      std::printf("  %zu statements in workload\n", workload_.size());
      return Status::OK();
    }
    if (sub == "load") {
      std::ifstream f(arg);
      if (!f) return Status::NotFound("workload file: " + arg);
      std::stringstream buffer;
      buffer << f.rdbuf();
      XIA_ASSIGN_OR_RETURN(engine::Workload loaded,
                           engine::ParseWorkloadText(buffer.str()));
      for (auto& stmt : loaded) workload_.push_back(std::move(stmt));
      std::printf("  %zu statements in workload\n", workload_.size());
      return Status::OK();
    }
    if (sub == "save") {
      if (arg.empty()) return Status::InvalidArgument("workload save FILE");
      XIA_RETURN_IF_ERROR(workload::SaveWorkloadToFile(workload_, arg));
      std::printf("  saved %zu statements to %s\n", workload_.size(),
                  arg.c_str());
      return Status::OK();
    }
    if (sub == "list") {
      for (const auto& stmt : workload_) {
        std::printf("  [%g] %s\n", stmt.frequency,
                    engine::ToText(stmt).c_str());
      }
      if (workload_.empty()) std::printf("  (empty)\n");
      return Status::OK();
    }
    if (sub == "show") {
      double total_freq = 0;
      for (const auto& stmt : workload_) total_freq += stmt.frequency;
      for (const auto& stmt : workload_) {
        const char* kind = stmt.is_query()    ? "query"
                           : stmt.is_insert() ? "insert"
                           : stmt.is_delete() ? "delete"
                                              : "update";
        std::printf("  %-16s %-6s freq=%-8g %.80s\n", stmt.label.c_str(),
                    kind, stmt.frequency, engine::ToText(stmt).c_str());
      }
      std::printf("  %zu statements, total frequency %g\n", workload_.size(),
                  total_freq);
      return Status::OK();
    }
    if (sub == "clear") {
      workload_.clear();
      return Status::OK();
    }
    return Status::InvalidArgument(
        "workload add|load|save|list|show|clear");
  }

  Status Advise(const std::string& rest) {
    if (workload_.empty()) {
      return Status::FailedPrecondition("workload is empty (workload add …)");
    }
    auto [budget_text, tail] = SplitCommand(rest);
    auto [algo_text, ms_text] = SplitCommand(tail);
    advisor::AdvisorOptions options;
    options.disk_budget_bytes = 10 * 1024.0 * 1024.0;
    if (!budget_text.empty() &&
        !ParseByteSize(budget_text, &options.disk_budget_bytes)) {
      return Status::InvalidArgument("bad budget: " + budget_text);
    }
    if (!algo_text.empty()) {
      XIA_ASSIGN_OR_RETURN(options.algorithm,
                           advisor::ParseSearchAlgorithm(algo_text));
    }
    if (!ms_text.empty()) {
      double ms = 0;
      if (!ParseDouble(ms_text, &ms) || ms <= 0) {
        return Status::InvalidArgument("bad BUDGET_MS: " + ms_text);
      }
      options.budget_ms = ms;
    }
    XIA_ASSIGN_OR_RETURN(advisor::Recommendation rec,
                         db_.Advise(workload_, options));
    for (const auto& ri : rec.indexes) {
      std::printf("  %s  -- %s%s\n", ri.ddl.c_str(),
                  HumanBytes(static_cast<double>(ri.size_bytes)).c_str(),
                  ri.is_general ? " [general]" : "");
    }
    std::printf("  total %s, est. speedup %.2fx, %llu optimizer calls%s\n",
                HumanBytes(rec.total_size_bytes).c_str(), rec.est_speedup,
                static_cast<unsigned long long>(rec.optimizer_calls),
                rec.partial ? ", partial=true" : "");
    if (trace_ && !rec.trace.empty()) {
      std::printf("%s", rec.trace.ToString().c_str());
    }
    return Status::OK();
  }

  // monitor start [MIN_QUERIES] [INTERVAL_S] | status | flush | stop |
  // save FILE — online workload capture + continuous advising.
  Status MonitorCommand(const std::string& rest) {
    auto [sub, arg] = SplitCommand(rest);
    if (sub == "start") {
      if (monitor_ && monitor_->running()) {
        return Status::FailedPrecondition("monitor already running");
      }
      workload::OnlineAdvisorOptions options;
      options.advisor.disk_budget_bytes = 10 * 1024.0 * 1024.0;
      auto [min_text, interval_text] = SplitCommand(arg);
      double v = 0;
      if (!min_text.empty()) {
        if (!ParseDouble(min_text, &v) || v < 1) {
          return Status::InvalidArgument("bad MIN_QUERIES: " + min_text);
        }
        options.min_new_queries = static_cast<size_t>(v);
      }
      if (!interval_text.empty()) {
        if (!ParseDouble(interval_text, &v) || v <= 0) {
          return Status::InvalidArgument("bad INTERVAL_S: " + interval_text);
        }
        options.advise_interval_seconds = v;
      }
      if (db_.wal() != nullptr) {
        // Periodic checkpoints ride the monitor thread, bounding the log
        // replay a crash would need.
        options.checkpoint_fn = [this] { return db_.Checkpoint(); };
      }
      monitor_ = std::make_unique<workload::OnlineAdvisor>(
          &db_.capture(), &db_.advisor(), options, &db_.mutex());
      XIA_RETURN_IF_ERROR(monitor_->Start());
      std::printf(
          "  monitoring: advising every %zu queries or %.1fs\n",
          options.min_new_queries, options.advise_interval_seconds);
      return Status::OK();
    }
    if (!monitor_) {
      return Status::FailedPrecondition("monitor not started");
    }
    if (sub == "stop") {
      monitor_->Stop();
      const workload::OnlineAdvisorStatus st = monitor_->Snapshot();
      std::printf("  monitor stopped: %llu queries -> %zu templates, "
                  "%llu advise passes\n",
                  static_cast<unsigned long long>(st.queries_seen),
                  st.template_count,
                  static_cast<unsigned long long>(st.advise_runs));
      return Status::OK();
    }
    if (sub == "flush") {
      XIA_RETURN_IF_ERROR(monitor_->AdviseNow());
      std::printf("  advised\n");
      return Status::OK();
    }
    if (sub == "status") {
      const workload::OnlineAdvisorStatus st = monitor_->Snapshot();
      std::printf(
          "  %s | captured %llu (pending %zu, dropped %llu) | "
          "%zu templates (dedup %.1fx)\n",
          st.running ? "running" : "stopped",
          static_cast<unsigned long long>(db_.capture().published()),
          db_.capture().pending(),
          static_cast<unsigned long long>(db_.capture().dropped()),
          st.template_count, st.dedup_ratio);
      std::printf(
          "  advise passes %llu (failures %llu, retries %llu), "
          "last %.3fs, churn +%zu/-%zu\n",
          static_cast<unsigned long long>(st.advise_runs),
          static_cast<unsigned long long>(st.advise_failures),
          static_cast<unsigned long long>(st.advise_retries),
          st.last_advise_seconds, st.last_entered, st.last_left);
      std::printf(
          "  circuit breaker %s (opened %llu times, %llu consecutive "
          "failures)\n",
          st.circuit_open ? "OPEN" : "closed",
          static_cast<unsigned long long>(st.circuit_opens),
          static_cast<unsigned long long>(st.consecutive_failures));
      if (!st.last_error.empty()) {
        std::printf("  last error: %s\n", st.last_error.c_str());
      }
      if (st.has_recommendation) {
        for (const auto& ri : st.recommendation.indexes) {
          std::printf("  %s  -- %s%s\n", ri.ddl.c_str(),
                      HumanBytes(static_cast<double>(ri.size_bytes)).c_str(),
                      ri.is_general ? " [general]" : "");
        }
        std::printf("  est. speedup %.2fx over the captured workload\n",
                    st.recommendation.est_speedup);
      } else {
        std::printf("  (no recommendation yet)\n");
      }
      return Status::OK();
    }
    if (sub == "save") {
      if (arg.empty()) return Status::InvalidArgument("monitor save FILE");
      const engine::Workload captured = monitor_->CurrentWorkload();
      if (captured.empty()) {
        return Status::FailedPrecondition("nothing captured yet");
      }
      XIA_RETURN_IF_ERROR(workload::SaveWorkloadToFile(captured, arg));
      std::printf("  saved %zu templates to %s\n", captured.size(),
                  arg.c_str());
      return Status::OK();
    }
    return Status::InvalidArgument("monitor start|status|flush|save|stop");
  }

  // replay FILE [TIMES]: execute every statement of a workload file
  // (optimize + run) TIMES times; executions flow into the capture sink.
  Status Replay(const std::string& rest) {
    auto [file, times_text] = SplitCommand(rest);
    if (file.empty()) return Status::InvalidArgument("replay FILE [TIMES]");
    size_t times = 1;
    double v = 0;
    if (!times_text.empty()) {
      if (!ParseDouble(times_text, &v) || v < 1) {
        return Status::InvalidArgument("bad TIMES: " + times_text);
      }
      times = static_cast<size_t>(v);
    }
    XIA_ASSIGN_OR_RETURN(engine::Workload loaded,
                         workload::LoadWorkloadFromFile(file));
    uint64_t executed = 0;
    Stopwatch timer;
    for (size_t t = 0; t < times; ++t) {
      for (const auto& stmt : loaded) {
        // Locked per statement, not per pass, so the online advisor can
        // interleave its passes with a long replay.
        XIA_RETURN_IF_ERROR(db_.Run(stmt).status());
        ++executed;
      }
    }
    std::printf("  replayed %llu statements (%zu x %zu) in %.3fs\n",
                static_cast<unsigned long long>(executed), loaded.size(),
                times, timer.ElapsedSeconds());
    return Status::OK();
  }

  // Lists every registered fault-injection point with its armed spec and
  // hit/fired counters — the runtime view of the XIA_FAULTS env spec.
  Status Faults() {
    const auto snapshot = fault::FaultRegistry::Global().Snapshot();
    if (snapshot.empty()) {
      std::printf("  (no fault points registered)\n");
      return Status::OK();
    }
    std::printf("  %-28s %-8s %10s %10s\n", "point", "spec", "hits", "fired");
    for (const auto& point : snapshot) {
      std::printf("  %-28s %-8s %10llu %10llu\n", point.name.c_str(),
                  point.spec.ToString().c_str(),
                  static_cast<unsigned long long>(point.hits),
                  static_cast<unsigned long long>(point.fired));
    }
    return Status::OK();
  }

  Status TraceCommand(const std::string& rest) {
    if (rest == "on") {
      trace_ = true;
    } else if (rest == "off") {
      trace_ = false;
    } else {
      return Status::InvalidArgument("trace on|off");
    }
    std::printf("  trace %s\n", trace_ ? "on" : "off");
    return Status::OK();
  }

  Database db_;
  engine::Workload workload_;
  std::unique_ptr<workload::OnlineAdvisor> monitor_;
  bool trace_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  if (Status s = fault::FaultRegistry::Global().ConfigureFromEnv(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return StatusExitCode(s);
  }
  std::string script;
  std::string data_dir;
  std::string fsync_policy;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--script" && has_value) {
      script = argv[++i];
    } else if (arg == "--data-dir" && has_value) {
      data_dir = argv[++i];
    } else if (arg == "--fsync" && has_value) {
      fsync_policy = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: xia_shell [--script FILE] [--data-dir DIR]"
                   " [--fsync always|interval|off]\n");
      return 2;
    }
  }
  Shell shell(DatabaseOptions{data_dir, fsync_policy, {}});
  if (!data_dir.empty()) {
    // Recovery failures exit with the status-derived code: salvaged torn
    // tails are OK (exit 0 later), real corruption is kDataLoss (exit 22).
    if (Status s = shell.OpenDataDir(); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return StatusExitCode(s);
    }
  }
  if (!script.empty()) {
    std::ifstream f(script);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", script.c_str());
      return 1;
    }
    return shell.Run(f, /*interactive=*/false);
  }
  const bool interactive = isatty(0);
  return shell.Run(std::cin, interactive);
}
