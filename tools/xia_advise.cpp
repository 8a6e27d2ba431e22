// xia_advise: command-line XML index advisor.
//
// Usage:
//   xia_advise --data DIR --workload FILE [--budget 10MB]
//              [--algorithm topdown-full] [--all-index] [--explain]
//   xia_advise --demo [--budget ...]      (generated TPoX-style database)
//
// DIR layout: one subdirectory per collection, each containing *.xml
// documents:
//   data/SDOC/security1.xml
//   data/SDOC/security2.xml
//   data/ODOC/order1.xml
//
// The workload file format is documented in engine/query_parser.h
// (';'-separated statements, '#' comments, @freq=/@label= annotations).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "advisor/advisor.h"
#include "advisor/report.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "engine/query_parser.h"
#include "optimizer/optimizer.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage/xml_directory.h"
#include "tpox/tpox_data.h"
#include "util/string_util.h"
#include "workload/capture.h"
#include "workload/templatizer.h"
#include "workload/workload_io.h"

namespace {

using namespace xia;  // NOLINT
namespace fs = std::filesystem;

int Usage() {
  std::fprintf(
      stderr,
      "usage: xia_advise (--data DIR | --snapshot FILE | --demo)"
      " --workload FILE\n"
      "                  [--budget SIZE] [--budget-ms MS] [--algorithm NAME]"
      " [--beta F]\n"
      "                  [--no-generalize] [--all-index] [--explain]"
      " [--report]\n"
      "                  [--metrics-json PATH] [--capture PATH]\n"
      "  SIZE: bytes, or suffixed 512KB / 10MB / 1GB\n"
      "  NAME: greedy | heuristics | topdown-lite | topdown-full | dp\n"
      "  --budget-ms: wall-clock budget for the advise run; on expiry the\n"
      "             best configuration found so far is reported with\n"
      "             partial=true\n"
      "  --capture: templatize the workload (constants -> markers,\n"
      "             duplicates merged into weighted templates), save the\n"
      "             compressed workload to PATH, and advise over it\n"
      "  env: XIA_FAULTS=\"name=p0.5,name2=n3\" arms fault-injection"
      " points;\n"
      "       XIA_FAULTS_SEED seeds their PRNGs\n");
  return 2;
}

// Every failure exits with a code derived from the StatusCode (see
// StatusExitCode), so scripts can distinguish e.g. not-found from
// data-loss without parsing stderr.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return StatusExitCode(status);
}

Status LoadDataDirectory(const std::string& dir,
                         storage::DocumentStore* store,
                         storage::StatisticsCatalog* statistics) {
  XIA_ASSIGN_OR_RETURN(const std::vector<storage::LoadedCollection> loaded,
                       storage::LoadXmlDirectory(dir, store, statistics));
  for (const storage::LoadedCollection& loaded_coll : loaded) {
    XIA_ASSIGN_OR_RETURN(const storage::Collection* coll,
                         store->GetCollection(loaded_coll.name));
    std::printf("loaded collection %-12s %6zu documents, %s\n",
                loaded_coll.name.c_str(), loaded_coll.documents,
                HumanBytes(static_cast<double>(coll->total_bytes())).c_str());
  }
  return Status::OK();
}

// Validates an output file path up front: the parent directory must exist
// and the path must not name a directory. Run *before* the expensive work
// so a typo'd --metrics-json / --capture path fails immediately with a
// clear error instead of silently writing nothing at the end.
Status ValidateOutputPath(const std::string& path, const char* what) {
  const fs::path p(path);
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    return Status::InvalidArgument(std::string(what) + " path " + path +
                                   " is a directory");
  }
  if (p.has_parent_path() && !fs::is_directory(p.parent_path(), ec)) {
    return Status::NotFound(std::string(what) + " directory does not exist: " +
                            p.parent_path().string());
  }
  return Status::OK();
}

// Writes the process-wide metrics snapshot as JSON; 0 on success.
int DumpMetricsJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n", path.c_str());
    return 1;
  }
  out << obs::MetricsRegistry::Global().Snapshot().ToJson() << "\n";
  std::printf("metrics snapshot written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (Status s = fault::FaultRegistry::Global().ConfigureFromEnv(); !s.ok()) {
    return Fail(s);
  }
  std::string data_dir;
  std::string snapshot_file;
  std::string workload_file;
  bool demo = false;
  bool all_index = false;
  bool explain = false;
  bool report = false;
  std::string metrics_json_path;
  std::string capture_path;
  advisor::AdvisorOptions options;
  options.disk_budget_bytes = 10.0 * 1024 * 1024;
  options.algorithm = advisor::SearchAlgorithm::kTopDownFull;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (!v) return Usage();
      data_dir = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (!v) return Usage();
      snapshot_file = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (!v) return Usage();
      workload_file = v;
    } else if (arg == "--budget") {
      const char* v = next();
      if (!v || !ParseByteSize(v, &options.disk_budget_bytes)) return Usage();
    } else if (arg == "--budget-ms") {
      const char* v = next();
      if (!v || !ParseDouble(v, &options.budget_ms) ||
          options.budget_ms <= 0) {
        return Usage();
      }
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (!v) return Usage();
      const Result<advisor::SearchAlgorithm> algorithm =
          advisor::ParseSearchAlgorithm(v);
      if (!algorithm.ok()) return Usage();
      options.algorithm = *algorithm;
    } else if (arg == "--beta") {
      const char* v = next();
      if (!v || !ParseDouble(v, &options.beta)) return Usage();
    } else if (arg == "--no-generalize") {
      options.generalize = false;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--all-index") {
      all_index = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (!v) return Usage();
      metrics_json_path = v;
    } else if (arg == "--capture") {
      const char* v = next();
      if (!v) return Usage();
      capture_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage();
    }
  }
  if ((data_dir.empty() && snapshot_file.empty() && !demo) ||
      workload_file.empty()) {
    return Usage();
  }
  // Fail fast on unwritable output destinations, before any data loads.
  if (!metrics_json_path.empty()) {
    if (Status s = ValidateOutputPath(metrics_json_path, "--metrics-json");
        !s.ok()) {
      return Fail(s);
    }
  }
  if (!capture_path.empty()) {
    if (Status s = ValidateOutputPath(capture_path, "--capture"); !s.ok()) {
      return Fail(s);
    }
  }

  storage::DocumentStore store;
  storage::StatisticsCatalog statistics;
  if (demo) {
    tpox::TpoxScale scale;
    if (Status s = tpox::BuildTpoxDatabase(scale, &store, &statistics);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("demo database: %zu securities, %zu orders, %zu customers\n",
                scale.security_docs, scale.order_docs, scale.custacc_docs);
  } else if (!snapshot_file.empty()) {
    if (Status s = storage::LoadSnapshotFromFile(snapshot_file, &store);
        !s.ok()) {
      return Fail(s);
    }
    for (const std::string& name : store.CollectionNames()) {
      auto coll = store.GetCollection(name);
      if (!coll.ok()) return Fail(coll.status());
      statistics.RunStats(**coll);
      std::printf("restored collection %-12s %6zu documents\n", name.c_str(),
                  (*coll)->live_count());
    }
  } else {
    if (Status s = LoadDataDirectory(data_dir, &store, &statistics);
        !s.ok()) {
      return Fail(s);
    }
  }

  // LoadWorkloadFromFile verifies the CRC trailer when the file has one,
  // so a bit-flipped saved capture fails with kDataLoss instead of being
  // silently advised on.
  auto workload = xia::workload::LoadWorkloadFromFile(workload_file);
  if (!workload.ok()) return Fail(workload.status());
  std::printf("workload: %zu statements\n", workload->size());

  if (!capture_path.empty()) {
    // Run the raw workload through the capture -> templatize pipeline:
    // constants become markers, duplicates merge into weighted templates,
    // and both the file and the advise run below use the compressed form.
    xia::workload::WorkloadCapture capture;
    capture.set_enabled(true);
    for (const auto& stmt : *workload) capture.Publish(stmt);
    xia::workload::Templatizer templatizer;
    for (const auto& cq : capture.Drain()) {
      templatizer.Add(cq.statement, cq.statement.frequency);
    }
    engine::Workload templatized = templatizer.ToWorkload();
    if (Status s = xia::workload::SaveWorkloadToFile(templatized,
                                                     capture_path);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("captured: %llu statements -> %zu templates (%.1fx), "
                "saved to %s\n",
                static_cast<unsigned long long>(templatizer.raw_count()),
                templatizer.template_count(), templatizer.DedupRatio(),
                capture_path.c_str());
    *workload = std::move(templatized);
  }
  std::printf("\n");

  advisor::IndexAdvisor advisor(&store, &statistics);

  if (all_index) {
    auto rec = advisor.AllIndexConfiguration(*workload);
    if (!rec.ok()) return Fail(rec.status());
    std::printf("All-Index configuration (%zu indexes, %s, est. %.2fx):\n",
                rec->indexes.size(),
                HumanBytes(rec->total_size_bytes).c_str(), rec->est_speedup);
    for (const auto& ri : rec->indexes) std::printf("  %s\n", ri.ddl.c_str());
    if (!metrics_json_path.empty()) return DumpMetricsJson(metrics_json_path);
    return 0;
  }

  auto rec = advisor.Recommend(*workload, options);
  if (!rec.ok()) return Fail(rec.status());

  std::printf("recommendation (%s, budget %s):\n",
              advisor::SearchAlgorithmName(options.algorithm),
              HumanBytes(options.disk_budget_bytes).c_str());
  for (const auto& ri : rec->indexes) {
    std::printf("  %s  -- %s%s\n", ri.ddl.c_str(),
                HumanBytes(static_cast<double>(ri.size_bytes)).c_str(),
                ri.is_general ? ", general" : "");
  }
  std::printf(
      "\ntotal size %s | est. speedup %.2fx | %zu/%zu candidates "
      "(basic/total) | %llu optimizer calls | %.3fs%s\n",
      HumanBytes(rec->total_size_bytes).c_str(), rec->est_speedup,
      rec->basic_candidates, rec->total_candidates,
      static_cast<unsigned long long>(rec->optimizer_calls),
      rec->advisor_seconds, rec->partial ? " | partial=true" : "");

  if (report) {
    auto rendered = advisor::RenderReport(*workload, *rec, &store,
                                          &statistics);
    if (!rendered.ok()) return Fail(rendered.status());
    std::printf("\n%s", rendered->c_str());
  }

  if (explain) {
    storage::Catalog catalog(&store, &statistics);
    if (Status s = advisor.Materialize(*rec, &catalog); !s.ok()) {
      return Fail(s);
    }
    optimizer::Optimizer opt(&store, &catalog, &statistics);
    std::printf("\nplans with the recommendation materialized:\n");
    for (const auto& stmt : *workload) {
      auto plan = opt.Optimize(stmt);
      if (!plan.ok()) return Fail(plan.status());
      std::printf("  %-24s %s\n", stmt.label.c_str(),
                  plan->Describe().c_str());
    }
  }

  if (!metrics_json_path.empty()) return DumpMetricsJson(metrics_json_path);
  return 0;
}
