// Request-path benchmark: one process, one thread, one closed-loop
// client. See README.md for the workloads, the metrics and the server
// call sequence that request_path.cc mirrors.
//
//   xia_perfbench --workload lookup|read_write|advise --seed N
//                 --seconds S --trace 0|1 --work-dir DIR
//
// Prints one detail line (raw and normalized timings, reference times,
// per-kind latencies, digests) and then, as the last line, the result.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host_ref.h"
#include "obs/metrics.h"
#include "request_path.h"
#include "stream.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/crc32.h"
#include "workload/workload_io.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Typical reference-loop time on the reference host (4-vCPU x86-64 VM,
// GCC 12 -O3), rounded. A timing measured while the reference loop takes
// this long is reported unchanged.
constexpr double kNominalRefUs = 1000.0;
constexpr int kRefSamplesPerGap = 3;
// When the host slows down, the workloads slow by about the reference
// loop's slowdown to this power (fitted on the reference host over two
// 150 s traces of lookups and advise calls interleaved with the loop; see
// README.md, "Host normalization").
constexpr double kRefExponent = 1.4;

// Factor that scales a timing taken while the reference loop ran in
// `ref_us` to the nominal host.
double NormalizeFactor(double ref_us) {
  return std::pow(kNominalRefUs / ref_us, kRefExponent);
}

// Set-up repetitions; setup_s is their median.
constexpr int kTpoxSetups = 4;
constexpr int kAdviseSetups = 41;
// read_write stream length per second of --seconds (about one second of
// work per unit on the reference host), so the stream — and the store it
// leaves — is fixed by seed and run length.
constexpr size_t kReadWriteOpsPerSecond = 2500;
constexpr size_t kLookupPool = 1 << 17;
constexpr size_t kWarmupOps = 2000;
// Operations per block; the reference loop runs between blocks.
constexpr size_t kLookupBlock = 2000;
constexpr size_t kReadWriteBlock = 100;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xia_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "lookup" && args.workload != "read_write" &&
      args.workload != "advise") {
    Die("--workload must be lookup, read_write or advise");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Median of a few reference-loop runs, so one preempted run does not
// skew it.
double RefNow() {
  std::vector<double> us;
  for (int i = 0; i < kRefSamplesPerGap; ++i) us.push_back(TimeHostRef());
  return Median(std::move(us));
}

// ---------------------------------------------------------------------------
// Measurements of one run.
//
// Ops run in blocks with a reference measurement in every gap between
// blocks. An op's normalized latency is its raw latency scaled by
// NormalizeFactor(mean of the references just before and after its
// block): the host changes speed on a scale of seconds, and a reference
// taken next to the op tracks that better than one figure for the run.

// One timed request. An op is one request, except an advise sweep,
// which is eight requests with a block (and a reference gap) each.
struct Sample {
  float us = 0;  // raw latency
  uint32_t block = 0;
  uint32_t op = 0;
  OpKind kind = OpKind::kLookup;
  bool traced = false;
};

// Raw and normalized latency of one op.
struct OpTime {
  double raw_us = 0;
  double norm_us = 0;
  OpKind kind = OpKind::kLookup;
  bool traced = false;
};

// Layer times of traced ops: raw within the current block, normalized
// once summed over the run.
struct Traced {
  LayerClock layers;
  double op_seconds = 0;
  double xml_parse = 0;
  uint64_t xml_parses = 0;
  std::map<std::string, double> phases;  // advisor depth-0 spans

  void AddScaled(const Traced& other, double factor) {
    layers.codec += other.layers.codec * factor;
    layers.parse += other.layers.parse * factor;
    layers.plan += other.layers.plan * factor;
    layers.execute += other.layers.execute * factor;
    layers.advise += other.layers.advise * factor;
    layers.wal += other.layers.wal * factor;
    layers.capture += other.layers.capture * factor;
    op_seconds += other.op_seconds * factor;
    xml_parse += other.xml_parse * factor;
    xml_parses += other.xml_parses;
    for (const auto& [name, seconds] : other.phases) {
      phases[name] += seconds * factor;
    }
  }
};

struct Run {
  std::vector<Sample> samples;
  std::vector<double> gap_ref;  // gap 0 precedes block 0
  std::vector<double> setup_raw;
  std::vector<double> setup_norm;
  Traced block;   // traced ops of the current block, raw
  Traced traced;  // all traced ops, normalized
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> counts;
  std::map<std::string, std::string> notes;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
  // Index of the block being run.
  uint32_t current_block() const {
    return static_cast<uint32_t>(gap_ref.size() - 1);
  }
  uint32_t next_op() const {
    return samples.empty() ? 0 : samples.back().op + 1;
  }
  void AddSample(double seconds, uint32_t op, OpKind kind, bool is_traced) {
    samples.push_back(Sample{static_cast<float>(seconds * 1e6),
                             current_block(), op, kind, is_traced});
  }
  std::vector<OpTime> Ops() const {
    std::vector<OpTime> ops;
    for (const Sample& s : samples) {
      if (ops.size() <= s.op) ops.push_back(OpTime{0, 0, s.kind, s.traced});
      ops.back().raw_us += s.us;
      ops.back().norm_us += s.us * BlockFactor(s.block);
    }
    return ops;
  }
  double BlockFactor(size_t b) const {
    return NormalizeFactor((gap_ref[b] + gap_ref[b + 1]) / 2);
  }
  void StartBlocks() { gap_ref.push_back(RefNow()); }
  void EndBlock() {
    gap_ref.push_back(RefNow());
    traced.AddScaled(block, BlockFactor(current_block() - 1));
    block = Traced();
  }
  // Times one set-up step, normalized like a block by the references
  // taken right before and after it.
  template <typename Fn>
  auto TimeSetup(Fn&& fn) {
    const double ref_before = RefNow();
    const Clock::time_point start = Clock::now();
    auto result = fn();
    const double seconds = Since(start);
    setup_raw.push_back(seconds);
    setup_norm.push_back(seconds *
                         NormalizeFactor((ref_before + RefNow()) / 2));
    return result;
  }
};

// ---------------------------------------------------------------------------
// Databases.

std::string FreshDir(const Args& args, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::unique_ptr<Database> OpenDatabase(const Args& args, int copy,
                                       const tpox::TpoxScale& scale) {
  auto db = std::make_unique<Database>();
  Check(db->OpenWal(FreshDir(args, "wal" + std::to_string(copy))), "wal");
  Check(tpox::BuildTpoxDatabase(scale, &db->store, &db->statistics), "tpox");
  return db;
}

void CreateIndex(Database* db, const std::string& name,
                 const std::string& collection, const std::string& path,
                 xpath::ValueType type) {
  const xpath::IndexPattern pattern{
      Check(xpath::ParsePattern(path), "pattern"), type};
  Check(db->catalog.CreateIndex(name, collection, pattern).status(),
        "create index");
  Check(db->wal->LogCreateIndex(name, collection, pattern), "log index");
}

// The lookup/read_write database: TPoX at 20k securities, 40k orders and
// 10k customers, with the three lookup indexes. Updates and deletes find
// their document through the Symbol or @ID index and re-index it there.
std::unique_ptr<Database> BuildTpox(const Args& args, int copy, Run* run) {
  return run->TimeSetup([&] {
    tpox::TpoxScale scale;
    scale.security_docs = kSecurities;
    scale.order_docs = kOrders;
    scale.custacc_docs = kCustomers;
    scale.seed = args.seed;
    std::unique_ptr<Database> db = OpenDatabase(args, copy, scale);
    CreateIndex(db.get(), "sec_symbol", tpox::kSecurityCollection,
                "/Security/Symbol", xpath::ValueType::kString);
    CreateIndex(db.get(), "ord_id", tpox::kOrderCollection,
                "/FIXML/Order/@ID", xpath::ValueType::kString);
    CreateIndex(db.get(), "cust_id", tpox::kCustAccCollection,
                "/Customer/Id", xpath::ValueType::kNumeric);
    return db;
  });
}

// Content identity of the store and its real indexes.
std::string Digest(const Database& db) {
  uint32_t crc = 0;
  uint64_t bytes = 0;
  const auto add = [&](const std::string& s) {
    crc = Crc32Update(crc, s.data(), s.size());
    bytes += s.size();
  };
  for (const std::string& name : db.store.CollectionNames()) {
    const storage::Collection* coll =
        Check(db.store.GetCollection(name), "collection");
    add(name);
    coll->ForEach([&](xml::DocId id, const xml::Document& doc) {
      add(std::to_string(id));
      add(xml::Serialize(doc));
    });
    for (const storage::IndexDef* def : db.catalog.IndexesFor(name)) {
      if (def->is_virtual) continue;
      add(def->name + ":" + def->pattern.ToString() + ":" +
          std::to_string(def->physical->ContentDigest()));
    }
  }
  return std::to_string(crc) + "-" + std::to_string(bytes);
}

// ---------------------------------------------------------------------------
// Statement workloads (lookup, read_write).

// The number in a text row ("LastTrade=12.5").
double RowNumber(const std::string& row) {
  const size_t eq = row.find('=');
  return std::strtod(row.c_str() + (eq == std::string::npos ? 0 : eq + 1),
                     nullptr);
}

// Why `reply` is not what `op` must get, or "" if it is.
std::string Verify(const Op& op, const Result<net::ExecReply>& reply) {
  if (!reply.ok()) return reply.status().ToString();
  if (reply->result_count != op.expect_count) {
    return "count " + std::to_string(reply->result_count) + " != expected " +
           std::to_string(op.expect_count);
  }
  if (op.kind != OpKind::kLookup) return "";
  if (reply->rows.size() != 1) return "lookup returned no single row";
  const std::string& row = reply->rows.front();
  if (!std::isnan(op.expect_number)) {
    if (std::fabs(RowNumber(row) - op.expect_number) >
        1e-9 * std::fabs(op.expect_number)) {
      return "row " + row + " does not hold the expected price";
    }
  } else if (row.find(op.expect_substring) == std::string::npos) {
    return "row does not contain " + op.expect_substring;
  }
  return "";
}

// Executes one op, timed and checked; traced ops also time the layers.
void Execute(Database* db, const Op& op, bool traced, uint64_t* request_id,
             Run* run) {
  const Clock::time_point start = Clock::now();
  const Result<net::ExecReply> reply =
      RunStatement(db, op.text, op.is_query(), op.kind == OpKind::kLookup,
                   ++*request_id, traced ? &run->block.layers : nullptr);
  const double seconds = Since(start);
  run->AddSample(seconds, run->next_op(), op.kind, traced);
  ++run->attempted;
  const std::string why = Verify(op, reply);
  if (!why.empty()) {
    run->Fail(std::string(OpKindName(op.kind)) + ": " + why);
    return;
  }
  if (op.kind == OpKind::kScan) {
    run->counts["scan_docs"] += static_cast<double>(reply->docs_examined);
    run->counts["scans"] += 1;
  } else if (op.kind == OpKind::kLookup) {
    run->counts["lookup_entries"] +=
        static_cast<double>(reply->index_entries_scanned);
    run->counts["lookups"] += 1;
  }
  if (!traced) return;
  run->block.op_seconds += seconds;
  if (op.kind == OpKind::kInsert) {
    // xml.parse_us: the document text parsed once more, outside the op.
    const Clock::time_point parse_start = Clock::now();
    const bool parsed =
        xml::Parse(std::string_view(op.text).substr(op.doc_offset)).ok();
    run->block.xml_parse += Since(parse_start);
    ++run->block.xml_parses;
    if (!parsed) run->Fail("insert document does not parse");
  }
}

// Untimed warm-up lookups; their outputs are checked all the same.
void WarmUp(Database* db, const std::vector<Op>& ops, uint64_t* request_id,
            Run* run) {
  Run warm;
  warm.StartBlocks();
  for (const Op& op : ops) Execute(db, op, false, request_id, &warm);
  run->attempted += warm.attempted;
  run->failed += warm.failed;
  run->failures.insert(run->failures.end(), warm.failures.begin(),
                       warm.failures.end());
  db->capture.Drain();
}

// Runs `block_ops(traced)` block by block while `more()` holds, with a
// reference measurement in every gap; every other block is traced when
// the run traces. Between blocks the capture
// batch is drained, outside the timed region, so no timed op ever meets a
// full capture.
template <typename More, typename BlockOps>
void RunBlocks(const Args& args, Database* db, Run* run, More&& more,
               BlockOps&& block_ops) {
  const uint64_t calls_before =
      CounterValue("xia.optimizer.optimize_calls");
  run->StartBlocks();
  while (more()) {
    const bool traced = args.trace && run->current_block() % 2 == 1;
    db->SetTracing(traced ? &run->block.layers : nullptr);
    block_ops(traced);
    db->SetTracing(nullptr);
    run->EndBlock();
    db->capture.Drain();
  }
  run->counts["optimizer_calls"] = static_cast<double>(
      CounterValue("xia.optimizer.optimize_calls") - calls_before);
  if (db->capture.dropped() != 0) run->Fail("capture dropped statements");
}

void RunLookup(const Args& args, Run* run) {
  std::unique_ptr<Database> db;
  for (int i = 0; i < kTpoxSetups; ++i) {
    db.reset();
    db = BuildTpox(args, i, run);
  }
  const std::vector<Op> pool =
      LookupPool(TpoxModel(db->store), kLookupPool, args.seed);
  uint64_t request_id = 0;
  WarmUp(db.get(), std::vector<Op>(pool.begin(), pool.begin() + kWarmupOps),
         &request_id, run);

  size_t next = kWarmupOps;
  const Clock::time_point start = Clock::now();
  RunBlocks(
      args, db.get(), run, [&] { return Since(start) < args.seconds; },
      [&](bool traced) {
        for (size_t i = 0; i < kLookupBlock; ++i) {
          Execute(db.get(), pool[next++ % pool.size()], traced, &request_id,
                  run);
        }
      });
}

void RunReadWrite(const Args& args, Run* run) {
  const size_t count = static_cast<size_t>(std::llround(
      args.seconds * static_cast<double>(kReadWriteOpsPerSecond)));
  std::unique_ptr<Database> db;
  for (int i = 0; i < kTpoxSetups - 1; ++i) {
    db.reset();
    db = BuildTpox(args, i, run);
  }
  TpoxModel model(db->store);
  const std::vector<Op> warm = LookupPool(model, kWarmupOps, args.seed + 1);
  const std::vector<Op> stream = ReadWriteStream(&model, count, args.seed);
  uint64_t request_id = 0;
  WarmUp(db.get(), warm, &request_id, run);

  const uint64_t log_before = db->wal->GetStatus().log_bytes;
  size_t at = 0;
  RunBlocks(
      args, db.get(), run, [&] { return at < stream.size(); },
      [&](bool traced) {
        const size_t end = std::min(stream.size(), at + kReadWriteBlock);
        for (; at < end; ++at) {
          Execute(db.get(), stream[at], traced, &request_id, run);
        }
      });
  run->counts["wal_bytes"] =
      static_cast<double>(db->wal->GetStatus().log_bytes - log_before);
  run->counts["writes"] = static_cast<double>(std::count_if(
      stream.begin(), stream.end(), [](const Op& op) { return !op.is_query(); }));

  // The store after the stream must be a function of the seed alone:
  // replaying only the writes on a fresh build must give the same digest.
  const std::string digest = Digest(*db);
  db.reset();
  db = BuildTpox(args, kTpoxSetups - 1, run);
  Run replay;
  replay.StartBlocks();
  for (const Op& op : stream) {
    if (!op.is_query()) Execute(db.get(), op, false, &request_id, &replay);
  }
  const std::string replay_digest = Digest(*db);
  run->notes["digest"] = digest;
  if (replay.failed != 0 || replay_digest != digest) {
    run->Fail("write replay digest " + replay_digest + " != stream digest " +
              digest);
  }
}

// ---------------------------------------------------------------------------
// Advise workload.

constexpr double kBudgetFractions[] = {0.25, 0.5, 1.0, 2.0};
constexpr const char* kAlgorithms[] = {"topdown-full", "heuristics"};
constexpr const char* kPhases[] = {"compact",    "enumerate", "generalize",
                                   "statistics", "dag",       "initialize",
                                   "search",     "finalize"};

// Each advise input is the 11 TPoX queries plus 100 synthetic statements.
// A run times one sweep of 2.4 inputs per second of --seconds (a sweep
// takes about 0.4 s on the reference host), so its figures rest on many
// seeded workloads; an untimed sweep of each input first records the
// replies its timed sweep must reproduce.
constexpr size_t kAdviseStatements = 111;
constexpr size_t kSyntheticDrawn = 400;
constexpr double kAdviseInputsPerSecond = 2.4;
// The standard bench database (bench/bench_common.h): its seed is fixed,
// so runs differ only in their synthetic statements.
constexpr uint64_t kAdviseDataSeed = 42;

// Synthetic statements with a numeric literal of magnitude 1e6 or more are
// skipped: engine::ToText prints numbers with %.6g, so such a literal goes
// over the wire as "3.2e+06", which ParseStatement rejects (README.md,
// "Known defect"). The rule looks at the value, not at the printed text,
// so the same statements are kept once the printing is fixed.
bool HasLiteralOverMillion(const engine::Statement& stmt) {
  if (!stmt.is_query()) return false;
  for (const xpath::QueryStep& step : stmt.query().binding.steps()) {
    for (const xpath::Predicate& pred : step.predicates) {
      if (pred.literal.type == xpath::ValueType::kNumeric &&
          std::fabs(pred.literal.numeric_value) >= 999999.5) {
        return true;
      }
    }
  }
  return false;
}

// One advise request of a sweep and the reply it must keep giving.
struct AdviseCall {
  std::string algorithm;
  double budget = 0;
  bool recorded = false;
  std::vector<std::string> ddls;  // sorted
  uint64_t optimizer_calls = 0;
};

struct AdviseInput {
  std::string text;
  std::vector<AdviseCall> calls;
};

AdviseInput MakeAdviseInput(Database* db, Random* rng, size_t* skipped) {
  engine::Workload workload = Check(tpox::TpoxQueries(), "tpox queries");
  for (engine::Statement& stmt : Check(
           tpox::GenerateSyntheticWorkload(
               db->statistics,
               {tpox::kSecurityCollection, tpox::kOrderCollection,
                tpox::kCustAccCollection},
               kSyntheticDrawn, rng),
           "synthetic workload")) {
    if (workload.size() == kAdviseStatements) break;
    if (HasLiteralOverMillion(stmt)) {
      ++*skipped;
      continue;
    }
    workload.push_back(std::move(stmt));
  }
  if (workload.size() != kAdviseStatements) Die("too few synthetic statements");
  AdviseInput input;
  input.text = Check(workload::SerializeWorkload(workload), "serialize");
  advisor::IndexAdvisor sizing(&db->store, &db->statistics);
  const double all_index =
      Check(sizing.AllIndexConfiguration(workload), "all-index")
          .total_size_bytes;
  for (const char* algorithm : kAlgorithms) {
    for (const double fraction : kBudgetFractions) {
      AdviseCall call;
      call.algorithm = algorithm;
      call.budget = fraction * all_index;
      input.calls.push_back(std::move(call));
    }
  }
  return input;
}

// One sweep: every call of `input`, each checked against the reply it
// gave the first time. A timed sweep runs each call as its own block and
// records it as part of op `op`. Returns why the sweep failed, or "".
std::string Sweep(Database* db, AdviseInput* input, uint64_t* request_id,
                  bool timed, bool traced, uint64_t* optimizer_calls,
                  Run* run) {
  const uint32_t op = run->next_op();
  std::string why;
  for (AdviseCall& call : input->calls) {
    const Clock::time_point start = Clock::now();
    const Result<AdviseOutcome> out =
        RunAdvise(db, input->text, call.algorithm, call.budget, ++*request_id,
                  traced ? &run->block.layers : nullptr);
    const double seconds = Since(start);
    if (timed) {
      run->AddSample(seconds, op, OpKind::kAdvise, traced);
      if (traced) run->block.op_seconds += seconds;
    }
    if (!out.ok()) {
      why = out.status().ToString();
    } else {
      std::vector<std::string> ddls;
      for (const net::AdviseReplyIndex& index : out->reply.indexes) {
        ddls.push_back(index.ddl);
      }
      std::sort(ddls.begin(), ddls.end());
      *optimizer_calls += out->reply.optimizer_calls;
      if (!call.recorded) {
        call.recorded = true;
        call.ddls = std::move(ddls);
        call.optimizer_calls = out->reply.optimizer_calls;
      } else if (ddls != call.ddls ||
                 out->reply.optimizer_calls != call.optimizer_calls) {
        why = call.algorithm + " at " + std::to_string(call.budget) +
              " bytes: recommendation or optimizer calls changed";
      }
      if (traced) {
        const advisor::Recommendation& rec = out->recommendation;
        for (const obs::SpanRecord& span : rec.trace.spans) {
          if (span.depth == 0) run->block.phases[span.name] += span.seconds;
        }
        run->counts["candidates_basic"] +=
            static_cast<double>(rec.basic_candidates);
        run->counts["candidates_total"] +=
            static_cast<double>(rec.total_candidates);
        run->counts["recommendations"] += 1;
      }
    }
    if (timed) run->EndBlock();
  }
  return why;
}

void RunAdviseWorkload(const Args& args, Run* run) {
  // The standard bench database (800 securities, 1200 orders, 300
  // customers): statistics-bound advising that fits in cache.
  tpox::TpoxScale scale;
  scale.security_docs = 800;
  scale.order_docs = 1200;
  scale.custacc_docs = 300;
  scale.seed = kAdviseDataSeed;
  std::unique_ptr<Database> db;
  for (int i = 0; i < kAdviseSetups; ++i) {
    db.reset();
    db = run->TimeSetup([&] { return OpenDatabase(args, i, scale); });
  }

  Random rng(args.seed * 2654435761u + 3);
  size_t skipped = 0;
  std::vector<AdviseInput> inputs;
  const size_t input_count = std::max<size_t>(
      1, static_cast<size_t>(std::llround(args.seconds * kAdviseInputsPerSecond)));
  for (size_t i = 0; i < input_count; ++i) {
    inputs.push_back(MakeAdviseInput(db.get(), &rng, &skipped));
  }
  run->notes["synthetic_skipped"] = std::to_string(skipped);

  uint64_t request_id = 0;
  for (AdviseInput& input : inputs) {
    uint64_t calls = 0;
    const std::string why = Sweep(db.get(), &input, &request_id, false,
                                  false, &calls, run);
    ++run->attempted;
    if (!why.empty()) run->Fail("advise: " + why);
  }

  const uint64_t hits_before = CounterValue("xia.advisor.benefit.cache_hits");
  const uint64_t misses_before =
      CounterValue("xia.advisor.benefit.cache_misses");
  double optimizer_calls = 0;
  run->StartBlocks();
  for (size_t k = 0; k < inputs.size(); ++k) {
    const bool traced = args.trace && k % 2 == 1;
    uint64_t calls = 0;
    const std::string why = Sweep(db.get(), &inputs[k], &request_id, true,
                                  traced, &calls, run);
    ++run->attempted;
    optimizer_calls += static_cast<double>(calls);
    if (!why.empty()) run->Fail("advise: " + why);
  }

  // Benefit-cache counters over all timed sweeps (counts do not depend
  // on tracing).
  const double hits = static_cast<double>(
      CounterValue("xia.advisor.benefit.cache_hits") - hits_before);
  const double misses = static_cast<double>(
      CounterValue("xia.advisor.benefit.cache_misses") - misses_before);
  run->counts["benefit_cache_hit_ratio"] =
      hits + misses == 0 ? 0 : hits / (hits + misses);
  run->counts["optimizer_calls"] = optimizer_calls;
}

// ---------------------------------------------------------------------------
// Output.

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out_ += std::string(out_.empty() ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

// Per-layer metrics of a traced run.
void AddLayerMetrics(const Run& run, const std::vector<OpTime>& ops,
                     bool advise, Metrics* metrics) {
  const Traced& t = run.traced;
  const double traced_ops = static_cast<double>(std::count_if(
      ops.begin(), ops.end(), [](const OpTime& op) { return op.traced; }));
  const double per_op = 1e6 / std::max(traced_ops, 1.0);
  const double codec = t.layers.codec * per_op;
  const double parse = t.layers.parse * per_op;
  const double plan = t.layers.plan * per_op;
  const double capture = t.layers.capture * per_op;
  const double wal = t.layers.wal * per_op;
  const double execute =
      (t.layers.execute - t.layers.capture - t.layers.wal) * per_op;
  const double e2e = t.op_seconds * per_op;
  metrics->Add("traced.op_mean_us", e2e, "us");
  metrics->Add("net.codec_us", codec, "us");
  metrics->Add("engine.parse_us", parse, "us");
  metrics->Add("optimizer.plan_us", plan, "us");
  metrics->Add("engine.execute_us", execute, "us");
  metrics->Add("workload.capture_us", capture, "us");
  metrics->Add("wal.commit_us", wal, "us");
  double phases_us = 0;
  for (const char* phase : kPhases) {
    const auto it = t.phases.find(phase);
    const double us = it == t.phases.end() ? 0 : it->second * per_op;
    phases_us += us;
    metrics->Add(std::string("advisor.") + phase + "_ms", us / 1e3, "ms");
  }
  metrics->Add("residual_us",
               e2e - (codec + parse + plan + execute + capture + wal +
                      phases_us),
               "us");

  // Overhead on the workload's main op kind, traced against untraced
  // blocks of the same run.
  const OpKind main_kind = advise ? OpKind::kAdvise : OpKind::kLookup;
  std::vector<double> traced_p;
  std::vector<double> untraced_p;
  for (const OpTime& op : ops) {
    if (op.kind == main_kind) {
      (op.traced ? traced_p : untraced_p).push_back(op.norm_us);
    }
  }
  const double untraced = Median(untraced_p);
  metrics->Add("trace_overhead_pct",
               untraced > 0 ? 100 * (Median(traced_p) / untraced - 1) : 0,
               "%");
  metrics->Add("xml.parse_us",
               t.xml_parses == 0 ? 0
                                 : t.xml_parse * 1e6 /
                                       static_cast<double>(t.xml_parses),
               "us");
  const auto count = [&](const char* name) {
    const auto it = run.counts.find(name);
    return it == run.counts.end() ? 0.0 : it->second;
  };
  const auto ratio = [&](const char* num, const char* den) {
    return count(den) == 0 ? 0 : count(num) / count(den);
  };
  metrics->Add("engine.docs_examined_per_scan", ratio("scan_docs", "scans"),
               "count");
  metrics->Add("storage.index_entries_per_lookup",
               ratio("lookup_entries", "lookups"), "count");
  metrics->Add("wal.bytes_per_write", ratio("wal_bytes", "writes"), "count");
  metrics->Add("advisor.optimizer_calls",
               advise ? count("optimizer_calls") /
                            static_cast<double>(ops.size())
                      : 0,
               "count");
  metrics->Add("advisor.benefit_cache_hit_ratio",
               count("benefit_cache_hit_ratio"), "ratio");
  metrics->Add("advisor.candidates_basic",
               ratio("candidates_basic", "recommendations"), "count");
  metrics->Add("advisor.candidates_total",
               ratio("candidates_total", "recommendations"), "count");
  metrics->Add("host.ref_us", Median(run.gap_ref), "us");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Run run;
  if (args.workload == "lookup") {
    RunLookup(args, &run);
  } else if (args.workload == "read_write") {
    RunReadWrite(args, &run);
  } else {
    RunAdviseWorkload(args, &run);
  }
  std::filesystem::remove_all(args.work_dir);
  const bool advise = args.workload == "advise";
  const std::vector<OpTime> op_times = run.Ops();
  const double ops = static_cast<double>(op_times.size());

  std::vector<double> raw;
  std::vector<double> norm;
  std::vector<std::vector<double>> by_kind(kOpKinds);
  for (const OpTime& op : op_times) {
    raw.push_back(op.raw_us);
    norm.push_back(op.norm_us);
    by_kind[static_cast<int>(op.kind)].push_back(op.norm_us);
  }

  // Detail line: raw and normalized values of every timing, the
  // reference times, per-kind latencies and run notes.
  std::string detail =
      "{\"workload\": " + Quote(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"ops\": " + std::to_string(op_times.size()) +
      ", \"ref_us\": {\"nominal\": " + Num(kNominalRefUs) +
      ", \"median\": " + Num(Median(run.gap_ref)) +
      ", \"min\": " + Num(*std::min_element(run.gap_ref.begin(), run.gap_ref.end())) +
      ", \"max\": " + Num(*std::max_element(run.gap_ref.begin(), run.gap_ref.end())) + "}";
  const auto timing = [](const char* name, double raw_value, double norm_value) {
    return std::string("\"") + name + "\": {\"raw\": " + Num(raw_value) +
           ", \"normalized\": " + Num(norm_value) + "}";
  };
  detail += ", \"timings\": {" +
            timing("setup_s", Median(run.setup_raw), Median(run.setup_norm)) +
            ", " + timing("op_p50_us", Median(raw), Median(norm)) + ", " +
            timing("op_p90_us", Percentile(raw, 0.9), Percentile(norm, 0.9)) +
            ", " + timing("op_mean_us", Mean(raw), Mean(norm)) + "}";
  detail += ", \"kinds\": {";
  bool first_kind = true;
  for (int k = 0; k < kOpKinds; ++k) {
    if (by_kind[k].empty()) continue;
    detail += std::string(first_kind ? "" : ", ") + "\"" +
              OpKindName(static_cast<OpKind>(k)) +
              "\": {\"n\": " + std::to_string(by_kind[k].size()) +
              ", \"p50_us\": " + Num(Median(by_kind[k])) +
              ", \"p90_us\": " + Num(Percentile(by_kind[k], 0.9)) +
              ", \"mean_us\": " + Num(Mean(by_kind[k])) + "}";
    first_kind = false;
  }
  detail += "}";
  for (const auto& [key, value] : run.notes) {
    detail += ", " + Quote(key) + ": " + Quote(value);
  }
  detail += ", \"failures\": [";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    detail += (i ? ", " : "") + Quote(run.failures[i]);
  }
  detail += "]}";
  std::printf("detail %s\n", detail.c_str());

  Metrics metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(run.setup_norm), "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("op_p50_us", Median(norm), "us");
    metrics.Add("op_p90_us", Percentile(norm, 0.9), "us");
    metrics.Add("op_mean_us", Mean(norm), "us");
    metrics.Add("optimizer_calls_per_op", run.counts["optimizer_calls"] / ops,
                "count");
  } else {
    AddLayerMetrics(run, op_times, advise, &metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace xia::perfbench

int main(int argc, char** argv) { return xia::perfbench::Main(argc, argv); }
