// Index-build and ingest fast-path benchmark. Emits BENCH_index_build.json.
//
// Three experiments:
//
//  1. bulk vs incremental index build — the same PathValueIndex built by
//     incremental B-tree insertion (the reference path) and by bulk load
//     (extract -> sort -> bottom-up pack). Both must produce identical
//     ContentDigests; the bulk path is the raw-speed win (target: >= 3x
//     at >= 100k entries).
//
//  2. TPoX ingest — end-to-end ingest of serialized TPoX security
//     documents into a store carrying three value indexes. The "before"
//     pipeline is a faithful in-file replica of the seed's, end to end:
//     seed parser (char-at-a-time scanning, one heap std::string per
//     name, unconditional entity decoding, no reserves), seed document
//     representation (per-node label strings, per-parent children
//     vectors), seed store accounting (full-document byte scan on add),
//     seed extraction (fresh result vector per document per pattern),
//     and per-document incremental index insertion. The "after" pipeline
//     is this tree's fast path: memchr-scanning interning parser into
//     compact pre-order node records and a values arena, O(1)-accounted
//     batch adds, and one BuildBulk per index at the end. Both parsers
//     emit nodes in the same order and both stores assign ids 0..N-1, so
//     the before-side incremental indexes and the after-side bulk indexes
//     must agree on every content digest (target: >= 2x end-to-end
//     docs/sec).
//
//  3. online build stall window — build an index online while a mutator
//     thread writes under the exclusive lock; report the write-stall
//     window (exclusive-lock time) as a fraction of the whole build
//     (target: <= 10%), and verify the online result is digest-identical
//     to an offline rebuild of the final state.
//
// `--smoke` shrinks every size for the CI smoke test (bench label); the
// speedup *targets* are asserted only at full size, where they are
// meaningful.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <shared_mutex>
#include <thread>

#include "bench/bench_common.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/online_build.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/parser.h"

namespace xia::bench {
namespace {

xpath::IndexPattern SymbolPattern() {
  return xpath::IndexPattern{*xpath::ParsePattern("/Security/Symbol"),
                             xpath::ValueType::kString};
}

// One index entry per document, distinct keys. Symbols are
// hash-scrambled (odd-constant multiplication is a bijection on 2^64),
// so keys arrive in random order as real data does — ascending keys
// would hand the incremental path its best case (pure rightmost-leaf
// appends) and misstate the bulk-load win.
xml::Document EntryDoc(size_t seq) {
  xml::Document doc;
  const auto root = doc.AddRoot("Security");
  const uint64_t scrambled =
      static_cast<uint64_t>(seq) * 0x9E3779B97F4A7C15ull;
  doc.AddElement(root, "Symbol",
                 StringPrintf("SYM%016llx",
                              static_cast<unsigned long long>(scrambled)));
  doc.AddElement(root, "Yield", StringPrintf("%.1f", (seq % 97) / 10.0));
  return doc;
}

// ---------------------------------------------------------------------
// Experiment 1: bulk vs incremental build.

void BenchBuildPaths(BenchJsonWriter* json, size_t entries, bool full) {
  PrintHeader(StringPrintf("index build: %zu entries", entries));
  storage::DocumentStore store;
  storage::Collection* coll = *store.CreateCollection("C");
  for (size_t i = 0; i < entries; ++i) coll->Add(EntryDoc(i));

  const xpath::IndexPattern pattern = SymbolPattern();
  Stopwatch sw;
  storage::PathValueIndex incremental("inc", "C", pattern);
  incremental.Build(*coll);
  const double incremental_s = sw.ElapsedSeconds();

  sw.Restart();
  storage::PathValueIndex bulk("bulk", "C", pattern);
  bulk.BuildBulk(*coll);
  const double bulk_s = sw.ElapsedSeconds();

  const uint32_t digest = incremental.ContentDigest();
  if (bulk.ContentDigest() != digest) {
    std::fprintf(stderr, "fatal: bulk build diverged from incremental\n");
    std::exit(1);
  }
  const double speedup = incremental_s / std::max(bulk_s, 1e-9);
  std::printf("  incremental   %8.3fs\n", incremental_s);
  std::printf("  bulk          %8.3fs  (%.2fx)\n", bulk_s, speedup);
  std::printf("  digests identical: 0x%08x\n", digest);
  json->AddResult(StringPrintf(
      "{\"experiment\": \"build\", \"entries\": %zu, "
      "\"incremental_seconds\": %.6f, \"bulk_serial_seconds\": %.6f, "
      "\"speedup_bulk\": %.2f}",
      entries, incremental_s, bulk_s, speedup));
  if (full && speedup < 3.0) {
    std::fprintf(stderr,
                 "fatal: bulk build %.2fx < 3x target at %zu entries\n",
                 speedup, entries);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------
// Experiment 2: end-to-end TPoX ingest, seed pipeline vs fast path.

// The seed's document representation: a heap std::string per label and
// value in every node (no interning), children vectors grown from zero,
// no arena pre-sizing. SeedDoc's mutators replicate the seed Document's
// allocation behavior exactly — including the double allocation in the
// "@name" attribute spelling.
struct SeedNode {
  std::string label;
  std::string value;
  int32_t parent = -1;
  std::vector<int32_t> children;
};

struct SeedDoc {
  std::vector<SeedNode> nodes;

  int32_t AddRoot(const std::string& label) {
    SeedNode n;
    n.label = label;
    nodes.push_back(std::move(n));
    return 0;
  }
  int32_t AddChild(int32_t parent, std::string label, std::string value) {
    SeedNode n;
    n.label = std::move(label);
    n.value = std::move(value);
    n.parent = parent;
    const int32_t idx = static_cast<int32_t>(nodes.size());
    nodes.push_back(std::move(n));
    nodes[static_cast<size_t>(parent)].children.push_back(idx);
    return idx;
  }
  int32_t AddAttribute(int32_t parent, const std::string& name,
                       const std::string& value) {
    return AddChild(parent, "@" + std::string(name), value);
  }
  void SetValue(int32_t node, std::string_view value) {
    nodes[static_cast<size_t>(node)].value = std::string(value);
  }
};

// A line-for-line port of the seed's ParserImpl (char-at-a-time scan
// loops, <cctype> classification, one heap std::string per parsed name,
// unconditional DecodeEntities string building, accumulate-then-trim-
// then-copy element values), retargeted at SeedDoc. It lives in this
// file so the "before" side of the comparison survives the production
// parser moving on.
class SeedParser {
 public:
  explicit SeedParser(std::string_view text) : text_(text) {}

  // Parses into `out`; false on malformed input (the bench feeds it only
  // documents the production serializer emitted).
  bool Run(SeedDoc* out) { return ParseElement(out, -1); }

 private:
  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(char c) {
    if (!Eof() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  void SkipWhitespace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }
  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':' || c == '-' || c == '.';
  }
  bool ParseName(std::string* out) {
    if (Eof() || !IsNameStart(Peek())) return false;
    const size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    *out = std::string(text_.substr(start, pos_ - start));
    return true;
  }
  static std::string DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      const size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        out += raw[i++];
        continue;
      }
      const std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "lt") {
        out += '<';
      } else if (ent == "gt") {
        out += '>';
      } else if (ent == "amp") {
        out += '&';
      } else if (ent == "quot") {
        out += '"';
      } else if (ent == "apos") {
        out += '\'';
      } else {
        out.append(raw.substr(i, semi - i + 1));
      }
      i = semi + 1;
    }
    return out;
  }
  bool ParseAttributes(SeedDoc* doc, int32_t element) {
    for (;;) {
      SkipWhitespace();
      if (Eof()) return false;
      if (Peek() == '>' || Peek() == '/') return true;
      std::string name;
      if (!ParseName(&name)) return false;
      SkipWhitespace();
      if (!Consume('=')) return false;
      SkipWhitespace();
      const char quote = Eof() ? '\0' : Peek();
      if (quote != '"' && quote != '\'') return false;
      ++pos_;
      const size_t start = pos_;
      while (!Eof() && Peek() != quote) ++pos_;
      if (Eof()) return false;
      const std::string value =
          DecodeEntities(text_.substr(start, pos_ - start));
      ++pos_;
      doc->AddAttribute(element, name, value);
    }
  }
  bool ParseElement(SeedDoc* doc, int32_t parent) {
    if (!Consume('<')) return false;
    std::string name;
    if (!ParseName(&name)) return false;
    const int32_t element = (parent < 0) ? doc->AddRoot(name)
                                         : doc->AddChild(parent, name, "");
    if (!ParseAttributes(doc, element)) return false;
    if (ConsumeLiteral("/>")) return true;
    if (!Consume('>')) return false;

    std::string text;
    for (;;) {
      if (Eof()) return false;
      if (Peek() == '<') {
        if (ConsumeLiteral("</")) {
          std::string close;
          if (!ParseName(&close)) return false;
          if (close != name) return false;
          SkipWhitespace();
          if (!Consume('>')) return false;
          break;
        }
        if (!ParseElement(doc, element)) return false;
      } else {
        const size_t start = pos_;
        while (!Eof() && Peek() != '<') ++pos_;
        text += DecodeEntities(text_.substr(start, pos_ - start));
      }
    }
    const std::string_view trimmed = Trim(text);
    if (!trimmed.empty()) doc->SetValue(element, trimmed);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// The seed's store accounting: documents retained behind a unique_ptr
// each, with a full-document byte scan on add (the seed's
// Collection::Add recomputed ApproximateByteSize per insert).
struct SeedStore {
  std::vector<std::unique_ptr<SeedDoc>> docs;
  size_t total_bytes = 0;

  int32_t Add(SeedDoc doc) {
    size_t bytes = 0;
    for (const SeedNode& n : doc.nodes) {
      bytes += 2 * n.label.size() + n.value.size() + 16;
    }
    total_bytes += bytes;
    docs.push_back(std::make_unique<SeedDoc>(std::move(doc)));
    return static_cast<int32_t>(docs.size() - 1);
  }
};

// The seed's linear-path evaluator over SeedDoc: recursive walk of the
// per-parent children vectors, one freshly allocated result vector per
// document per pattern (the seed's EvaluateLinear returned by value).
void SeedEvalSteps(const SeedDoc& doc, int32_t parent,
                   const std::vector<xpath::Step>& steps, size_t step_index,
                   std::vector<int32_t>* out) {
  const xpath::Step& step = steps[step_index];
  const bool descend = step.axis == xpath::Axis::kDescendant;
  for (int32_t c : doc.nodes[static_cast<size_t>(parent)].children) {
    const SeedNode& child = doc.nodes[static_cast<size_t>(c)];
    if (step.MatchesLabel(child.label)) {
      if (step_index + 1 == steps.size()) {
        out->push_back(c);
      } else {
        SeedEvalSteps(doc, c, steps, step_index + 1, out);
      }
    }
    if (descend && child.label[0] != '@') {
      SeedEvalSteps(doc, c, steps, step_index, out);
    }
  }
}

std::vector<int32_t> SeedEvaluateLinear(const SeedDoc& doc,
                                        const xpath::Path& path) {
  std::vector<int32_t> out;
  if (doc.nodes.empty() || path.empty()) return out;
  if (path.step(0).MatchesLabel(doc.nodes[0].label)) {
    if (path.size() == 1) {
      out.push_back(0);
    } else {
      SeedEvalSteps(doc, 0, path.steps(), 1, &out);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The seed's per-document incremental maintenance: extract this pattern's
// entries seed-style and insert them one at a time. The keys land in the
// real PathValueIndex so the before-side result stays digest-comparable
// with the after-side bulk build (both parsers emit nodes in the same
// order, so the (doc, node) RIDs agree).
void SeedMaintain(const SeedDoc& doc, int32_t id,
                  storage::PathValueIndex* index) {
  const xpath::IndexPattern& pattern = index->pattern();
  for (int32_t n : SeedEvaluateLinear(doc, pattern.path)) {
    const std::string& value = doc.nodes[static_cast<size_t>(n)].value;
    if (value.empty()) continue;
    storage::IndexKey key;
    key.type = pattern.type;
    key.rid = {id, n};
    if (pattern.type == xpath::ValueType::kNumeric) {
      if (!ParseDouble(value, &key.num)) continue;
      key.str.clear();
    } else {
      key.str = value;
    }
    index->InsertKey(key);
  }
}

std::vector<xpath::IndexPattern> IngestPatterns() {
  return {
      xpath::IndexPattern{*xpath::ParsePattern("/Security/Symbol"),
                          xpath::ValueType::kString},
      xpath::IndexPattern{*xpath::ParsePattern("/Security/Yield"),
                          xpath::ValueType::kNumeric},
      xpath::IndexPattern{*xpath::ParsePattern("/Security/SecInfo/*/Sector"),
                          xpath::ValueType::kString},
  };
}

void BenchTpoxIngest(BenchJsonWriter* json, size_t docs, bool full) {
  PrintHeader(StringPrintf("tpox ingest: %zu documents, 3 indexes", docs));
  Random rng(42);
  std::vector<std::string> texts;
  texts.reserve(docs);
  size_t total_bytes = 0;
  for (size_t i = 0; i < docs; ++i) {
    texts.push_back(xml::Serialize(tpox::GenerateSecurityDocument(i, &rng)));
    total_bytes += texts.back().size();
  }
  const auto patterns = IngestPatterns();

  // Each pipeline runs twice — a warmup round whose stores are torn down
  // again, then the measured round. The measured round recycles allocator
  // chunks of its own pipeline's size classes (steady-state ingest), so
  // the comparison is CPU work rather than one-time heap-growth costs
  // that depend on which pipeline happened to run first in this process.

  // ---- Before: the seed pipeline, end to end, in one timed loop:
  // seed parse -> seed store -> seed extraction -> incremental insert.
  // Per-leg stopwatches split the total for the report (two clock reads
  // per document against ~10us of work).
  std::vector<std::unique_ptr<storage::PathValueIndex>> incr;
  size_t seed_nodes = 0;
  double seed_parse_s = 0;
  double incr_maint_s = 0;
  double before_s = 0;
  for (int round = 0; round < 2; ++round) {
    incr.clear();
    for (size_t p = 0; p < patterns.size(); ++p) {
      incr.push_back(std::make_unique<storage::PathValueIndex>(
          StringPrintf("incr%zu", p), "SDOC", patterns[p]));
    }
    SeedStore seed_store;
    seed_nodes = 0;
    seed_parse_s = 0;
    incr_maint_s = 0;
    Stopwatch total_sw;
    Stopwatch leg_sw;
    for (const std::string& text : texts) {
      leg_sw.Restart();
      SeedDoc doc;
      if (!SeedParser(text).Run(&doc)) {
        std::fprintf(stderr, "fatal: seed replica failed to parse\n");
        std::exit(1);
      }
      seed_parse_s += leg_sw.ElapsedSeconds();
      leg_sw.Restart();
      const int32_t id = seed_store.Add(std::move(doc));
      const SeedDoc& stored = *seed_store.docs[static_cast<size_t>(id)];
      seed_nodes += stored.nodes.size();
      for (auto& index : incr) SeedMaintain(stored, id, index.get());
      incr_maint_s += leg_sw.ElapsedSeconds();
    }
    before_s = total_sw.ElapsedSeconds();
    // seed_store is torn down here each round.
  }
  // Capture the before side's content identity as scalars and tear the
  // incremental indexes down too: keeping ~90k B-tree entries and their
  // statistics maps resident — allocated interleaved with the now-freed
  // seed documents — would fragment the heap the after side runs in.
  std::vector<uint32_t> incr_digests;
  std::vector<size_t> incr_counts;
  for (const auto& index : incr) {
    incr_digests.push_back(index->ContentDigest());
    incr_counts.push_back(index->entry_count());
  }
  incr.clear();

  // ---- After: fast parse + batched ingest (hot key extraction per
  // document, one bulk load per index at the end). ----
  std::unique_ptr<storage::DocumentStore> store_bulk;
  std::vector<std::unique_ptr<storage::PathValueIndex>> bulk;
  size_t fast_nodes = 0;
  double fast_parse_add_s = 0;
  double bulk_build_s = 0;
  for (int round = 0; round < 2; ++round) {
    store_bulk = std::make_unique<storage::DocumentStore>();
    storage::Collection* coll_bulk = *store_bulk->CreateCollection("SDOC");
    bulk.clear();
    std::vector<storage::PathValueIndex*> bulk_ptrs;
    for (size_t p = 0; p < patterns.size(); ++p) {
      bulk.push_back(std::make_unique<storage::PathValueIndex>(
          StringPrintf("bulk%zu", p), "SDOC", patterns[p]));
      bulk_ptrs.push_back(bulk.back().get());
    }
    storage::BulkIngestor ingestor(coll_bulk, bulk_ptrs);
    fast_nodes = 0;
    Stopwatch sw;
    for (const std::string& text : texts) {
      auto doc = xml::Parse(text);
      if (!doc.ok()) {
        std::fprintf(stderr, "fatal: %s\n", doc.status().ToString().c_str());
        std::exit(1);
      }
      fast_nodes += doc->size();
      ingestor.Add(*std::move(doc));
    }
    fast_parse_add_s = sw.ElapsedSeconds();
    sw.Restart();
    ingestor.Finish();
    bulk_build_s = sw.ElapsedSeconds();
  }
  const double after_s = fast_parse_add_s + bulk_build_s;
  if (seed_nodes != fast_nodes) {
    std::fprintf(stderr, "fatal: parser node counts diverge (%zu vs %zu)\n",
                 seed_nodes, fast_nodes);
    std::exit(1);
  }

  for (size_t p = 0; p < patterns.size(); ++p) {
    if (incr_digests[p] != bulk[p]->ContentDigest()) {
      std::fprintf(stderr, "fatal: ingest index %zu digests diverge\n", p);
      std::exit(1);
    }
    if (incr_counts[p] == 0) {
      std::fprintf(stderr, "fatal: ingest index %zu is empty\n", p);
      std::exit(1);
    }
  }

  const double speedup = before_s / std::max(after_s, 1e-9);
  std::printf("  before (seed parse + incremental)  %8.3fs"
              "  (parse %.3fs, store+index %.3fs)\n",
              before_s, seed_parse_s, incr_maint_s);
  std::printf("  after  (fast parse + bulk build)   %8.3fs"
              "  (parse+add %.3fs, bulk %.3fs)  (%.2fx)\n",
              after_s, fast_parse_add_s, bulk_build_s, speedup);
  std::printf("  seed parse %.0f docs/s -> fast parse+add %.0f docs/s;"
              " digests identical; tag pool %zu labels\n",
              docs / std::max(seed_parse_s, 1e-9),
              docs / std::max(fast_parse_add_s, 1e-9), xml::Tag::PoolSize());
  json->AddResult(StringPrintf(
      "{\"experiment\": \"ingest\", \"docs\": %zu, \"bytes\": %zu, "
      "\"before_seconds\": %.6f, \"seed_parse_seconds\": %.6f, "
      "\"incremental_index_seconds\": %.6f, \"after_seconds\": %.6f, "
      "\"fast_parse_add_seconds\": %.6f, \"bulk_build_seconds\": %.6f, "
      "\"speedup\": %.2f, \"tag_pool_size\": %zu}",
      docs, total_bytes, before_s, seed_parse_s, incr_maint_s, after_s,
      fast_parse_add_s, bulk_build_s, speedup, xml::Tag::PoolSize()));
  if (full && speedup < 2.0) {
    std::fprintf(stderr, "fatal: ingest %.2fx < 2x target\n", speedup);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------
// Experiment 3: online build stall window under a write storm.

void BenchOnlineStall(BenchJsonWriter* json, size_t docs, bool full) {
  PrintHeader(StringPrintf("online build stall: %zu documents", docs));
  storage::DocumentStore store;
  storage::StatisticsCatalog stats;
  storage::Catalog catalog(&store, &stats);
  std::shared_mutex db_mu;
  storage::Collection* coll = *store.CreateCollection("C");
  for (size_t i = 0; i < docs; ++i) coll->Add(EntryDoc(i));

  // Offline reference: the whole build time IS the write-stall window.
  Stopwatch sw;
  {
    std::unique_lock<std::shared_mutex> lock(db_mu);
    if (!catalog.CreateIndex("offline", "C", SymbolPattern()).ok()) {
      std::fprintf(stderr, "fatal: offline build failed\n");
      std::exit(1);
    }
  }
  const double offline_s = sw.ElapsedSeconds();

  std::atomic<bool> done{false};
  std::atomic<size_t> writes{0};
  std::thread mutator([&] {
    size_t seq = 10 * docs;
    while (!done.load(std::memory_order_acquire)) {
      std::unique_lock<std::shared_mutex> lock(db_mu);
      const xml::DocId id = coll->Add(EntryDoc(seq++));
      catalog.NotifyInsert("C", id, coll->Get(id));
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  storage::OnlineBuildReport report;
  auto built = storage::BuildIndexOnline(&catalog, &db_mu, "online", "C",
                                         SymbolPattern(), {}, nullptr,
                                         &report);
  done.store(true, std::memory_order_release);
  mutator.join();
  if (!built.ok()) {
    std::fprintf(stderr, "fatal: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }

  // The installed index must equal an offline rebuild of the final state.
  storage::PathValueIndex oracle("oracle", "C", SymbolPattern());
  oracle.Build(*coll);
  if ((*built)->physical->ContentDigest() != oracle.ContentDigest()) {
    std::fprintf(stderr, "fatal: online build diverged under writes\n");
    std::exit(1);
  }

  const double stall_frac =
      report.exclusive_seconds / std::max(report.total_seconds, 1e-9);
  std::printf("  offline build (lock held)  %8.3fs\n", offline_s);
  std::printf("  online total               %8.3fs\n", report.total_seconds);
  std::printf("  online write-stall window  %8.3fs  (%.1f%% of build)\n",
              report.exclusive_seconds, 100.0 * stall_frac);
  std::printf("  concurrent writes %zu, delta ops replayed %zu\n",
              writes.load(), report.delta_ops_applied);
  json->AddResult(StringPrintf(
      "{\"experiment\": \"online_stall\", \"docs\": %zu, "
      "\"offline_seconds\": %.6f, \"online_total_seconds\": %.6f, "
      "\"online_stall_seconds\": %.6f, \"stall_fraction\": %.4f, "
      "\"concurrent_writes\": %zu, \"delta_ops\": %zu}",
      docs, offline_s, report.total_seconds, report.exclusive_seconds,
      stall_frac, writes.load(), report.delta_ops_applied));
  if (full && stall_frac > 0.10) {
    std::fprintf(stderr, "fatal: stall window %.1f%% > 10%% target\n",
                 100.0 * stall_frac);
    std::exit(1);
  }
}

}  // namespace
}  // namespace xia::bench

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool full = !smoke;
  xia::bench::BenchJsonWriter json("index_build");
  // Ingest runs first: it is the throughput experiment most sensitive to
  // allocator state, so it gets the process's pristine heap. The build
  // and stall experiments compare structures built within one experiment
  // and are insensitive to what ran before them.
  xia::bench::BenchTpoxIngest(&json, full ? 30000 : 300, full);
  xia::bench::BenchBuildPaths(&json, full ? 150000 : 3000, full);
  xia::bench::BenchOnlineStall(&json, full ? 120000 : 3000, full);
  json.Write();
  return 0;
}
