#include "engine/executor.h"

#include <algorithm>
#include <set>

#include "engine/normalizer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/evaluator.h"
#include "xpath/walk.h"

namespace xia::engine {

namespace {

// Collects result rows when enabled; pure counting otherwise.
struct RowSink {
  bool materialize = false;
  size_t max_rows = 0;
  std::vector<std::string>* rows = nullptr;

  void Emit(const xml::Document& doc, xml::NodeIndex node) {
    if (!materialize || rows->size() >= max_rows) return;
    // Leaf-ish results render as their value; subtrees as XML fragments.
    if (!doc.has_children(node) || doc.is_attribute(node)) {
      std::string row = doc.label(node) + "=";
      row.append(doc.value(node));
      rows->push_back(std::move(row));
    } else {
      rows->push_back(xml::Serialize(doc, node));
    }
  }
};

// Evaluates the normalized query on one document: finds the matched
// binding nodes (in `scratch`, reused across the caller's documents), and
// counts (and optionally materializes) result items — return expressions
// per match, or the match itself.
uint64_t EvaluateOnDocument(const xml::Document& doc,
                            const NormalizedQuery& query, RowSink* sink,
                            xpath::EvalScratch* scratch) {
  xpath::EvaluateInto(doc, query.path, scratch);
  const std::vector<xml::NodeIndex>& matches = scratch->nodes;
  if (query.returns.empty()) {
    for (xml::NodeIndex m : matches) sink->Emit(doc, m);
    return matches.size();
  }
  uint64_t items = 0;
  auto emit = [&](xml::NodeIndex t) {
    sink->Emit(doc, t);
    ++items;
    return false;
  };
  for (xml::NodeIndex m : matches) {
    for (const auto& rel : query.returns) {
      // An empty return path is the match itself. Others emit each target
      // as the walk finds it, once per path (no deduplication).
      if (rel.empty()) {
        emit(m);
      } else {
        xpath::WalkSteps(doc, m, rel, 0, emit);
      }
    }
  }
  return items;
}

}  // namespace

Result<std::vector<xml::DocId>> Executor::CandidateDocs(
    const Statement& statement, const optimizer::Plan& plan,
    ExecResult* result) {
  std::vector<std::set<xml::DocId>> leg_docs;
  for (const optimizer::PlanLeg& leg : plan.legs) {
    if (leg.index_is_virtual) {
      return Status::FailedPrecondition(
          "plan references virtual index " + leg.index_name +
          "; virtual indexes cannot be executed");
    }
    auto physical = catalog_->GetPhysical(leg.index_name);
    if (!physical.ok()) return physical.status();
    auto lookup = leg.predicate.existence
                      ? (*physical)->LookupAll()
                      : (*physical)->Lookup(leg.predicate.op,
                                            leg.predicate.literal);
    if (!lookup.ok()) return lookup.status();
    result->index_entries_scanned += lookup->rids.size();
    result->index_leaf_pages += lookup->leaf_pages_touched;
    std::set<xml::DocId> docs;
    for (const xml::NodeRef& rid : lookup->rids) docs.insert(rid.doc);
    leg_docs.push_back(std::move(docs));
  }
  if (leg_docs.empty()) return std::vector<xml::DocId>{};
  // Intersect across legs (single leg: identity).
  std::vector<xml::DocId> out(leg_docs[0].begin(), leg_docs[0].end());
  for (size_t i = 1; i < leg_docs.size(); ++i) {
    std::vector<xml::DocId> next;
    for (xml::DocId d : out) {
      if (leg_docs[i].count(d) != 0) next.push_back(d);
    }
    out = std::move(next);
  }
  (void)statement;
  return out;
}

Result<ExecResult> Executor::ExecuteQuery(const Statement& statement,
                                          const optimizer::Plan& plan,
                                          const ExecOptions& options) {
  XIA_FAULT_INJECT(fault::points::kExecutorScan);
  auto normalized = Normalize(statement);
  if (!normalized.ok()) return normalized.status();
  auto coll = store_->GetCollection(normalized->collection);
  if (!coll.ok()) return coll.status();

  ExecResult result;
  RowSink sink{options.materialize_rows, options.max_rows, &result.rows};
  xpath::EvalScratch scratch;
  Status interrupt;
  Stopwatch timer;
  if (plan.kind == optimizer::Plan::Kind::kCollectionScan) {
    (*coll)->ForEachWhile([&](xml::DocId, const xml::Document& doc) {
      interrupt = fault::CheckInterrupt(options.deadline, options.cancel);
      if (!interrupt.ok()) return false;
      ++result.docs_examined;
      result.result_count +=
          EvaluateOnDocument(doc, *normalized, &sink, &scratch);
      return true;
    });
    XIA_RETURN_IF_ERROR(interrupt);
  } else {
    auto docs = CandidateDocs(statement, plan, &result);
    if (!docs.ok()) return docs.status();
    for (xml::DocId id : *docs) {
      XIA_RETURN_IF_ERROR(
          fault::CheckInterrupt(options.deadline, options.cancel));
      if (!(*coll)->IsLive(id)) continue;
      ++result.docs_examined;
      result.result_count += EvaluateOnDocument((*coll)->Get(id), *normalized,
                                                &sink, &scratch);
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

Result<ExecResult> Executor::ExecuteInsert(const Statement& statement) {
  const InsertSpec& ins = statement.insert_spec();
  auto coll = store_->GetCollection(ins.collection);
  if (!coll.ok()) return coll.status();
  auto doc = xml::Parse(ins.document_text);
  if (!doc.ok()) return doc.status();

  ExecResult result;
  Stopwatch timer;
  const xml::DocId id = (*coll)->Add(std::move(*doc));
  catalog_->NotifyInsert(ins.collection, id, (*coll)->Get(id));
  result.result_count = 1;
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

Result<ExecResult> Executor::ExecuteDelete(const Statement& statement,
                                           const optimizer::Plan& plan,
                                           const ExecOptions& options) {
  const DeleteSpec& del = statement.delete_spec();
  auto coll = store_->GetCollection(del.collection);
  if (!coll.ok()) return coll.status();

  ExecResult result;
  xpath::EvalScratch scratch;
  Status interrupt;
  Stopwatch timer;
  std::vector<xml::DocId> victims;
  if (plan.legs.empty()) {
    (*coll)->ForEachWhile([&](xml::DocId id, const xml::Document& doc) {
      interrupt = fault::CheckInterrupt(options.deadline, options.cancel);
      if (!interrupt.ok()) return false;
      ++result.docs_examined;
      if (xpath::Exists(doc, del.match, &scratch)) victims.push_back(id);
      return true;
    });
    XIA_RETURN_IF_ERROR(interrupt);
  } else {
    auto docs = CandidateDocs(statement, plan, &result);
    if (!docs.ok()) return docs.status();
    for (xml::DocId id : *docs) {
      XIA_RETURN_IF_ERROR(
          fault::CheckInterrupt(options.deadline, options.cancel));
      if (!(*coll)->IsLive(id)) continue;
      ++result.docs_examined;
      if (xpath::Exists((*coll)->Get(id), del.match, &scratch)) {
        victims.push_back(id);
      }
    }
  }
  // Apply phase: runs to completion regardless of deadline (see
  // ExecOptions::deadline).
  for (xml::DocId id : victims) {
    catalog_->NotifyRemove(del.collection, id, (*coll)->Get(id));
    XIA_RETURN_IF_ERROR((*coll)->Remove(id));
  }
  result.result_count = victims.size();
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

Result<ExecResult> Executor::ExecuteUpdate(const Statement& statement,
                                           const optimizer::Plan& plan,
                                           const ExecOptions& options) {
  const UpdateSpec& upd = statement.update_spec();
  auto coll = store_->GetCollection(upd.collection);
  if (!coll.ok()) return coll.status();

  ExecResult result;
  xpath::EvalScratch scratch;
  Status interrupt;
  Stopwatch timer;
  std::vector<xml::DocId> victims;
  if (plan.legs.empty()) {
    (*coll)->ForEachWhile([&](xml::DocId id, const xml::Document& doc) {
      interrupt = fault::CheckInterrupt(options.deadline, options.cancel);
      if (!interrupt.ok()) return false;
      ++result.docs_examined;
      if (xpath::Exists(doc, upd.match, &scratch)) victims.push_back(id);
      return true;
    });
    XIA_RETURN_IF_ERROR(interrupt);
  } else {
    auto docs = CandidateDocs(statement, plan, &result);
    if (!docs.ok()) return docs.status();
    for (xml::DocId id : *docs) {
      XIA_RETURN_IF_ERROR(
          fault::CheckInterrupt(options.deadline, options.cancel));
      if (!(*coll)->IsLive(id)) continue;
      ++result.docs_examined;
      if (xpath::Exists((*coll)->Get(id), upd.match, &scratch)) {
        victims.push_back(id);
      }
    }
  }

  // Numbers are written with as many digits as reading them back needs.
  const std::string new_value =
      upd.new_value.type == xpath::ValueType::kNumeric
          ? FormatDouble(upd.new_value.numeric_value)
          : upd.new_value.string_value;
  for (xml::DocId id : victims) {
    // Index maintenance via remove/re-insert keeps every real index exact.
    catalog_->NotifyRemove(upd.collection, id, (*coll)->Get(id));
    (*coll)->Mutate(id, [&](xml::Document* doc) {
      for (xml::NodeIndex n : xpath::EvaluateLinear(*doc, upd.target)) {
        doc->SetValue(n, new_value);
        ++result.result_count;
      }
    });
    catalog_->NotifyInsert(upd.collection, id, (*coll)->Get(id));
  }
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

Result<ExecResult> Executor::Execute(const Statement& statement,
                                     const optimizer::Plan& plan,
                                     const ExecOptions& options) {
  XIA_OBS_COUNT("xia.engine.statements_executed", 1);
  Result<ExecResult> result =
      statement.is_insert()   ? ExecuteInsert(statement)
      : statement.is_delete() ? ExecuteDelete(statement, plan, options)
      : statement.is_update() ? ExecuteUpdate(statement, plan, options)
                              : ExecuteQuery(statement, plan, options);
  if (result.ok()) {
    if (commit_log_ != nullptr && !statement.is_query()) {
      // Durability gate: a mutation is acknowledged (and shown to the
      // capture sink) only once the WAL has it.
      XIA_RETURN_IF_ERROR(commit_log_->OnCommit(statement));
    }
    XIA_OBS_COUNT("xia.engine.docs_examined", result->docs_examined);
    XIA_OBS_OBSERVE_LATENCY("xia.engine.exec.seconds", result->wall_seconds);
    if (sink_ != nullptr) sink_->OnExecuted(statement, *result);
  }
  return result;
}

Result<ExecResult> Executor::ExecuteBest(const Statement& statement,
                                         const optimizer::Optimizer& opt) {
  auto plan = opt.Optimize(statement);
  if (!plan.ok()) return plan.status();
  return Execute(statement, *plan);
}

Result<std::string> Executor::ExplainAnalyze(const Statement& statement,
                                             const optimizer::Plan& plan,
                                             const ExecOptions& options) {
  XIA_ASSIGN_OR_RETURN(const ExecResult result,
                       Execute(statement, plan, options));
  std::string out = plan.Describe() + "\n";
  out += StringPrintf(
      "  estimated: cost=%.1f result_docs=%.1f\n", plan.est_cost,
      plan.est_result_docs);
  out += StringPrintf(
      "  actual:    results=%llu docs_examined=%llu index_entries=%llu "
      "leaf_pages=%llu time=%.6fs\n",
      static_cast<unsigned long long>(result.result_count),
      static_cast<unsigned long long>(result.docs_examined),
      static_cast<unsigned long long>(result.index_entries_scanned),
      static_cast<unsigned long long>(result.index_leaf_pages),
      result.wall_seconds);
  return out;
}

}  // namespace xia::engine
