#include "stream.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "tpox/tpox_data.h"
#include "util/string_util.h"
#include "xml/serializer.h"

namespace xia::perfbench {

namespace {

using Path = std::vector<std::string_view>;

// Values of every node reached from the root by the child labels in
// `path` ("*" matches any label; attributes are "@name" children).
void Collect(const xml::Document& doc, xml::NodeIndex node, const Path& path,
             size_t depth, std::vector<std::string>* out) {
  if (depth == path.size()) {
    out->push_back(doc.node(node).value);
    return;
  }
  for (const xml::NodeIndex child : doc.children(node)) {
    if (path[depth] == "*" || doc.node(child).label.view() == path[depth]) {
      Collect(doc, child, path, depth + 1, out);
    }
  }
}

std::vector<std::string> Values(const xml::Document& doc, const Path& path) {
  std::vector<std::string> out;
  if (!doc.empty()) Collect(doc, doc.root(), path, 0, &out);
  return out;
}

std::string Value(const xml::Document& doc, const Path& path) {
  std::vector<std::string> values = Values(doc, path);
  return values.empty() ? std::string() : std::move(values.front());
}

double Number(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

// Scan predicates. Thresholds carry one more decimal than the generated
// values, so no value ever ties a strict comparison.
enum ScanShape { kYield, kPe, kSector, kQty, kAmount, kScanShapes };

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kUpdate:
      return "update";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kScan:
      return "scan";
    case OpKind::kAdvise:
      return "advise";
  }
  return "?";
}

TpoxModel::Security TpoxModel::ReadSecurity(const xml::Document& doc) {
  Security sec;
  sec.symbol = Value(doc, {"Symbol"});
  sec.yield = Number(Value(doc, {"Yield"}));
  sec.pe = Number(Value(doc, {"PE"}));
  sec.sectors = Values(doc, {"SecInfo", "*", "Sector"});
  sec.last_trade = Number(Value(doc, {"Price", "LastTrade"}));
  return sec;
}

TpoxModel::Order TpoxModel::ReadOrder(const xml::Document& doc) {
  return Order{Value(doc, {"Order", "@ID"}),
               Number(Value(doc, {"Order", "OrdQty", "@Qty"}))};
}

TpoxModel::TpoxModel(const storage::DocumentStore& store) {
  const auto for_each = [&store](const char* name, auto&& fn) {
    const Result<const storage::Collection*> coll = store.GetCollection(name);
    if (coll.ok()) (*coll)->ForEach([&](xml::DocId, const xml::Document& d) {
      fn(d);
    });
  };
  for_each(tpox::kSecurityCollection, [this](const xml::Document& doc) {
    securities_.push_back(ReadSecurity(doc));
  });
  for_each(tpox::kOrderCollection,
           [this](const xml::Document& doc) { AddOrder(ReadOrder(doc)); });
  for_each(tpox::kCustAccCollection, [this](const xml::Document& doc) {
    Customer cust;
    cust.id = Value(doc, {"Id"});
    cust.short_name = Value(doc, {"Name", "ShortName"});
    for (const std::string& amount :
         Values(doc, {"Accounts", "Account", "Balance", "OnlineActualBal",
                      "Amount"})) {
      cust.amounts.push_back(Number(amount));
    }
    customers_.push_back(std::move(cust));
  });
}

void TpoxModel::AddOrder(Order order) {
  live_orders_.push_back(static_cast<uint32_t>(orders_.size()));
  orders_.push_back(std::move(order));
}

Op TpoxModel::Lookup(Random* rng) const {
  Op op;
  op.kind = OpKind::kLookup;
  op.expect_count = 1;
  size_t pick = rng->Uniform(securities_.size() + live_orders_.size() +
                             customers_.size());
  if (pick < securities_.size()) {
    const Security& sec = securities_[pick];
    if (rng->Bernoulli(0.5)) {
      op.text = StringPrintf(
          "for $s in SECURITY('SDOC')/Security where $s/Symbol = \"%s\" "
          "return $s",
          sec.symbol.c_str());
      op.expect_substring = "<Symbol>" + sec.symbol + "</Symbol>";
    } else {
      op.text = StringPrintf(
          "for $s in SECURITY('SDOC')/Security where $s/Symbol = \"%s\" "
          "return $s/Price/LastTrade",
          sec.symbol.c_str());
      op.expect_number = sec.last_trade;
    }
    return op;
  }
  pick -= securities_.size();
  if (pick < live_orders_.size()) {
    const Order& order = orders_[live_orders_[pick]];
    op.text = StringPrintf(
        "for $o in ORDER('ODOC')/FIXML/Order where $o/@ID = \"%s\" return $o",
        order.id.c_str());
    op.expect_substring = "ID=\"" + order.id + "\"";
    return op;
  }
  pick -= live_orders_.size();
  const Customer& cust = customers_[pick];
  op.text = StringPrintf(
      "for $c in CUSTACC('CADOC')/Customer where $c/Id = %s "
      "return $c/Name/ShortName",
      cust.id.c_str());
  op.expect_substring = cust.short_name;
  return op;
}

Op TpoxModel::Insert(Random* rng) {
  Op op;
  op.kind = OpKind::kInsert;
  op.expect_count = 1;
  xml::Document doc;
  std::string prefix;
  if (rng->Bernoulli(0.5)) {
    doc = tpox::GenerateSecurityDocument(securities_.size(), rng);
    prefix = "insert into SDOC ";
    securities_.push_back(ReadSecurity(doc));
  } else {
    doc = tpox::GenerateOrderDocument(orders_.size(), kSecurities, rng);
    prefix = "insert into ODOC ";
    AddOrder(ReadOrder(doc));
  }
  op.doc_offset = prefix.size();
  op.text = prefix + xml::Serialize(doc);
  return op;
}

Op TpoxModel::Update(Random* rng) {
  Op op;
  op.kind = OpKind::kUpdate;
  op.expect_count = 1;
  const double price =
      static_cast<double>(500 + rng->Uniform(19500)) / 100.0;
  if (rng->Bernoulli(0.5)) {
    Security& sec = securities_[rng->Uniform(securities_.size())];
    op.text = StringPrintf(
        "update SDOC set /Security/Price/LastTrade = %.2f "
        "where /Security[Symbol = \"%s\"]",
        price, sec.symbol.c_str());
    sec.last_trade = price;
  } else {
    const Order& order =
        orders_[live_orders_[rng->Uniform(live_orders_.size())]];
    op.text = StringPrintf(
        "update ODOC set /FIXML/Order/Px = %.2f "
        "where /FIXML/Order[@ID = \"%s\"]",
        price, order.id.c_str());
  }
  return op;
}

Op TpoxModel::Delete(Random* rng) {
  Op op;
  op.kind = OpKind::kDelete;
  op.expect_count = 1;
  const uint32_t pos =
      static_cast<uint32_t>(rng->Uniform(live_orders_.size()));
  const uint32_t victim = live_orders_[pos];
  op.text = StringPrintf("delete from ODOC where /FIXML/Order[@ID = \"%s\"]",
                         orders_[victim].id.c_str());
  live_orders_[pos] = live_orders_.back();
  live_orders_.pop_back();
  return op;
}

Op TpoxModel::Scan(size_t shape, Random* rng) const {
  Op op;
  op.kind = OpKind::kScan;
  uint64_t count = 0;
  switch (static_cast<ScanShape>(shape % kScanShapes)) {
    case kYield: {
      const double t = 0.05 + static_cast<double>(rng->Uniform(100)) / 10;
      op.text = StringPrintf(
          "for $s in SECURITY('SDOC')/Security[Yield > %.2f] "
          "return $s/Symbol",
          t);
      for (const Security& sec : securities_) count += sec.yield > t;
      break;
    }
    case kPe: {
      const double t = 2.05 + static_cast<double>(rng->Uniform(580)) / 10;
      op.text = StringPrintf(
          "for $s in SECURITY('SDOC')/Security where $s/PE > %.2f "
          "return $s/Symbol",
          t);
      for (const Security& sec : securities_) count += sec.pe > t;
      break;
    }
    case kSector: {
      const std::string& sector = rng->Pick(tpox::TpoxDomains::Sectors());
      op.text = StringPrintf(
          "for $s in SECURITY('SDOC')/Security "
          "where $s/SecInfo/*/Sector = \"%s\" return $s/Symbol",
          sector.c_str());
      for (const Security& sec : securities_) {
        count += std::count(sec.sectors.begin(), sec.sectors.end(), sector) >
                 0;
      }
      break;
    }
    case kQty: {
      const double t = static_cast<double>(10 + rng->Uniform(5000));
      op.text = StringPrintf(
          "for $o in ORDER('ODOC')/FIXML/Order[OrdQty/@Qty >= %.0f] "
          "return $o/@ID",
          t);
      for (const uint32_t i : live_orders_) count += orders_[i].qty >= t;
      break;
    }
    case kAmount:
    case kScanShapes: {
      const double t =
          static_cast<double>(100 + rng->Uniform(999900)) + 0.005;
      op.text = StringPrintf(
          "for $c in CUSTACC('CADOC')/Customer "
          "where $c/Accounts/Account/Balance/OnlineActualBal/Amount > %.3f "
          "return $c/Id",
          t);
      for (const Customer& cust : customers_) {
        count += std::any_of(cust.amounts.begin(), cust.amounts.end(),
                             [t](double a) { return a > t; });
      }
      break;
    }
  }
  op.expect_count = count;
  return op;
}

std::vector<Op> LookupPool(const TpoxModel& model, size_t count,
                           uint64_t seed) {
  Random rng(seed * 2654435761u + 1);
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) ops.push_back(model.Lookup(&rng));
  return ops;
}

std::vector<Op> ReadWriteStream(TpoxModel* model, size_t count,
                                uint64_t seed) {
  Random rng(seed * 2654435761u + 2);
  const size_t inserts = count * 20 / 100;
  const size_t updates = count * 15 / 100;
  const size_t deletes = count * 3 / 100;
  const size_t scans = count * 2 / 100;
  std::vector<OpKind> kinds(count, OpKind::kLookup);
  size_t at = 0;
  for (const auto& [kind, n] :
       {std::pair{OpKind::kInsert, inserts}, {OpKind::kUpdate, updates},
        {OpKind::kDelete, deletes}, {OpKind::kScan, scans}}) {
    std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(at), n, kind);
    at += n;
  }
  rng.Shuffle(&kinds);

  std::vector<Op> ops;
  ops.reserve(count);
  size_t scans_made = 0;
  for (const OpKind kind : kinds) {
    switch (kind) {
      case OpKind::kLookup:
        ops.push_back(model->Lookup(&rng));
        break;
      case OpKind::kInsert:
        ops.push_back(model->Insert(&rng));
        break;
      case OpKind::kUpdate:
        ops.push_back(model->Update(&rng));
        break;
      case OpKind::kDelete:
        ops.push_back(model->Delete(&rng));
        break;
      case OpKind::kScan:
        ops.push_back(model->Scan(scans_made++, &rng));
        break;
      case OpKind::kAdvise:  // not a statement
        break;
    }
  }
  return ops;
}

}  // namespace xia::perfbench
