// Seeded request streams for the lookup and read_write workloads, and the
// reply each request must get.
//
// TpoxModel reads the fields the requests touch out of a freshly built
// TPoX store with its own tree walk (not the executor or the XPath
// evaluator), then replays the stream's writes on those plain fields.
// Every expected result below comes from that model: the one row a
// lookup returns, the documents an update or delete touches, and a
// brute-force count for every scan at its position in the stream.

#ifndef XIA_PERFBENCH_STREAM_H_
#define XIA_PERFBENCH_STREAM_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "storage/document_store.h"
#include "util/random.h"
#include "xml/document.h"

namespace xia::perfbench {

/// TPoX scale of the lookup and read_write database.
inline constexpr size_t kSecurities = 20000;
inline constexpr size_t kOrders = 40000;
inline constexpr size_t kCustomers = 10000;

/// Kinds of timed ops; advise sweeps are the advise workload's ops.
enum class OpKind : uint8_t {
  kLookup,
  kInsert,
  kUpdate,
  kDelete,
  kScan,
  kAdvise,
};
inline constexpr int kOpKinds = 6;
const char* OpKindName(OpKind kind);

/// One request and the reply it must get.
struct Op {
  OpKind kind = OpKind::kLookup;
  std::string text;
  /// Rows a query returns, or documents a mutation affects.
  uint64_t expect_count = 0;
  /// Lookups: a substring the single materialized row must contain.
  std::string expect_substring;
  /// Price lookups: the number the single row must hold (NaN otherwise).
  double expect_number = std::numeric_limits<double>::quiet_NaN();
  /// Inserts: offset of the document text within `text`.
  size_t doc_offset = 0;

  bool is_query() const {
    return kind == OpKind::kLookup || kind == OpKind::kScan;
  }
};

/// The stream-relevant fields of every document, kept up to date as
/// generated writes are applied.
class TpoxModel {
 public:
  /// Reads the fields of every document in `store`.
  explicit TpoxModel(const storage::DocumentStore& store);

  /// An indexed point query (TPoX Q1/Q2/Q6/Q9 shape) on a document drawn
  /// uniformly over all live documents.
  Op Lookup(Random* rng) const;
  /// A new Security or Order document.
  Op Insert(Random* rng);
  /// A price update located through the Symbol or @ID index.
  Op Update(Random* rng);
  /// An order deletion located through the @ID index.
  Op Delete(Random* rng);
  /// A query on unindexed paths, with its brute-force result count.
  /// `shape` picks one of five predicates (Yield, PE, Sector, OrdQty,
  /// Balance) round-robin, so every stream scans each equally often.
  Op Scan(size_t shape, Random* rng) const;

 private:
  struct Security {
    std::string symbol;
    double yield = 0;
    double pe = 0;
    std::vector<std::string> sectors;
    double last_trade = 0;
  };
  struct Order {
    std::string id;
    double qty = 0;
  };
  struct Customer {
    std::string id;
    std::string short_name;
    std::vector<double> amounts;
  };

  static Security ReadSecurity(const xml::Document& doc);
  static Order ReadOrder(const xml::Document& doc);
  void AddOrder(Order order);

  std::vector<Security> securities_;
  std::vector<Order> orders_;
  std::vector<Customer> customers_;
  /// Indexes into orders_ of the live orders, for uniform draws.
  std::vector<uint32_t> live_orders_;
};

/// `count` lookups on the unchanged database.
std::vector<Op> LookupPool(const TpoxModel& model, size_t count,
                           uint64_t seed);

/// The read_write stream: `count` operations with exact shares of 60%
/// lookups, 20% inserts, 15% updates, 3% deletes and 2% scans, in seeded
/// order. Advances `model` to the state after the stream.
std::vector<Op> ReadWriteStream(TpoxModel* model, size_t count,
                                uint64_t seed);

}  // namespace xia::perfbench

#endif  // XIA_PERFBENCH_STREAM_H_
