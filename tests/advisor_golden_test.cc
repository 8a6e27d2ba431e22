// Golden recommendations: pins Recommend's output — the sorted DDL set,
// the benefit to the last bit, and the optimizer-call count — for two
// search algorithms at 0.5x and 2x the All-Index size, over the TPoX
// queries, the queries plus the TPoX transaction mix, and one seeded
// synthetic workload. A fourth, perfbench-shaped workload (the 11 TPoX
// queries plus 100 synthetic statements on the standard bench database)
// runs at 0.25x and 1x, where greedy+heuristics takes many iterations.
// Any change to planning, costing, benefit evaluation or search that
// moves a recommendation, a benefit bit or a what-if call shows up here;
// performance work on those layers must leave every line unchanged.
//
// A second golden, tests/testdata/advisor_candidates.golden, pins the
// candidate pipeline of every workload: each candidate's rendering,
// covered basics, affected statements and DAG edges, the roots and the
// generalization statistics.
//
// On a mismatch the recommendation test prints the case's actual line in
// the table's own syntax; the candidate test prints the first differing
// line of the dump.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/dag.h"
#include "advisor/generalize.h"
#include "tpox/synthetic.h"
#include "tpox/tpox_data.h"
#include "tpox/tpox_workload.h"
#include "util/random.h"
#include "util/string_util.h"

namespace xia::advisor {
namespace {

struct GoldenCase {
  const char* workload;
  const char* algorithm;  // "all-index" for AllIndexConfiguration
  double budget_fraction;
  double benefit;
  uint64_t optimizer_calls;
  std::vector<std::string> ddls;  // sorted
};

// clang-format off
const std::vector<GoldenCase>& Golden() {
  static const std::vector<GoldenCase> cases = {
      {"tpox", "all-index", 1, 0x1.9b4b421683a1bp+8, 33, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/PE' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecurityType' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"tpox", "heuristics", 0.5, 0x1.3f625864d3f41p+8, 37, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)"}},
      {"tpox", "heuristics", 2, 0x1.9b4b421683a1bp+8, 38, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"tpox", "topdown-full", 0.5, 0x1.3ca1118876909p+8, 53, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)"}},
      {"tpox", "topdown-full", 2, 0x1.896f2a486b08fp+8, 53, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)"}},
      {"tpox-mix", "all-index", 1, 0x1.8c8036c700586p+9, 61, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/PE' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecurityType' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"tpox-mix", "heuristics", 0.5, 0x1.574c8b62bddf3p+9, 65, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)"}},
      {"tpox-mix", "heuristics", 2, 0x1.8c8036c700586p+9, 66, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"tpox-mix", "topdown-full", 0.5, 0x1.56dd39e0144c2p+9, 91, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)"}},
      {"tpox-mix", "topdown-full", 2, 0x1.8368175a1df3dp+9, 91, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)"}},
      {"synthetic", "all-index", 1, 0x1.86352a87c6118p+10, 168, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Account/Currency' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Name/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account//Balance/*/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Currency' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Name/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/*/Hdr/SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/*/Instrmt//Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order//@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@OrdTyp' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Hdr/SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/Close' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo/*/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/CountryOfRegistration' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Currency' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/EPS' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/MarketCap' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price//Close' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price//High' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/High' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Open' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/BondInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"synthetic", "heuristics", 0.5, 0x1.656849742e30ep+10, 464, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Name/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Hdr/SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Instrmt//Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/Close' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/EPS' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/MarketCap' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price//High' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Open' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/BondInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"synthetic", "heuristics", 2, 0x1.86352a87c6119p+10, 599, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account//Balance/*/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Name/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Hdr/SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Instrmt//Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/Close' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo/*/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/EPS' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/MarketCap' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price//High' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Open' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo//StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/BondInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"synthetic", "topdown-full", 0.5, 0x1.0b5fcc3d5fe6ap+10, 345, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/BondInformation/SubIndustry' AS SQL VARCHAR(64)"}},
      {"synthetic", "topdown-full", 2, 0x1.595e5e50e39ccp+10, 323, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account//Balance/*/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//*' AS SQL VARCHAR(64)"}},
      {"perfbench", "all-index", 1, 0x1.189e8f59fb17ep+13, 309, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/*/Account/Balance/OnlineActualBal//Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//*/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Accounts/Account/OpeningDate' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Address//Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Languages/Language' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/Balance/OnlineActualBal/Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/OpeningDate' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/City' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/PostalCode' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Name/LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/*//*/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/*/Account' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/*/Px' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//*/@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Order/@ID' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Order/Account' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/*//SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/*/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@OrdTyp' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@Side' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@TmInForce' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Hdr/SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Hdr/TargetCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Instrmt/Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Px' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/*/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/*/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/FundInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//MarketCap' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Price/High' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo/BondInformation//SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecurityType' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/CountryOfRegistration' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Currency' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Issued' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/PE' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price//Close' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Low' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Open' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation//Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecurityType' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"perfbench", "heuristics", 0.25, 0x1.84f7ac4de5809p+12, 749, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/City' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/PostalCode' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Account' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Order/@ID' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order//SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Px' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/*/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/FundInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo/BondInformation//SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE"}},
      {"perfbench", "heuristics", 1, 0x1.189e8f59fb17ep+13, 1376, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Account/Balance/OnlineActualBal//Amount' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Accounts/Account/OpeningDate' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Address//Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Accounts/Account/OpeningDate' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/City' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/PostalCode' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Address/Street' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Id' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Tier' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//@TrdDt' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Account' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Order/@ID' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//Sym' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order//SenderCompID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/@ID' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/OrdQty/@Qty' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML/Order/Px' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/*/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/*/FundInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//BondInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//MarketCap' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//SecInfo/BondInformation//SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/CountryOfRegistration' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Name' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/PE' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/LastTrade' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Low' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Price/Open' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/*/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation//Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Industry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/FundInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/Sector' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecInfo/StockInformation/SubIndustry' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/SecurityType' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Symbol' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Volume' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE"}},
      {"perfbench", "topdown-full", 0.25, 0x1.976f8dc22b3bbp+11, 694, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Accounts/Account/OpeningDate' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//Address//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//LastName' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/DateOfBirth' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer/Nationality' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//*' AS SQL DOUBLE"}},
      {"perfbench", "topdown-full", 1, 0x1.f7020d2184862p+12, 694, {
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON CADOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Customer//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON ODOC(xmlcol) GENERATE KEY USING XMLPATTERN '/FIXML//*' AS SQL VARCHAR(64)",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//*' AS SQL DOUBLE",
        "CREATE INDEX idx ON SDOC(xmlcol) GENERATE KEY USING XMLPATTERN '/Security//*' AS SQL VARCHAR(64)"}},
  };
  return cases;
}
// clang-format on

std::string Render(const char* workload, const char* algorithm,
                   double fraction, const Recommendation& rec,
                   const std::vector<std::string>& ddls) {
  std::string out = StringPrintf(
      "{\"%s\", \"%s\", %g, %a, %llu, {", workload, algorithm, fraction,
      rec.benefit, static_cast<unsigned long long>(rec.optimizer_calls));
  for (size_t i = 0; i < ddls.size(); ++i) {
    out += StringPrintf("%s\n        \"%s\"", i == 0 ? "" : ",",
                        ddls[i].c_str());
  }
  return out + "}},";
}

class AdvisorGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpox::TpoxScale scale;
    scale.security_docs = 300;
    scale.order_docs = 400;
    scale.custacc_docs = 100;
    scale.seed = 42;
    ASSERT_TRUE(tpox::BuildTpoxDatabase(scale, &store_, &stats_).ok());
    // The standard bench database (bench/bench_common.h) the perfbench
    // advise workload runs on.
    tpox::TpoxScale bench_scale;
    bench_scale.security_docs = 800;
    bench_scale.order_docs = 1200;
    bench_scale.custacc_docs = 300;
    bench_scale.seed = 42;
    ASSERT_TRUE(
        tpox::BuildTpoxDatabase(bench_scale, &bench_store_, &bench_stats_)
            .ok());
  }

  static storage::DocumentStore* StoreFor(const std::string& name) {
    return name == "perfbench" ? &bench_store_ : &store_;
  }
  static storage::StatisticsCatalog* StatsFor(const std::string& name) {
    return name == "perfbench" ? &bench_stats_ : &stats_;
  }

  static engine::Workload MakeWorkload(const std::string& name) {
    engine::Workload workload;
    if (name == "perfbench") {
      // The shape of one perfbench advise input: the TPoX queries, then
      // 100 seeded synthetic statements over all three collections.
      auto queries = tpox::TpoxQueries();
      EXPECT_TRUE(queries.ok()) << queries.status();
      if (queries.ok()) workload = std::move(*queries);
      Random rng(7);
      auto synthetic = tpox::GenerateSyntheticWorkload(
          bench_stats_,
          {tpox::kSecurityCollection, tpox::kOrderCollection,
           tpox::kCustAccCollection},
          100, &rng);
      EXPECT_TRUE(synthetic.ok()) << synthetic.status();
      if (synthetic.ok()) {
        for (engine::Statement& stmt : *synthetic) {
          workload.push_back(std::move(stmt));
        }
      }
      return workload;
    }
    if (name == "synthetic") {
      Random rng(5);
      auto synthetic = tpox::GenerateSyntheticWorkload(
          stats_,
          {tpox::kSecurityCollection, tpox::kOrderCollection,
           tpox::kCustAccCollection},
          60, &rng);
      EXPECT_TRUE(synthetic.ok()) << synthetic.status();
      return synthetic.ok() ? std::move(*synthetic) : workload;
    }
    auto queries = tpox::TpoxQueries();
    EXPECT_TRUE(queries.ok()) << queries.status();
    if (queries.ok()) workload = std::move(*queries);
    if (name == "tpox-mix") {
      Random rng(11);
      auto mix = tpox::TpoxTransactionMix(2, 300, 400, 100, &rng);
      EXPECT_TRUE(mix.ok()) << mix.status();
      if (mix.ok()) {
        for (engine::Statement& stmt : *mix) {
          workload.push_back(std::move(stmt));
        }
      }
    }
    return workload;
  }

  static storage::DocumentStore store_;
  static storage::StatisticsCatalog stats_;
  static storage::DocumentStore bench_store_;
  static storage::StatisticsCatalog bench_stats_;
};

storage::DocumentStore AdvisorGoldenTest::store_;
storage::StatisticsCatalog AdvisorGoldenTest::stats_;
storage::DocumentStore AdvisorGoldenTest::bench_store_;
storage::StatisticsCatalog AdvisorGoldenTest::bench_stats_;

constexpr const char* kWorkloads[] = {"tpox", "tpox-mix", "synthetic",
                                      "perfbench"};

std::vector<std::string> SortedDdls(const Recommendation& rec) {
  std::vector<std::string> ddls;
  for (const RecommendedIndex& index : rec.indexes) ddls.push_back(index.ddl);
  std::sort(ddls.begin(), ddls.end());
  return ddls;
}

TEST_F(AdvisorGoldenTest, RecommendationsMatchGolden) {
  struct Algorithm {
    const char* name;
    SearchAlgorithm algorithm;
  };
  const Algorithm algorithms[] = {
      {"heuristics", SearchAlgorithm::kGreedyWithHeuristics},
      {"topdown-full", SearchAlgorithm::kTopDownFull},
  };
  size_t checked = 0;
  for (const char* name : kWorkloads) {
    const engine::Workload workload = MakeWorkload(name);
    ASSERT_FALSE(workload.empty());
    IndexAdvisor advisor(StoreFor(name), StatsFor(name));
    const std::vector<double> fractions =
        std::string(name) == "perfbench" ? std::vector<double>{0.25, 1.0}
                                         : std::vector<double>{0.5, 2.0};
    auto all_index = advisor.AllIndexConfiguration(workload);
    ASSERT_TRUE(all_index.ok()) << all_index.status();

    struct Run {
      const char* algorithm;
      double fraction;
      Recommendation rec;
    };
    std::vector<Run> runs;
    runs.push_back({"all-index", 1.0, *all_index});
    for (const Algorithm& a : algorithms) {
      for (const double fraction : fractions) {
        AdvisorOptions options;
        options.algorithm = a.algorithm;
        options.disk_budget_bytes = fraction * all_index->total_size_bytes;
        auto rec = advisor.Recommend(workload, options);
        ASSERT_TRUE(rec.ok()) << rec.status();
        runs.push_back({a.name, fraction, std::move(*rec)});
      }
    }
    for (const auto& [algorithm, fraction, rec] : runs) {
      const std::vector<std::string> ddls = SortedDdls(rec);
      const std::string actual = Render(name, algorithm, fraction, rec, ddls);
      const GoldenCase* golden = nullptr;
      for (const GoldenCase& c : Golden()) {
        if (std::string(name) == c.workload &&
            std::string(algorithm) == c.algorithm &&
            fraction == c.budget_fraction) {
          golden = &c;
        }
      }
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden line; actual:\n" << actual;
        continue;
      }
      ++checked;
      EXPECT_EQ(rec.benefit, golden->benefit)
          << StringPrintf("%a vs %a", rec.benefit, golden->benefit)
          << "\nactual:\n"
          << actual;
      EXPECT_EQ(rec.optimizer_calls, golden->optimizer_calls)
          << "actual:\n" << actual;
      EXPECT_EQ(ddls, golden->ddls) << "actual:\n" << actual;
    }
  }
  EXPECT_EQ(checked, Golden().size());
}

std::string JoinIds(const char* label, const std::vector<int>& ids) {
  std::string out = StringPrintf(" | %s", label);
  if (ids.empty()) return out + " -";
  for (int id : ids) out += StringPrintf(" %d", id);
  return out;
}

// The candidate pipeline of Recommend up to the DAG, rendered one line per
// candidate.
std::string DumpCandidates(const std::string& name,
                           const engine::Workload& input,
                           storage::DocumentStore* store,
                           const storage::StatisticsCatalog* statistics) {
  const engine::Workload workload = engine::CompactWorkload(input);
  storage::Catalog scratch(store, statistics);
  optimizer::Optimizer optimizer(store, &scratch, statistics);
  auto set = EnumerateBasicCandidates(workload, optimizer);
  EXPECT_TRUE(set.ok()) << set.status();
  if (!set.ok()) return "";
  const GeneralizeStats stats = GeneralizeCandidates(&*set);
  const std::vector<int> roots = BuildDag(&*set);
  std::string out = StringPrintf(
      "== %s basic %zu total %zu\ngeneralize pairs %zu generated %zu "
      "rounds %zu\nroots",
      name.c_str(), set->basic_count, set->size(), stats.pairs_considered,
      stats.generated, stats.rounds);
  for (int id : roots) out += StringPrintf(" %d", id);
  out += "\n";
  for (const Candidate& c : set->candidates) {
    std::vector<int> affected(c.affected.begin(), c.affected.end());
    out += StringPrintf("%d %s", c.id, c.ToString().c_str()) +
           JoinIds("covers", c.covered_basics) +
           JoinIds("affected", affected) + JoinIds("children", c.children) +
           JoinIds("parents", c.parents) + "\n";
  }
  return out;
}

TEST_F(AdvisorGoldenTest, CandidateSetsAndDagsMatchGolden) {
  std::string actual;
  for (const char* name : kWorkloads) {
    actual += DumpCandidates(name, MakeWorkload(name), StoreFor(name),
                             StatsFor(name));
  }
  std::ifstream in(XIA_TESTDATA_DIR "/advisor_candidates.golden");
  ASSERT_TRUE(in.good()) << "missing advisor_candidates.golden";
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual == golden.str()) return;
  std::istringstream want(golden.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (size_t line = 1;; ++line) {
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    if (!has_want && !has_got) break;
    if (has_want != has_got || want_line != got_line) {
      ADD_FAILURE() << "candidate dump differs at line " << line
                    << "\ngolden: " << (has_want ? want_line : "<end>")
                    << "\nactual: " << (has_got ? got_line : "<end>");
      break;
    }
  }
}

}  // namespace
}  // namespace xia::advisor
