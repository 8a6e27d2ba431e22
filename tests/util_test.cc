#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace xia {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("index foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "index foo");
  EXPECT_EQ(s.ToString(), "not_found: index foo");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::NotFound("x"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kResourceExhausted);
       ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Result<int> Doubler(Result<int> in) {
  XIA_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  Result<int> err = Doubler(Status::Internal("boom"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(RandomTest, DeterministicForEqualSeeds) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RandomTest, UniformCoversDomain) {
  Random rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ZipfStaysInRange) {
  Random rng(13);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.Zipf(100, 1.1), 100u);
  }
}

TEST(RandomTest, ZipfIsSkewed) {
  Random rng(17);
  int head = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(1000, 1.2) < 10) ++head;
  }
  // With skew 1.2 the first ten ranks carry far more than 1% of the mass.
  EXPECT_GT(head, kDraws / 10);
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a/b//c", '/'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", '/'), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("4.5", &v));
  EXPECT_DOUBLE_EQ(v, 4.5);
  EXPECT_TRUE(ParseDouble("  -3 ", &v));
  EXPECT_DOUBLE_EQ(v, -3.0);
  EXPECT_FALSE(ParseDouble("4.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, ParseByteSize) {
  double v = 0;
  EXPECT_TRUE(ParseByteSize("512", &v));
  EXPECT_DOUBLE_EQ(v, 512);
  EXPECT_TRUE(ParseByteSize("0", &v));
  EXPECT_DOUBLE_EQ(v, 0);
  EXPECT_TRUE(ParseByteSize("2KB", &v));
  EXPECT_DOUBLE_EQ(v, 2048);
  EXPECT_TRUE(ParseByteSize("2kb", &v));
  EXPECT_DOUBLE_EQ(v, 2048);
  EXPECT_TRUE(ParseByteSize("1.5MB", &v));
  EXPECT_DOUBLE_EQ(v, 1.5 * 1024 * 1024);
  EXPECT_TRUE(ParseByteSize("3mb", &v));
  EXPECT_DOUBLE_EQ(v, 3.0 * 1024 * 1024);
  EXPECT_TRUE(ParseByteSize("1GB", &v));
  EXPECT_DOUBLE_EQ(v, 1024.0 * 1024 * 1024);
  EXPECT_TRUE(ParseByteSize("2gb", &v));
  EXPECT_DOUBLE_EQ(v, 2.0 * 1024 * 1024 * 1024);
  v = 7;
  EXPECT_FALSE(ParseByteSize("-1", &v));
  EXPECT_FALSE(ParseByteSize("-1MB", &v));
  EXPECT_FALSE(ParseByteSize("MB", &v));
  EXPECT_FALSE(ParseByteSize("", &v));
  EXPECT_FALSE(ParseByteSize("1TB", &v));
  EXPECT_FALSE(ParseByteSize("1Mb", &v));
  EXPECT_FALSE(ParseByteSize("MB1", &v));
  EXPECT_DOUBLE_EQ(v, 7);  // failures leave the output untouched
}

TEST(StringUtilTest, LooksNumeric) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-1.5e3"));
  EXPECT_FALSE(LooksNumeric("SYM0001"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(StringUtilTest, NumericTokenLengthCoversFormatDoubleSpellings) {
  EXPECT_EQ(NumericTokenLength("12 and"), 2u);
  EXPECT_EQ(NumericTokenLength("-3.20335e+06]"), 12u);
  EXPECT_EQ(NumericTokenLength("4.94066e-324 "), 12u);
  EXPECT_EQ(NumericTokenLength("+1E5"), 4u);
  EXPECT_EQ(NumericTokenLength("5e"), 1u);      // no exponent digits
  EXPECT_EQ(NumericTokenLength("5e+]"), 1u);
  EXPECT_EQ(NumericTokenLength("5eq"), 1u);
  EXPECT_EQ(NumericTokenLength("1.2.3"), 5u);   // ParseDouble rejects it
  EXPECT_EQ(NumericTokenLength("-"), 0u);
  EXPECT_EQ(NumericTokenLength("e5"), 0u);
  EXPECT_EQ(NumericTokenLength(""), 0u);
  for (double v : {3203350.0, -1e300, 1e-300, 4.9406564584124654e-324}) {
    const std::string text = FormatDouble(v);
    EXPECT_EQ(NumericTokenLength(text), text.size()) << text;
  }
}

// A bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: no
// table, so a wrong entry in the implementation's tables cannot be
// mirrored here.
uint32_t ReferenceCrc32Update(uint32_t crc, const unsigned char* p,
                              size_t size) {
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(Random* rng, size_t size) {
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng->Next());
  return bytes;
}

TEST(Crc32Test, CheckValues) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Update(0x12345678u, nullptr, 0), 0x12345678u);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 4096;
  Random rng(26);
  // 8 spare bytes so every length can start at every offset mod 8.
  const std::vector<unsigned char> buffer = RandomBytes(&rng, kMaxLength + 8);
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buffer.data() + align;
    for (const uint32_t seed : {0u, static_cast<uint32_t>(rng.Next())}) {
      // The reference CRC of p[0, length), extended one byte per length.
      uint32_t want = seed;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        ASSERT_EQ(Crc32Update(seed, p, length), want)
            << "length " << length << " align " << align << " seed " << seed;
        want = ReferenceCrc32Update(want, p + length, 1);
      }
    }
  }
}

TEST(Crc32Test, ChainedUpdatesEqualOneCall) {
  Random rng(2601);
  for (int round = 0; round < 2000; ++round) {
    const std::vector<unsigned char> bytes =
        RandomBytes(&rng, static_cast<size_t>(rng.Uniform(1500)));
    const uint32_t whole = Crc32(bytes.data(), bytes.size());
    uint32_t chained = 0;
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t piece =
          std::min(bytes.size() - pos, static_cast<size_t>(rng.Uniform(40)));
      chained = Crc32Update(chained, bytes.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(chained, whole) << "round " << round;
  }
}

TEST(StringUtilTest, FormatDoubleShortestRoundTripFromSixDigits) {
  EXPECT_EQ(FormatDouble(12345.67), "12345.67");
  EXPECT_EQ(FormatDouble(199.99), "199.99");
  EXPECT_EQ(FormatDouble(5), "5");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(1e20), "1e+20");
  EXPECT_EQ(FormatDouble(1234567.0), "1234567");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::infinity()), "inf");
  Random rng(18);
  for (int i = 0; i < 5000; ++i) {
    const double d =
        (rng.NextDouble() - 0.5) * std::pow(10.0, rng.UniformInt(-300, 300));
    const std::string text = FormatDouble(d);
    double back = 0;
    ASSERT_TRUE(ParseDouble(text, &back)) << text;
    EXPECT_EQ(back, d) << text;
    // Text that is already exact at six digits is unchanged.
    if (ParseDouble(StringPrintf("%.6g", d), &back) && back == d) {
      EXPECT_EQ(text, StringPrintf("%.6g", d));
    }
    // Two-decimal prices below 10000 are exact at six digits.
    const double price = static_cast<double>(rng.Uniform(1000000)) / 100.0;
    EXPECT_EQ(FormatDouble(price), StringPrintf("%.6g", price));
  }
}

}  // namespace
}  // namespace xia
