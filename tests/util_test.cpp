// Unit tests for src/util: contracts, interpolation, statistics,
// strings, table rendering, JSON writer helpers, and the thread pool's
// exception policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/contracts.h"
#include "util/error.h"
#include "util/interp.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/text_table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace sldm {
namespace {

// --- contracts -----------------------------------------------------------

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(SLDM_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(SLDM_EXPECTS(true));
}

TEST(Contracts, EnsuresThrowsOnViolation) {
  EXPECT_THROW(SLDM_ENSURES(1 == 2), ContractViolation);
}

TEST(Contracts, MessageNamesKindAndExpression) {
  try {
    SLDM_ASSERT(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant"), std::string::npos);
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
  }
}

// --- PiecewiseLinear -----------------------------------------------------

TEST(PiecewiseLinear, SinglePointIsConstant) {
  const PiecewiseLinear f({1.0}, {7.0});
  EXPECT_DOUBLE_EQ(f(0.0), 7.0);
  EXPECT_DOUBLE_EQ(f(1.0), 7.0);
  EXPECT_DOUBLE_EQ(f(100.0), 7.0);
}

TEST(PiecewiseLinear, InterpolatesLinearly) {
  const PiecewiseLinear f({0.0, 1.0, 3.0}, {0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(2.0), 1.0);
}

TEST(PiecewiseLinear, ClampsOutsideDomain) {
  const PiecewiseLinear f({0.0, 1.0}, {3.0, 5.0});
  EXPECT_DOUBLE_EQ(f(-10.0), 3.0);
  EXPECT_DOUBLE_EQ(f(10.0), 5.0);
}

TEST(PiecewiseLinear, DerivativeOfSegments) {
  const PiecewiseLinear f({0.0, 1.0, 3.0}, {0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(f.derivative(0.5), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), -1.0);
  EXPECT_DOUBLE_EQ(f.derivative(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.derivative(4.0), 0.0);
}

TEST(PiecewiseLinear, RejectsUnsortedOrMismatched) {
  EXPECT_THROW(PiecewiseLinear({1.0, 0.5}, {0.0, 0.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {0.0, 1.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({0.0}, {0.0, 1.0}), ContractViolation);
  EXPECT_THROW(PiecewiseLinear({}, {}), ContractViolation);
}

TEST(PiecewiseLinear, MaxAbsDifference) {
  const PiecewiseLinear f({0.0, 1.0}, {0.0, 1.0});
  const PiecewiseLinear g({0.0, 1.0}, {0.5, 1.5});
  EXPECT_NEAR(f.max_abs_difference(g), 0.5, 1e-12);
  EXPECT_NEAR(f.max_abs_difference(f), 0.0, 1e-12);
}

TEST(Spacing, LogSpacedEndpointsAndMonotone) {
  const auto xs = log_spaced(0.01, 100.0, 9);
  ASSERT_EQ(xs.size(), 9u);
  EXPECT_DOUBLE_EQ(xs.front(), 0.01);
  EXPECT_DOUBLE_EQ(xs.back(), 100.0);
  for (std::size_t i = 1; i < xs.size(); ++i) EXPECT_GT(xs[i], xs[i - 1]);
  // Log spacing: constant ratio.
  const double ratio = xs[1] / xs[0];
  for (std::size_t i = 2; i < xs.size(); ++i) {
    EXPECT_NEAR(xs[i] / xs[i - 1], ratio, 1e-9);
  }
}

TEST(Spacing, LinSpaced) {
  const auto xs = lin_spaced(-1.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs[0], -1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.0);
  EXPECT_DOUBLE_EQ(xs[4], 1.0);
}

TEST(Spacing, RejectsBadArguments) {
  EXPECT_THROW(log_spaced(0.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(log_spaced(1.0, 1.0, 4), ContractViolation);
  EXPECT_THROW(lin_spaced(0.0, 1.0, 1), ContractViolation);
}

// --- stats ---------------------------------------------------------------

TEST(Stats, SummaryOfKnownSample) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SingleElementSummary) {
  const Summary s = summarize({42.0});
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 42.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
}

TEST(Stats, EmptySummaryRejected) {
  EXPECT_THROW(summarize({}), ContractViolation);
}

TEST(Histogram, CountsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 4
  h.add(-3.0);  // clamped into bin 0
  h.add(42.0);  // clamped into bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
  EXPECT_FALSE(h.to_ascii().empty());
}

// --- strings -------------------------------------------------------------

TEST(Strings, SplitWs) {
  const auto t = split_ws("  a\tbb   c ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitOnDelimiterKeepsEmptyFields) {
  const auto t = split("a::b:", ':');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5e-9"), 2.5e-9);
  EXPECT_FALSE(parse_double("2.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ParseDoubleRejectsOverflowAndHexFloats) {
  // Pre-fix, "1e999" sailed through strtod as +inf with errno unset
  // by the caller, and "0x10" parsed as a C99 hex float.
  EXPECT_FALSE(parse_double("1e999").has_value());
  EXPECT_FALSE(parse_double("-1e999").has_value());
  EXPECT_FALSE(parse_double("0x10").has_value());
  EXPECT_FALSE(parse_double("-0X1p4").has_value());
  // Underflow and explicit non-finite spellings stay parseable...
  EXPECT_DOUBLE_EQ(*parse_double("1e-999"), 0.0);
  EXPECT_TRUE(std::isinf(*parse_double("inf")));
  EXPECT_TRUE(std::isnan(*parse_double("nan")));
  // ...but the finite variant refuses them.
  EXPECT_FALSE(parse_finite_double("inf").has_value());
  EXPECT_FALSE(parse_finite_double("-inf").has_value());
  EXPECT_FALSE(parse_finite_double("nan").has_value());
  EXPECT_DOUBLE_EQ(*parse_finite_double("2.5e-9"), 2.5e-9);
}

TEST(Strings, ParseDoubleAcceptanceTable) {
  // Tokens under 64 bytes parse from a stack copy, longer ones from a
  // heap copy; the accepted set is the same on both paths.
  struct Case {
    std::string token;
    bool finite_ok;
  };
  const std::string long_number =
      std::string("0.") + std::string(67, '0') + "5";
  ASSERT_EQ(long_number.size(), 70u);
  const std::vector<Case> cases = {
      {"+1", true},
      {".5", true},
      {"5.", true},
      {"1E3", true},
      {"1e-320", true},  // denormal: ERANGE underflow, still a value
      {std::string(63, '1'), true},  // longest stack-path token
      {long_number, true},           // heap path
      {"0x1p3", false},
      {"1e309", false},
      {"nan", false},
      {"inf", false},
      {"-inf", false},
      {"1.5junk", false},
      {"2 ", false},
      {std::string("1\0", 2), false},  // embedded NUL is trailing junk
      {long_number.substr(0, 69) + "x", false},  // 70 chars, junk at end
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_finite_double(c.token).has_value(), c.finite_ok)
        << "'" << c.token << "'";
  }
  EXPECT_DOUBLE_EQ(*parse_double("+1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_double(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_double("5."), 5.0);
  EXPECT_DOUBLE_EQ(*parse_double("1E3"), 1000.0);
  EXPECT_GT(*parse_double("1e-320"), 0.0);
  EXPECT_DOUBLE_EQ(*parse_double(long_number), 5e-68);
  // The non-finite spellings parse only without the finite guard.
  EXPECT_TRUE(std::isnan(*parse_double("nan")));
  EXPECT_TRUE(std::isinf(*parse_double("inf")));
  EXPECT_FALSE(parse_double("1e309").has_value());
  // A view into a larger buffer parses only its own bytes.
  const std::string_view inside = std::string_view("12345").substr(1, 2);
  EXPECT_DOUBLE_EQ(*parse_double(inside), 23.0);
}

TEST(Strings, IequalsIgnoresAsciiCaseOnly) {
  EXPECT_TRUE(iequals("VdD!", "vdd!"));
  EXPECT_TRUE(iequals("UNITS:", "units:"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("vdd", "vdd!"));
  EXPECT_FALSE(iequals("gnd", "gnc"));
}

TEST(Strings, ParseLongStrict) {
  EXPECT_EQ(*parse_long("-17"), -17);
  EXPECT_FALSE(parse_long("17.0").has_value());
  EXPECT_FALSE(parse_long("99999999999999999999").has_value());
  EXPECT_FALSE(parse_long("-99999999999999999999").has_value());
}

TEST(Strings, ParseHexU64) {
  EXPECT_EQ(*parse_hex_u64("00af"), 0xafu);
  EXPECT_EQ(*parse_hex_u64("FFFFFFFFFFFFFFFF"), ~std::uint64_t{0});
  EXPECT_EQ(*parse_hex_u64("0000000000000000"), 0u);
  EXPECT_FALSE(parse_hex_u64("").has_value());
  EXPECT_FALSE(parse_hex_u64("0x10").has_value());
  EXPECT_FALSE(parse_hex_u64("-1").has_value());
  EXPECT_FALSE(parse_hex_u64("xyzw").has_value());
  EXPECT_FALSE(parse_hex_u64("00000000deadbeef0").has_value());  // 17 digits
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format("%.2f", 1.239), "1.24");
}

// --- text table ----------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, NumericRow) {
  TextTable t({"label", "x", "y"});
  t.add_row_numeric("row", {1.23456, 2.0}, 2);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
}

// --- units ---------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_ns(3e-9), 3.0);
  EXPECT_DOUBLE_EQ(to_fF(2e-15), 2.0);
  EXPECT_DOUBLE_EQ(to_kohm(5e3), 5.0);
  EXPECT_DOUBLE_EQ(4.0 * units::um, 4e-6);
}

// --- JSON writer helpers -------------------------------------------------

TEST(Json, EscapeCoversControlCharactersAndRoundTrips) {
  // Every byte below 0x20 plus quote and backslash must escape into a
  // document the project's own parser accepts back verbatim.
  std::string nasty = "plain \"quoted\" back\\slash";
  for (int c = 1; c < 0x20; ++c) nasty.push_back(static_cast<char>(c));
  const std::string doc = "\"" + json_escape(nasty) + "\"";
  // Named escapes for the common control characters, \u00XX for the rest.
  EXPECT_NE(doc.find("\\n"), std::string::npos);
  EXPECT_NE(doc.find("\\t"), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  const JsonValue v = parse_json(doc);
  EXPECT_EQ(v.as_string(), nasty);
}

TEST(Json, NumberEmitsNullForNonFinite) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
  EXPECT_EQ(json_number(-INFINITY), "null");
  // Finite values round-trip through the parser at full precision.
  for (double x : {0.0, -1.5, 3.0e-15, 1.2345678901234567e9}) {
    const JsonValue v = parse_json(json_number(x));
    EXPECT_DOUBLE_EQ(v.as_number(), x);
  }
}

// --- ThreadPool exception policy -----------------------------------------

TEST(ThreadPool, FirstErrorWinsAndExtrasAreCounted) {
  const std::uint64_t before =
      snapshot_process_metrics()
          .counter("thread_pool.suppressed_exceptions")
          .value();
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 6; ++i) {
    pool.submit([&ran] {
      ++ran;
      throw Error("task failed");
    });
  }
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task failed"), std::string::npos) << what;
    // 6 tasks failed: the first is rethrown, the other 5 are noted.
    EXPECT_NE(what.find("and 5 more task failures suppressed"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(ran.load(), 6);
  const std::uint64_t after =
      snapshot_process_metrics()
          .counter("thread_pool.suppressed_exceptions")
          .value();
  EXPECT_EQ(after - before, 5u);
}

TEST(ThreadPool, SingleFailureHasNoSuppressionNote) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("only failure"); });
  pool.submit([] {});
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("only failure"), std::string::npos);
    EXPECT_EQ(what.find("suppressed"), std::string::npos) << what;
  }
}

TEST(ThreadPool, ReusableAfterFailedBatch) {
  ThreadPool pool(3);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait(), Error);
  // The error and suppression state reset: a clean batch passes.
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&ran] { ++ran; });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, NonSldmErrorRethrownUnwrapped) {
  // The "and N more" note only decorates sldm::Error; foreign exception
  // types pass through untouched (their count still lands in metrics).
  ThreadPool pool(4);
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("foreign"); });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

}  // namespace
}  // namespace sldm
