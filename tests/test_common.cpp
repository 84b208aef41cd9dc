// Unit tests for the common utilities: error handling, RNG, statistics,
// strings, tables, aligned buffers, the exact memo.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <optional>
#include <sstream>

#include "common/aligned_buffer.hpp"
#include "common/barchart.hpp"
#include "common/error.hpp"
#include "common/exact_memo.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/parse_num.hpp"
#include "common/report_emit.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"

namespace fibersim {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    FS_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("numbers disagree"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(FS_REQUIRE(true, "never"));
}

TEST(Log, LevelGate) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kOff);
  FS_LOG(kError) << "suppressed";  // must not crash while off
  set_log_level(old);
}

// ----- RNG -----

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42, 0);
  Xoshiro256 b(42, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer) {
  Xoshiro256 a(42, 0);
  Xoshiro256 b(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentred) {
  Xoshiro256 rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

class RngBoundedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundedTest, BoundedStaysBelowBound) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(13, bound);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST_P(RngBoundedTest, BoundedCoversRangeForSmallBounds) {
  const std::uint64_t bound = GetParam();
  if (bound > 64) GTEST_SKIP() << "coverage check only for small bounds";
  Xoshiro256 rng(17, bound);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) seen.insert(rng.bounded(bound));
  EXPECT_EQ(seen.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundedTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1000, 1u << 20));

TEST(Rng, BoundedZeroReturnsZero) {
  Xoshiro256 rng(1);
  EXPECT_EQ(rng.bounded(0), 0u);
}

// ----- statistics -----

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Stats, EmptyAccumulatorThrowsOnMinMax) {
  Accumulator acc;
  EXPECT_THROW(acc.min(), Error);
  EXPECT_THROW(acc.max(), Error);
  EXPECT_EQ(acc.mean(), 0.0);
}

TEST(Stats, MergeEqualsSequential) {
  Xoshiro256 rng(3);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-10.0, 10.0);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  Accumulator a;
  a.add(5.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_THROW(geometric_mean({1.0, -1.0}), Error);
  EXPECT_THROW(geometric_mean({}), Error);
}

TEST(Stats, RelativeSpread) {
  EXPECT_DOUBLE_EQ(relative_spread({2.0, 3.0}), 0.5);
  EXPECT_DOUBLE_EQ(relative_spread({5.0}), 0.0);
  EXPECT_THROW(relative_spread({0.0, 1.0}), Error);
}

// ----- strings -----

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingle) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("%.2f", 1.235), "1.24");
}

TEST(Strings, SiFormat) {
  EXPECT_EQ(si_format(1540.0, 2), "1.54 k");
  EXPECT_EQ(si_format(2.5e9, 1), "2.5 G");
  EXPECT_EQ(si_format(12.0, 0), "12");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC"), "abc"); }

// ----- tables -----

TEST(Table, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, PrintsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.5"});
  t.add_row({"longer", "20"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  TextTable t({"k", "v"});
  t.add_row({"a,b", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
}

TEST(Table, CsvQuotingIsRfc4180) {
  TextTable t({"k", "v"});
  t.add_row({"say \"hi\"", "plain"});    // embedded quotes: doubled + quoted
  t.add_row({"two\nlines", "cr\rhere"});  // newlines/CR force quoting too
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"two\nlines\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cr\rhere\""), std::string::npos) << out;
  // Unremarkable cells stay unquoted, so existing outputs are unchanged.
  EXPECT_NE(out.find(",plain\n"), std::string::npos) << out;
}

// ----- bar charts -----

TEST(BarChart, RendersBarsProportionally) {
  BarChart chart("latency", "us");
  chart.add("fast", 1.0);
  chart.add("slow", 2.0);
  std::ostringstream os;
  chart.print(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("latency"), std::string::npos);
  EXPECT_NE(out.find("fast"), std::string::npos);
  // The max bar fills the width; the half-value bar is half as long.
  EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(10, '#') + std::string(10, ' ')),
            std::string::npos);
  EXPECT_NE(out.find("us"), std::string::npos);
}

TEST(BarChart, HandlesAllZeroValues) {
  BarChart chart("empty");
  chart.add("a", 0.0);
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
}

TEST(BarChart, RejectsNegativeValuesAndTinyWidth) {
  BarChart chart("x");
  EXPECT_THROW(chart.add("bad", -1.0), Error);
  chart.add("ok", 1.0);
  std::ostringstream os;
  EXPECT_THROW(chart.print(os, 4), Error);
}

TEST(BarChart, SeparatorAddsBlankLine) {
  BarChart chart("grouped");
  chart.add("a", 1.0);
  chart.add_separator();
  chart.add("b", 2.0);
  EXPECT_EQ(chart.bars(), 3u);
  std::ostringstream os;
  chart.print(os, 12);
  EXPECT_NE(os.str().find("\n\n"), std::string::npos);
}

TEST(Table, HeaderAccessor) {
  TextTable t({"x", "y"});
  EXPECT_EQ(t.header()[1], "y");
}

// ----- report emission -----

ReportArtifact sample_artifact() {
  ReportArtifact artifact;
  artifact.id = "X1";
  TextTable t({"app", "ms"});
  t.add_row({"ffvc", "1.5"});
  ReportSection& section = artifact.add_table("X1: sample", t);
  section.notes.push_back("framed note");
  section.cli_notes.push_back("bare note");
  artifact.metrics.push_back({"best_ms", 1.5, "ms"});
  return artifact;
}

std::string emit(const ReportArtifact& artifact, ReportFormat format,
                 bool framed) {
  std::ostringstream os;
  emit_report(artifact, {format, framed}, os);
  return os.str();
}

TEST(ReportEmit, FramedTextHasHeaderAndNotes) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kText, /*framed=*/true);
  EXPECT_EQ(out.find("== X1: sample ==\n"), 0u) << out;
  EXPECT_NE(out.find("framed note"), std::string::npos);
  EXPECT_EQ(out.find("bare note"), std::string::npos);
}

TEST(ReportEmit, BareTextIsTablePlusCliNotes) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kText, /*framed=*/false);
  EXPECT_EQ(out.find("=="), std::string::npos) << out;
  EXPECT_NE(out.find("bare note"), std::string::npos);
  EXPECT_EQ(out.find("framed note"), std::string::npos);
}

TEST(ReportEmit, CsvRendersRowsAsCsv) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kCsv, /*framed=*/false);
  EXPECT_NE(out.find("app,ms\n"), std::string::npos);
  EXPECT_NE(out.find("ffvc,1.5\n"), std::string::npos);
}

TEST(ReportEmit, JsonCarriesIdSectionsAndMetrics) {
  const std::string out =
      emit(sample_artifact(), ReportFormat::kJson, /*framed=*/false);
  EXPECT_NE(out.find("\"id\": \"X1\""), std::string::npos);
  EXPECT_NE(out.find("\"header\": [\"app\", \"ms\"]"), std::string::npos);
  EXPECT_NE(out.find("\"key\": \"best_ms\""), std::string::npos);
}

TEST(ReportEmit, ParseFormatNamesRoundTrip) {
  EXPECT_EQ(parse_report_format("text"), ReportFormat::kText);
  EXPECT_EQ(parse_report_format("CSV"), ReportFormat::kCsv);
  EXPECT_EQ(parse_report_format(" json "), ReportFormat::kJson);
  EXPECT_THROW(parse_report_format("yaml"), Error);
  EXPECT_STREQ(report_format_name(ReportFormat::kJson), "json");
}

TEST(ReportEmit, JsonEscapeCoversControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
}

// ----- aligned buffers -----

TEST(Aligned, VectorIsCacheLineAligned) {
  AlignedVector<double> v(100, 1.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(v[99], 1.0);
}

TEST(Aligned, EmptyAllocationIsFine) {
  AlignedVector<double> v;
  v.resize(0);
  EXPECT_TRUE(v.empty());
}

TEST(Timer, MeasuresForwardTime) {
  WallTimer t;
  EXPECT_GE(t.elapsed(), 0.0);
  t.reset();
  EXPECT_GE(t.elapsed(), 0.0);
}

TEST(Units, Constants) {
  using namespace units;
  EXPECT_DOUBLE_EQ(kGiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(kGHz, 1e9);
}

// ----- checked numeric parsing -----

TEST(ParseNum, I64AcceptsPlainIntegers) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64("+8"), 8);
  EXPECT_EQ(parse_i64("  12  "), 12);  // surrounding whitespace is trimmed
  EXPECT_EQ(parse_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_i64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(ParseNum, I64RejectsGarbage) {
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("   "));
  EXPECT_FALSE(parse_i64("abc"));
  EXPECT_FALSE(parse_i64("12x"));       // trailing garbage
  EXPECT_FALSE(parse_i64("1 2"));       // embedded space
  EXPECT_FALSE(parse_i64("3.5"));       // not an integer
  EXPECT_FALSE(parse_i64("0x10"));      // no hex
  EXPECT_FALSE(parse_i64("9223372036854775808"));   // overflow
  EXPECT_FALSE(parse_i64("-9223372036854775809"));  // underflow
  EXPECT_FALSE(parse_i64(std::string("1\0 2", 4)));  // embedded NUL
}

TEST(ParseNum, U64CoversTheFullRangeAndRejectsNegatives) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // strtoull would silently wrap "-1" to 2^64-1; the checked parser must
  // refuse (that wrap is exactly the TraceStore MAX_MB bug class).
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("-0"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("12mb"));
}

TEST(ParseNum, I32NarrowsTheRange) {
  EXPECT_EQ(parse_i32("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(parse_i32("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_FALSE(parse_i32("2147483648"));
  EXPECT_FALSE(parse_i32("-2147483649"));
}

TEST(ParseNum, F64RequiresFiniteFullConsumption) {
  EXPECT_DOUBLE_EQ(*parse_f64("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_f64("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(*parse_f64("3"), 3.0);
  EXPECT_FALSE(parse_f64("2.5s"));
  EXPECT_FALSE(parse_f64("nan"));
  EXPECT_FALSE(parse_f64("inf"));
  EXPECT_FALSE(parse_f64("1e999"));  // overflows to infinity
  EXPECT_FALSE(parse_f64(""));
}

// ----- hardened JSON parser -----

TEST(Json, ParsesScalarsAndStructure) {
  std::string error;
  const auto v = json::parse(
      R"({"s":"hi","n":-2.5,"b":true,"z":null,"a":[1,2],"o":{"k":7}})",
      &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->find("s")->as_string(), "hi");
  EXPECT_DOUBLE_EQ(v->find("n")->as_double(), -2.5);
  EXPECT_TRUE(v->find("b")->as_bool());
  EXPECT_TRUE(v->find("z")->is_null());
  ASSERT_EQ(v->find("a")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(v->find("o")->find("k")->as_double(), 7.0);
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, PreservesRawNumberTokensForExactU64) {
  // 2^64-1 is not representable as a double; the raw token must survive so
  // callers can re-parse 64-bit seeds exactly.
  std::string error;
  const auto v = json::parse(R"({"seed":18446744073709551615})", &error);
  ASSERT_TRUE(v) << error;
  EXPECT_EQ(v->find("seed")->raw_number(), "18446744073709551615");
  EXPECT_EQ(parse_u64(v->find("seed")->raw_number()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::parse("", &error));
  EXPECT_FALSE(json::parse("{", &error));
  EXPECT_FALSE(json::parse("{}extra", &error));     // trailing bytes
  EXPECT_FALSE(json::parse(R"({"a":1,})", &error));  // trailing comma
  EXPECT_FALSE(json::parse(R"({"a" 1})", &error));  // missing colon
  EXPECT_FALSE(json::parse(R"({"a":01})", &error)); // leading zero
  EXPECT_FALSE(json::parse(R"({"a":+1})", &error)); // leading plus
  EXPECT_FALSE(json::parse(R"({"a":.5})", &error));
  EXPECT_FALSE(json::parse(R"({"a":tru})", &error));
  EXPECT_FALSE(json::parse("\"unterminated", &error));
  EXPECT_FALSE(json::parse(R"("bad \q escape")", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, RejectsDuplicateKeys) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a":1,"a":2})", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(Json, DepthCapStopsRecursionBombs) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
  // At the cap boundary it still parses.
  std::string okay;
  for (int i = 0; i < json::kMaxDepth; ++i) okay += "[";
  for (int i = 0; i < json::kMaxDepth; ++i) okay += "]";
  EXPECT_TRUE(json::parse(okay, &error)) << error;
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  std::string error;
  // Raw UTF-8 bytes pass through untouched...
  const auto raw = json::parse(R"("a\"b\\c\/d\n\tAé😀")", &error);
  ASSERT_TRUE(raw) << error;
  EXPECT_EQ(raw->as_string(), "a\"b\\c/d\n\tA\xC3\xA9\xF0\x9F\x98\x80");
  // ...and \uXXXX escapes (surrogate pairs included) decode to the same.
  const auto escaped = json::parse(R"("\u00e9 \ud83d\ude00")", &error);
  ASSERT_TRUE(escaped) << error;
  EXPECT_EQ(escaped->as_string(), "\xC3\xA9 \xF0\x9F\x98\x80");
  EXPECT_FALSE(json::parse(R"("\ud83d")", &error));  // lone high surrogate
  EXPECT_FALSE(json::parse(R"("\ud83dx")", &error));
}

TEST(Json, ReportsByteOffsets) {
  std::string error;
  EXPECT_FALSE(json::parse(R"({"a":bogus})", &error));
  EXPECT_NE(error.find("at byte"), std::string::npos);
}

// ----- JSON writer -----

TEST(JsonWriter, CompactLayoutHasNoWhitespace) {
  json::Writer w;
  w.begin_object()
      .field("s", "a\"b")
      .field("n", 0.5)
      .field("i", -3)
      .field("b", false)
      .key("z")
      .null()
      .key("a")
      .begin_array()
      .value(1)
      .begin_object()
      .end_object()
      .end_array()
      .key("r")
      .raw("1.0")
      .end_object();
  EXPECT_EQ(std::move(w).take(),
            R"({"s":"a\"b","n":0.5,"i":-3,"b":false,"z":null,"a":[1,{}],)"
            R"("r":1.0})");
}

TEST(JsonWriter, IndentedLayoutMatchesTheReportAndDescriptorForm) {
  json::Writer w(json::Writer::Layout::kIndented);
  w.begin_object().field("id", "X").key("nested").begin_object();
  w.key("x").shortest(0.1);
  w.end_object().key("empty").begin_array().end_array();
  w.key("row").begin_array(/*one_line=*/true).value("a").value("b");
  w.end_array().key("items").begin_array();
  w.begin_object(/*one_line=*/true).field("k", 1).key("v");
  w.begin_array().value(2).end_array();  // inherits one-line
  w.end_object().end_array().end_object();
  EXPECT_EQ(std::move(w).take(),
            "{\n"
            "  \"id\": \"X\",\n"
            "  \"nested\": {\n"
            "    \"x\": 0.1\n"
            "  },\n"
            "  \"empty\": [],\n"
            "  \"row\": [\"a\", \"b\"],\n"
            "  \"items\": [\n"
            "    {\"k\": 1, \"v\": [2]}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, NumberFormsMatchPrintf) {
  for (const double v : {0.1, 1.0 / 3.0, 2.2e9, 6000.0, -0.0, 1e-300,
                         4.9e-324, std::numeric_limits<double>::max()}) {
    json::Writer g;
    EXPECT_EQ(std::move(g.value(v)).take(), strfmt("%.17g", v));
    // Shortest: the first %.{p}g that reads back to the same bits.
    std::string expect = strfmt("%.17g", v);
    for (int p = 1; p <= 17; ++p) {
      const std::string s = strfmt("%.*g", p, v);
      if (std::strtod(s.c_str(), nullptr) == v) {
        expect = s;
        break;
      }
    }
    json::Writer s;
    EXPECT_EQ(std::move(s.shortest(v)).take(), expect);
  }
}

TEST(JsonWriter, NonFiniteNumbersThrow) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    json::Writer g;
    EXPECT_THROW(g.value(v), Error);
    json::Writer s;
    EXPECT_THROW(s.shortest(v), Error);
  }
}

TEST(JsonWriter, UnbalancedDocumentsAreRejected) {
  json::Writer open;
  open.begin_array();
  EXPECT_THROW(std::move(open).take(), Error);
  json::Writer close;
  EXPECT_THROW(close.end_object(), Error);
}

/// A seeded string over the bytes JSON writers get wrong: every control
/// byte, quotes, backslashes, and multi-byte UTF-8.
std::string random_string(Xoshiro256& rng) {
  static const std::string kPieces[] = {"\"", "\\", "/", "a", " ", "\x7f",
                                        "\xC3\xA9", "\xE2\x82\xAC",
                                        "\xF0\x9F\x98\x80"};
  std::string s;
  const std::uint64_t n = rng.bounded(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.bounded(2) == 0) {
      s += static_cast<char>(rng.bounded(0x20));
    } else {
      s += kPieces[rng.bounded(std::size(kPieces))];
    }
  }
  return s;
}

/// A seeded finite double: edge values, or a random bit pattern.
double random_double(Xoshiro256& rng) {
  static const double kEdges[] = {0.0,
                                  -0.0,
                                  1e-300,
                                  4.9e-324,
                                  2.2250738585072014e-308,
                                  1e-310,
                                  std::numeric_limits<double>::max(),
                                  -std::numeric_limits<double>::max(),
                                  0.1,
                                  1.0 / 3.0};
  if (rng.bounded(4) == 0) return kEdges[rng.bounded(std::size(kEdges))];
  while (true) {
    const double v = std::bit_cast<double>(rng.next());
    if (std::isfinite(v)) return v;
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(JsonWriter, SeededDocumentsRoundTripThroughTheParser) {
  Xoshiro256 rng(20240607);
  for (int doc = 0; doc < 300; ++doc) {
    SCOPED_TRACE("doc " + std::to_string(doc));
    std::vector<std::string> strings;
    std::vector<double> doubles;
    std::vector<std::uint64_t> u64s;
    std::vector<std::int64_t> i64s;
    for (int i = 0; i < 6; ++i) {
      strings.push_back(random_string(rng));
      doubles.push_back(random_double(rng));
      u64s.push_back(i == 0 ? std::numeric_limits<std::uint64_t>::max()
                            : rng.next());
      i64s.push_back(i == 0 ? std::numeric_limits<std::int64_t>::min()
                            : static_cast<std::int64_t>(rng.next()));
    }
    for (const auto layout :
         {json::Writer::Layout::kCompact, json::Writer::Layout::kIndented}) {
      json::Writer w(layout);
      w.begin_object();
      for (std::size_t i = 0; i < strings.size(); ++i) {
        // Keys are escaped too; a numeric suffix keeps them distinct.
        w.key(strings[i] + "#" + std::to_string(i)).value(strings[i]);
      }
      w.key("g").begin_array(rng.bounded(2) == 0);
      for (const double v : doubles) w.value(v);
      w.end_array().key("s").begin_array();
      for (const double v : doubles) w.shortest(v);
      w.end_array().key("u").begin_array();
      for (const std::uint64_t v : u64s) w.value(v);
      w.end_array().key("i").begin_array();
      for (const std::int64_t v : i64s) w.value(v);
      w.end_array().end_object();
      const std::string text = std::move(w).take();

      std::string error;
      const std::optional<json::Value> root = json::parse(text, &error);
      ASSERT_TRUE(root) << error << "\n" << text;
      const json::Members& m = root->members();
      ASSERT_EQ(m.size(), strings.size() + 4);
      for (std::size_t i = 0; i < strings.size(); ++i) {
        EXPECT_EQ(m[i].first, strings[i] + "#" + std::to_string(i));
        EXPECT_EQ(m[i].second.as_string(), strings[i]);
      }
      for (const char* key : {"g", "s"}) {
        const json::Items& items = root->find(key)->items();
        ASSERT_EQ(items.size(), doubles.size());
        for (std::size_t i = 0; i < doubles.size(); ++i) {
          EXPECT_EQ(bits(*parse_f64(items[i].raw_number())), bits(doubles[i]))
              << key << " " << items[i].raw_number();
        }
      }
      const json::Items& us = root->find("u")->items();
      const json::Items& is = root->find("i")->items();
      for (std::size_t i = 0; i < u64s.size(); ++i) {
        EXPECT_EQ(parse_u64(us[i].raw_number()), u64s[i]);
        EXPECT_EQ(parse_i64(is[i].raw_number()), i64s[i]);
      }
    }
  }
}

// ----- exact memo -----

bool same_int(const int& a, const int& b) { return a == b; }

// Inputs that share a key (a hash collision) must each be computed once and
// never served each other's result; the counters stay exact.
TEST(ExactMemo, CollidingKeysNeverAliasInputs) {
  ExactMemo<int, int, same_int> memo;
  int computed = 0;
  const auto square = [&](int x) {
    return memo.get({7, 7}, x, [&] {
      ++computed;
      return x * x;
    });
  };
  EXPECT_EQ(square(3), 9);
  EXPECT_EQ(square(4), 16);  // same key, different input: a fresh compute
  EXPECT_EQ(square(3), 9);
  EXPECT_EQ(square(4), 16);
  EXPECT_EQ(memo.get({7, 8}, 3, [] { return -1; }), -1);  // other key
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(memo.evals(), 3u);
  EXPECT_EQ(memo.lookups(), 5u);
  EXPECT_EQ(memo.hits(), 2u);
}

}  // namespace
}  // namespace fibersim
