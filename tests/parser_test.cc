// Tests for the textual workload format: parsing, diagnostics, and
// round-tripping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.h"
#include "reference/reference_parser.h"
#include "workload/parser.h"
#include "workload/tpcc.h"

namespace idxsel::workload {
namespace {

constexpr char kValid[] = R"(# web-shop workload
table orders rows=2000000
attr customer_id distinct=150000 size=4
attr status distinct=8
attr country distinct=90 size=2

table items rows=100000
attr id distinct=100000 size=8

query orders freq=12000 attrs=customer_id
query orders freq=9000 attrs=customer_id,status   # open orders
query orders freq=10 write attrs=status
query items freq=450 attrs=id
)";

TEST(ParserTest, ParsesValidInput) {
  auto parsed = ParseWorkload(kValid);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Workload& w = parsed->workload;
  EXPECT_EQ(w.num_tables(), 2u);
  EXPECT_EQ(w.num_attributes(), 4u);
  EXPECT_EQ(w.num_queries(), 4u);
  EXPECT_EQ(w.table(0).name, "orders");
  EXPECT_EQ(w.table(0).row_count, 2'000'000u);
  EXPECT_EQ(w.attribute(0).distinct_values, 150'000u);
  EXPECT_EQ(w.attribute(0).value_size, 4u);
  EXPECT_EQ(w.attribute(1).value_size, 4u);  // default size
  EXPECT_EQ(w.attribute(2).value_size, 2u);
  EXPECT_EQ(parsed->name(0), "orders.customer_id");
  EXPECT_TRUE(w.Validate().ok());
}

TEST(ParserTest, QueryDetails) {
  auto parsed = ParseWorkload(kValid);
  ASSERT_TRUE(parsed.ok());
  const Workload& w = parsed->workload;
  EXPECT_EQ(w.query(1).attributes.size(), 2u);
  EXPECT_DOUBLE_EQ(w.query(1).frequency, 9000.0);
  EXPECT_EQ(w.query(1).kind, QueryKind::kRead);
  EXPECT_EQ(w.query(2).kind, QueryKind::kWrite);
  EXPECT_EQ(w.query(3).table, 1u);
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ParseWorkload(
      "# header\n\ntable t rows=10\n  \nattr a distinct=5 # trailing\n"
      "query t freq=1 attrs=a\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->workload.num_queries(), 1u);
}

struct BadCase {
  const char* name;  ///< gtest case name: stable across builds
  const char* input;
  const char* expected_fragment;
};

// ctest IDs carry the printed parameter too; print the name, not bytes
// that hold pointers.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrorTest, ReportsLineAndReason) {
  auto parsed = ParseWorkload(GetParam().input);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(GetParam().expected_fragment),
            std::string::npos)
      << parsed.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadCase{"UnknownDirective", "bogus t rows=1\n", "unknown directive"},
        BadCase{"TableWithoutRows", "table t\n", "expected"},
        BadCase{"ZeroRows", "table t rows=0\n", "rows"},
        BadCase{"DuplicateTable", "table t rows=5\ntable t rows=5\n",
                "duplicate table"},
        BadCase{"AttrBeforeTable", "attr a distinct=5\n",
                "attr before any table"},
        BadCase{"ZeroDistinct", "table t rows=5\nattr a distinct=0\n",
                "distinct"},
        BadCase{"DuplicateAttribute",
                "table t rows=5\nattr a distinct=2\nattr a distinct=2\n",
                "duplicate attribute"},
        BadCase{"UnknownTable",
                "table t rows=5\nattr a distinct=2\n"
                "query nope freq=1 attrs=a\n",
                "unknown table"},
        BadCase{"UnknownAttribute",
                "table t rows=5\nattr a distinct=2\n"
                "query t freq=1 attrs=zzz\n",
                "unknown attribute"},
        BadCase{"ZeroFreq",
                "table t rows=5\nattr a distinct=2\nquery t freq=0 attrs=a\n",
                "freq"},
        BadCase{"QueryWithoutAttrs",
                "table t rows=5\nattr a distinct=2\nquery t freq=1\n",
                "expected"},
        BadCase{"UnknownAttrOption",
                "table t rows=5\nattr a distinct=2 wat=1\n",
                "unknown attr option"},
        // Sizes are stored in 32 bits: 2^32 would wrap to 0, which
        // AddAttribute's CHECK aborts on, and 2^32 + 4 to 4.
        BadCase{"SizeTwoToThe32",
                "table t rows=5\nattr a distinct=2 size=4294967296\n",
                "line 2: size must be below 2^32 bytes"},
        BadCase{"SizeWrapsToFour",
                "table t rows=5\nattr a distinct=2 size=4294967300\n",
                "line 2: size must be below 2^32 bytes"}),
    [](const ::testing::TestParamInfo<BadCase>& param) {
      return std::string(param.param.name);
    });

// -- Edge tokens against the reference parser (tests/reference/) ----------
// The same inputs seed the parser fuzz corpus (edge_*.txt).

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

constexpr char kEdgePrefix[] =
    "table t rows=5\nattr a distinct=2\nattr b distinct=3\n";

struct EdgeCase {
  const char* name;
  std::string input;
  bool accept;
  double freq = 0.0;  ///< on accept: the last query's frequency
  size_t width = 0;   ///< on accept: the last query's attribute count
};

EdgeCase Freq(const char* name, const char* token, bool accept,
              double freq = 0.0) {
  return {name,
          std::string(kEdgePrefix) + "query t freq=" + token + " attrs=a\n",
          accept, freq, 1};
}

EdgeCase Attrs(const char* name, const char* token, bool accept) {
  return {name,
          std::string(kEdgePrefix) + "query t freq=1 attrs=" + token + "\n",
          accept, 1.0, 1};
}

void PrintTo(const EdgeCase& c, std::ostream* os) { *os << c.name; }

class ParserEdgeTokenTest : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(ParserEdgeTokenTest, MatchesReference) {
  const EdgeCase& c = GetParam();
  const Result<NamedWorkload> got = ParseWorkload(c.input);
  EXPECT_EQ(reference::DiffParse(got, reference::ReferenceParseWorkload(
                                          c.input)),
            "");
  ASSERT_EQ(got.ok(), c.accept)
      << (got.ok() ? "accepted" : got.status().ToString());
  if (!c.accept) {
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message().rfind("line ", 0), 0u)
        << got.status().ToString();
    return;
  }
  const Workload& w = got->workload;
  ASSERT_GE(w.num_queries(), 1u);
  const Query& q = w.query(static_cast<QueryId>(w.num_queries() - 1));
  EXPECT_EQ(Bits(q.frequency), Bits(c.freq)) << q.frequency;
  EXPECT_EQ(q.attributes.size(), c.width);
}

INSTANTIATE_TEST_SUITE_P(
    Tokens, ParserEdgeTokenTest,
    ::testing::Values(
        Freq("FreqPlus", "+5", true, 5.0),
        Freq("FreqMinus", "-5", false),
        Freq("FreqOverflow", "1e999", false),
        Freq("FreqInf", "inf", false),
        Freq("FreqInfUpper", "INF", false),
        Freq("FreqNan", "nan", false),
        Freq("FreqHexFloat", "0x1p3", false),
        Freq("FreqLeadingDot", ".5", true, 0.5),
        Freq("FreqTrailingDot", "5.", true, 5.0),
        Freq("FreqSubnormal", "1e-320", true, 1e-320),
        Freq("FreqUnderflow", "1e-400", false),
        Freq("FreqBareExponent", "5e", false),
        Freq("FreqLeadingZeros", "0005", true, 5.0),
        Freq("FreqSignedExponent", "1e+3", true, 1000.0),
        Freq("FreqUpperExponent", "1E3", true, 1000.0),
        Freq("FreqDoublePlus", "++5", false),
        Freq("FreqSuffix", "5d", false),
        Attrs("AttrsTrailingComma", "a,", true),
        Attrs("AttrsEmptyMiddle", "a,,b", false),
        Attrs("AttrsLeadingComma", ",a", false),
        Attrs("AttrsDuplicate", "a,a", true),
        Attrs("AttrsEmpty", "", false),
        EdgeCase{"CrlfLineEndings",
                 "table t rows=5\r\nattr a distinct=2\r\n"
                 "query t freq=3 attrs=a\r\n",
                 true, 3.0, 1},
        EdgeCase{"HashGluedToToken",
                 "table t rows=5#c\nattr a distinct=2#c\nattr b distinct=3\n"
                 "query t freq=7 attrs=a,b#c\n",
                 true, 7.0, 2},
        EdgeCase{"NoFinalNewline",
                 "table t rows=5\nattr a distinct=2\nquery t freq=2 attrs=a",
                 true, 2.0, 1}),
    [](const ::testing::TestParamInfo<EdgeCase>& param) {
      return std::string(param.param.name);
    });

TEST(ParserTest, SubnormalFrequencyKeepsItsBits) {
  auto parsed = ParseWorkload(std::string(kEdgePrefix) +
                              "query t freq=1e-320 attrs=a\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Bits(parsed->workload.query(0).frequency), 0x7e8u);
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

TEST(ParserReferenceTest, FuzzCorpusMatchesReference) {
  size_t replayed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IDXSEL_PARSER_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::string text = ReadFile(entry.path());
    EXPECT_EQ(reference::DiffParse(ParseWorkload(text),
                                   reference::ReferenceParseWorkload(text)),
              "")
        << entry.path();
    ++replayed;
  }
  EXPECT_GE(replayed, 30u);
}

TEST(ParserReferenceTest, EditedInputsMatchReference) {
  // Random edits of valid inputs, spliced from the tokens the parser
  // branches on: verdict, message and parsed bits must match the
  // reference on every one.
  const std::vector<std::string> bases = {
      kValid, std::string(kEdgePrefix) + "query t freq=1 attrs=a,b\n"};
  const std::vector<std::string> pieces = {
      "+5", "-5", "1e999", "inf", "nan", "-nan", ".5", "5.", "1e-320",
      "1e-400", "0x1p3", "5e", "0005", "1e+3", "++5", "+-5", "5d", "1e5.5",
      "\v5", "\f", " ", "\t", "\r", "\n", "\r\n", "#", ",", ",,", "=",
      std::string(1, '\0'), "a", "b", "t", "table", "attr", "query",
      "freq=", "attrs=", "rows=", "distinct=", "size=", "write", "0", "9",
      "42", "3.25", "7e2", "customer_id", "status,country", "a,b"};
  Rng rng(20261018);
  int accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string text = bases[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bases.size()) - 1))];
    const int64_t edits = rng.UniformInt(1, 2);
    for (int64_t e = 0; e < edits; ++e) {
      const auto at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size())));
      const std::string& piece = pieces[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pieces.size()) - 1))];
      switch (rng.UniformInt(0, 4)) {
        case 0:  // insert
          text.insert(at, piece);
          break;
        case 1:  // replace a short run
          text.replace(at, static_cast<size_t>(rng.UniformInt(0, 4)), piece);
          break;
        case 2:  // delete a short run
          text.erase(at, static_cast<size_t>(rng.UniformInt(1, 6)));
          break;
        default: {  // replace the value after the next '='
          const size_t eq = text.find('=', at);
          if (eq == std::string::npos) break;
          const size_t end = std::min(text.find_first_of(" \n,", eq + 1),
                                      text.size());
          text.replace(eq + 1, end - eq - 1, piece);
          break;
        }
      }
    }
    const Result<NamedWorkload> got = ParseWorkload(text);
    ASSERT_EQ(reference::DiffParse(got,
                                   reference::ReferenceParseWorkload(text)),
              "")
        << "input:\n" << text;
    accepted += got.ok() ? 1 : 0;
  }
  // Both verdicts must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(accepted, 100);
  EXPECT_LT(accepted, 3900);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto parsed = ParseWorkload("table t rows=5\nattr a distinct=2\noops\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(ParserTest, RoundTripsThroughFormat) {
  auto parsed = ParseWorkload(kValid);
  ASSERT_TRUE(parsed.ok());
  auto formatted = FormatWorkload(parsed->workload, parsed->attribute_names);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto reparsed = ParseWorkload(*formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const Workload& a = parsed->workload;
  const Workload& b = reparsed->workload;
  ASSERT_EQ(a.num_queries(), b.num_queries());
  for (QueryId j = 0; j < a.num_queries(); ++j) {
    EXPECT_EQ(a.query(j).attributes, b.query(j).attributes);
    EXPECT_DOUBLE_EQ(a.query(j).frequency, b.query(j).frequency);
    EXPECT_EQ(a.query(j).kind, b.query(j).kind);
  }
}

TEST(ParserTest, TpccRoundTrip) {
  const NamedWorkload tpcc = MakeTpccWorkload(10);
  auto formatted = FormatWorkload(tpcc.workload, tpcc.attribute_names);
  ASSERT_TRUE(formatted.ok()) << formatted.status().ToString();
  auto reparsed = ParseWorkload(*formatted);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->workload.num_queries(), tpcc.workload.num_queries());
  EXPECT_EQ(reparsed->workload.num_attributes(),
            tpcc.workload.num_attributes());
}

TEST(ParserTest, LoadWorkloadFile) {
  const std::string path = ::testing::TempDir() + "/idxsel_parser_test.wl";
  {
    std::ofstream file(path, std::ios::trunc);
    file << kValid;
  }
  auto parsed = LoadWorkloadFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->workload.num_queries(), 4u);
}

TEST(ParserTest, MissingFileIsNotFound) {
  auto parsed = LoadWorkloadFile("/nonexistent/idxsel.wl");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

// -- Malformed-input robustness (no aborts, typed errors) --------------------

TEST(ParserTest, EmptyInputIsInvalidArgument) {
  auto parsed = ParseWorkload("");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("no tables"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ParserTest, CommentOnlyInputIsInvalidArgument) {
  auto parsed = ParseWorkload("# just a comment\n\n   \n# another\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, TruncatedHeaderIsInvalidArgument) {
  // A file cut off mid-header: the table line survives, its rows= did not.
  auto parsed = ParseWorkload("table orders ro");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, FormatRejectsAttributeCountMismatch) {
  auto parsed = ParseWorkload(kValid);
  ASSERT_TRUE(parsed.ok());

  std::vector<std::string> too_few(parsed->attribute_names.begin(),
                                   parsed->attribute_names.end() - 1);
  auto formatted = FormatWorkload(parsed->workload, too_few);
  ASSERT_FALSE(formatted.ok());
  EXPECT_EQ(formatted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(formatted.status().message().find("does not match"),
            std::string::npos)
      << formatted.status().ToString();

  auto empty = FormatWorkload(parsed->workload, {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace idxsel::workload
