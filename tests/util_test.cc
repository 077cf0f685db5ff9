#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "util/flags.h"
#include "util/numbers.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"

namespace adgraph {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.message(), "");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::OutOfMemory("device full");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "device full");
  EXPECT_EQ(s.ToString(), "Out of memory: device full");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::InvalidArgument("bad");
  Status t = s;
  EXPECT_TRUE(t.IsInvalidArgument());
  EXPECT_EQ(t.message(), "bad");
  // Source unchanged.
  EXPECT_EQ(s.message(), "bad");
}

TEST(StatusTest, MoveLeavesOkBehindAndAssignWorks) {
  Status s = Status::NotFound("x");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsNotFound());
  Status u;
  u = t;
  EXPECT_TRUE(u.IsNotFound());
}

TEST(StatusTest, EveryFactoryMapsToItsCode) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfMemory("").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Deadlock("").code(), StatusCode::kDeadlock);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, OkStatusIntoResultBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<std::string> bad = Status::NotFound("x");
  EXPECT_EQ(std::move(bad).ValueOr("fallback"), "fallback");
  Result<std::string> good = std::string("real");
  EXPECT_EQ(std::move(good).ValueOr("fallback"), "real");
}

Status FailsThrough() {
  ADGRAPH_RETURN_NOT_OK(Status::IOError("inner"));
  return Status::OK();
}

Result<int> AssignsOrReturns(bool fail) {
  Result<int> source = fail ? Result<int>(Status::NotFound("gone"))
                            : Result<int>(7);
  ADGRAPH_ASSIGN_OR_RETURN(int v, source);
  return v + 1;
}

TEST(StatusMacroTest, ReturnNotOkPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kIOError);
}

TEST(StatusMacroTest, AssignOrReturnBothPaths) {
  EXPECT_EQ(AssignsOrReturns(false).value(), 8);
  EXPECT_TRUE(AssignsOrReturns(true).status().IsNotFound());
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversSmallRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCasesAndRate) {
  Rng rng(13);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(15);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "22"});
  std::ostringstream out;
  t.Print(out);
  std::string s = out.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Borders present.
  EXPECT_EQ(s.front(), '+');
}

TEST(TableTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.num_rows(), 1u);
  std::ostringstream out;
  t.Print(out);  // must not crash
}

TEST(TableTest, CsvEscapesSpecials) {
  TablePrinter t({"a", "b"});
  t.AddRow({"plain", "with,comma"});
  t.AddRow({"quote\"inside", "line\nbreak"});
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableTest, WriteCsvRoundTrips) {
  TablePrinter t({"h1"});
  t.AddRow({"v1"});
  std::string path = testing::TempDir() + "/adgraph_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1");
  std::getline(in, line);
  EXPECT_EQ(line, "v1");
  std::remove(path.c_str());
}

TEST(FormatTest, FormatFixedTrimsZeros) {
  EXPECT_EQ(FormatFixed(12.340, 2), "12.34");
  EXPECT_EQ(FormatFixed(0.5, 3), "0.5");
  EXPECT_EQ(FormatFixed(7.0, 2), "7");
}

TEST(FormatTest, FormatRateUsesSuffixes) {
  EXPECT_EQ(FormatRate(18.57e6), "18.57M/ms");
  EXPECT_EQ(FormatRate(5.18e3), "5.18K/ms");
  EXPECT_EQ(FormatRate(773.22), "773.22/ms");
}

TEST(FormatTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1963263821ull), "1,963,263,821");
}

// ---------------------------------------------------------------- Flags

Result<Flags> ParseArgs(std::vector<const char*> argv,
                        const std::vector<FlagSpec>& declared) {
  argv.insert(argv.begin(), "prog");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(), declared);
}

/// Parse refuses `argv` with kInvalidArgument naming `flag`.
void ExpectRefused(std::vector<const char*> argv,
                   const std::vector<FlagSpec>& declared,
                   const std::string& flag) {
  auto flags = ParseArgs(argv, declared);
  ASSERT_FALSE(flags.ok()) << argv.back();
  EXPECT_TRUE(flags.status().IsInvalidArgument());
  EXPECT_NE(flags.status().message().find(flag), std::string::npos)
      << flags.status().ToString();
}

TEST(FlagsTest, ParsesKeyEqualsValue) {
  auto flags = ParseArgs({"--scale=4", "--name=bfs"},
                         {FlagSpec::Int("scale", 1, 31),
                          FlagSpec::String("name")});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("scale", 0), 4);
  EXPECT_EQ(flags->GetString("name", ""), "bfs");
}

TEST(FlagsTest, ParsesSeparatedValueAndBareFlag) {
  auto flags = ParseArgs({"--out", "dir", "--verbose"},
                         {FlagSpec::String("out"), FlagSpec::Bool("verbose")});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("out", ""), "dir");
  EXPECT_TRUE(flags->GetBool("verbose", false));
}

TEST(FlagsTest, PositionalsCollected) {
  auto flags = ParseArgs({"pos1", "--k=1", "pos2"},
                         {FlagSpec::Positional(), FlagSpec::Int("k", 0)});
  ASSERT_TRUE(flags.ok());
  ASSERT_EQ(flags->positional().size(), 2u);
  EXPECT_EQ(flags->positional()[0], "pos1");
  EXPECT_EQ(flags->positional()[1], "pos2");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  auto flags = ParseArgs({}, {});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("missing", -5), -5);
  EXPECT_EQ(flags->GetDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(flags->GetBool("missing", false));
  EXPECT_FALSE(flags->Has("missing"));
}

TEST(FlagsTest, MalformedFlagRejected) {
  EXPECT_FALSE(ParseArgs({"--=x"}, {}).ok());
  EXPECT_FALSE(ParseArgs({"--"}, {}).ok());
}

TEST(FlagsTest, BoolSpellings) {
  auto flags = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=off"},
                         {FlagSpec::Bool("a"), FlagSpec::Bool("b"),
                          FlagSpec::Bool("c"), FlagSpec::Bool("d")});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("a", false));
  EXPECT_TRUE(flags->GetBool("b", false));
  EXPECT_TRUE(flags->GetBool("c", false));
  EXPECT_FALSE(flags->GetBool("d", true));
}

// Regression: GetInt/GetDouble once read these as 0 (or a clamped
// extreme), then warned and returned the caller's default; either way the
// binary ran with a value nobody asked for.  Parse now refuses them.

TEST(FlagsTest, GetIntRejectsEmptyValue) {
  ExpectRefused({"--n="}, {FlagSpec::Int("n", 0)}, "--n");
}

TEST(FlagsTest, GetIntRejectsNonNumeric) {
  ExpectRefused({"--n=abc"}, {FlagSpec::Int("n", 0)}, "--n");
}

TEST(FlagsTest, GetIntRejectsPartialParse) {
  ExpectRefused({"--n=12x"}, {FlagSpec::Int("n", 0)}, "--n");
}

TEST(FlagsTest, GetIntRejectsOutOfRange) {
  ExpectRefused({"--n=99999999999999999999999999"}, {FlagSpec::Int("n", 0)},
                "--n");
}

TEST(FlagsTest, GetIntAcceptsValidIncludingNegative) {
  auto flags = ParseArgs({"--n=-42"}, {FlagSpec::Int("n", -100, 100)});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("n", 7), -42);
}

TEST(FlagsTest, GetDoubleRejectsEmptyValue) {
  ExpectRefused({"--x="}, {FlagSpec::Number("x", 0)}, "--x");
}

TEST(FlagsTest, GetDoubleRejectsNonNumeric) {
  ExpectRefused({"--x=fast"}, {FlagSpec::Number("x", 0)}, "--x");
}

TEST(FlagsTest, GetDoubleRejectsPartialParse) {
  ExpectRefused({"--x=3.5gb"}, {FlagSpec::Number("x", 0)}, "--x");
}

TEST(FlagsTest, GetDoubleRejectsOutOfRange) {
  ExpectRefused({"--x=1e999"}, {FlagSpec::Number("x", 0)}, "--x");
}

TEST(FlagsTest, GetDoubleAcceptsScientific) {
  auto flags = ParseArgs({"--x=1.25e2"}, {FlagSpec::Number("x", 0)});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("x", 0), 125.0);
}

TEST(FlagsTest, UnknownFlagIsRefused) {
  // `--scael=12` used to be ignored, and `--gpu=V100` (for `--gpus`) ran
  // on the default pool.
  ExpectRefused({"--scael=12"}, {FlagSpec::Int("scale", 1, 31)}, "--scael");
}

TEST(FlagsTest, PositionalIsRefusedWhereNoneIsDeclared) {
  ExpectRefused({"--scale=4", "serve-batch"}, {FlagSpec::Int("scale", 1, 31)},
                "serve-batch");
}

TEST(FlagsTest, BoolNeverTakesTheNextArgument) {
  // `--profile x` used to set profile=x.
  ExpectRefused({"--profile", "x"}, {FlagSpec::Bool("profile")}, "x");
  auto flags = ParseArgs({"--profile", "x"},
                         {FlagSpec::Bool("profile"), FlagSpec::Positional()});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("profile", false));
  EXPECT_EQ(flags->positional(), std::vector<std::string>{"x"});
  ExpectRefused({"--profile=x"}, {FlagSpec::Bool("profile")}, "--profile");
  // A value flag does take it, and without one is refused.
  ExpectRefused({"--trace"}, {FlagSpec::String("trace")}, "--trace");
}

TEST(FlagsTest, ValueOutsideAChoiceIsRefused) {
  const std::vector<FlagSpec> declared = {
      FlagSpec::Choice("overflow", {"block", "reject"})};
  ExpectRefused({"--overflow=rejct"}, declared, "--overflow");
  auto flags = ParseArgs({"--overflow=reject"}, declared);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("overflow", "block"), "reject");
}

TEST(FlagsTest, IntegerOutsideItsRangeIsRefused) {
  const std::vector<FlagSpec> declared = {FlagSpec::Int("scale", 1, 31)};
  for (const char* arg : {"--scale=40", "--scale=0", "--scale=-1",
                          "--scale=2.5", "--scale=nan", "--scale=inf"}) {
    ExpectRefused({arg}, declared, "--scale");
  }
  // Read as job-line integers are: 1e1 is 10.
  auto flags = ParseArgs({"--scale=1e1"}, declared);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("scale", 14), 10);
  EXPECT_EQ(ParseArgs({"--scale=31"}, declared)->GetInt("scale", 14), 31);
}

// ---------------------------------------------------------------- Numbers

TEST(NumbersTest, CheckedIntegerRefusesWhatADoubleMayHaveRounded) {
  // 2^53 + 1 reads as 2^53, so an integer of 2^53 or more may stand for a
  // different one; 2^53 - 1 is the last that cannot.
  EXPECT_EQ(CheckedInteger("seed", 0x1p53 - 1).value(), kMaxExactInteger);
  EXPECT_EQ(kMaxExactInteger, uint64_t{9007199254740991});
  EXPECT_TRUE(CheckedInteger("seed", 0x1p53).status().IsInvalidArgument());
  auto rounded = CheckedInteger(
      "seed", ParseNumericValue("seed", "9007199254740993").value(),
      std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(rounded.status().IsInvalidArgument());
  EXPECT_NE(rounded.status().message().find("'seed'"), std::string::npos)
      << rounded.status().ToString();
}

TEST(FlagsTest, IntegerADoubleMayHaveRoundedIsRefused) {
  // `--seed=9007199254740993` used to run with seed 9007199254740992.
  const std::vector<FlagSpec> declared = {FlagSpec::Int("seed", 0)};
  ExpectRefused({"--seed=9007199254740993"}, declared, "--seed");
  ExpectRefused({"--seed=9007199254740992"}, declared, "2^53 - 1");
  auto flags = ParseArgs({"--seed=9007199254740991"}, declared);
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("seed", 1), int64_t{9007199254740991});
}

}  // namespace
}  // namespace adgraph
