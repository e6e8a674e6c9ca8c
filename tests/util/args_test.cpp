// Tests for the table-driven CLI flag parser.
#include "util/args.hpp"

#include <gtest/gtest.h>

namespace ssmwn {
namespace {

using util::Flag;
using enum Flag::Kind;

// A small command: every kind, one range per number, two needs.
std::vector<Flag> table() {
  return {
      {"n", kInt, "7", "nodes", 1, 100},
      {"threads", kInt, "1", "workers", 0, 65536, {}, {{"scheduler", "sync"}}},
      {"port", kInt, "0", "default below the range", 1, 65535},
      {"radius", kReal, "2.5", "default above the range", -1.0, 1.0},
      {"tau", kReal, "1", "delivery", 1e-9, 1.0},
      {"grid", kBool, "false", "grid"},
      {"fusion", kBool, "false", "fusion"},
      {"live", kBool, "false", "live"},
      {"csv", kText, "", "file"},
      {"scheduler", kChoice, "sync", "engine", 0, 0, {"sync", "async"}},
      {"topology", kChoice, "incremental", "update", 0, 0,
       {"incremental", "rebuild"}, {{"live", "true"}}},
  };
}

util::Args parse(std::initializer_list<const char*> tokens,
                 const std::vector<std::string>& operands = {}) {
  std::vector<const char*> argv{"cmd"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return util::Args(static_cast<int>(argv.size()), argv.data(), table(),
                    operands);
}

/// The what() of the invalid_argument `tokens` raise, or "" if none.
std::string rejection(std::initializer_list<const char*> tokens,
                      const std::vector<std::string>& operands = {}) {
  try {
    (void)parse(tokens, operands);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, SpaceAndEqualsSyntax) {
  const auto args = parse({"--n", "50", "--radius=0.08", "--csv", "out.csv"});
  EXPECT_EQ(args.integer("n"), 50);
  EXPECT_DOUBLE_EQ(args.real("radius"), 0.08);
  EXPECT_EQ(args.text("csv"), "out.csv");
}

TEST(Args, BareBooleanFlags) {
  const auto args = parse({"--grid", "--fusion", "--n", "10"});
  EXPECT_TRUE(args.boolean("grid"));
  EXPECT_TRUE(args.boolean("fusion"));
  EXPECT_FALSE(args.boolean("live"));
  EXPECT_EQ(args.integer("n"), 10);
}

TEST(Args, BooleanSpellings) {
  EXPECT_TRUE(parse({"--grid=yes"}).boolean("grid"));
  EXPECT_TRUE(parse({"--grid=on"}).boolean("grid"));
  EXPECT_TRUE(parse({"--grid=1"}).boolean("grid"));
  EXPECT_FALSE(parse({"--grid=0"}).boolean("grid"));
  EXPECT_FALSE(parse({"--grid=no"}).boolean("grid"));
  EXPECT_FALSE(parse({"--grid=off"}).boolean("grid"));
  EXPECT_NE(rejection({"--grid=maybe"}).find("--grid"), std::string::npos);
}

// A bool takes a value only as `--flag=value`: the next token is never
// its value, so `campaign --quiet run.spec` keeps its spec path.
TEST(Args, BareBooleanNeverTakesTheNextToken) {
  const auto args = parse({"--grid", "run.spec"}, {"<spec-file>"});
  EXPECT_TRUE(args.boolean("grid"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "run.spec");
  // Without an operand slot the token is an extra argument, not "false".
  EXPECT_NE(rejection({"--grid", "false"}).find("'false'"), std::string::npos);
}

TEST(Args, PositionalCountIsExact) {
  EXPECT_NE(rejection({"--n", "5", "extra"}).find("'extra'"),
            std::string::npos);
  EXPECT_NE(rejection({"a.spec", "b.spec"}, {"<spec-file>"}).find("'b.spec'"),
            std::string::npos);
  EXPECT_NE(rejection({"--n", "5"}, {"<spec-file>"}).find("<spec-file>"),
            std::string::npos);
}

TEST(Args, Fallbacks) {
  const auto args = parse({});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.integer("n"), 7);
  EXPECT_DOUBLE_EQ(args.real("tau"), 1.0);
  EXPECT_EQ(args.text("csv"), "");
  EXPECT_EQ(args.text("scheduler"), "sync");
  EXPECT_FALSE(args.boolean("grid"));
}

TEST(Args, MalformedNumbersThrow) {
  EXPECT_NE(rejection({"--n", "abc"}).find("integer"), std::string::npos);
  EXPECT_NE(rejection({"--tau", "abc"}).find("number"), std::string::npos);
  // Trailing junk is an error, not a silent prefix parse.
  EXPECT_NE(rejection({"--n", "5x"}), "");
  EXPECT_NE(rejection({"--tau", "0.1abc"}), "");
  // A single leading '+' stays accepted (strtod compatibility); a
  // doubled sign does not.
  EXPECT_EQ(parse({"--n", "+42"}).integer("n"), 42);
  EXPECT_DOUBLE_EQ(parse({"--tau", "+0.5"}).real("tau"), 0.5);
  EXPECT_NE(rejection({"--n", "+-4"}), "");
}

TEST(Args, UnknownFlagIsRejected) {
  EXPECT_EQ(rejection({"--n", "1", "--typo", "2"}), "unknown flag --typo");
  EXPECT_EQ(rejection({"--typo=2"}), "unknown flag --typo");
}

TEST(Args, MissingValueIsRejected) {
  EXPECT_NE(rejection({"--n"}).find("--n"), std::string::npos);
  EXPECT_NE(rejection({"--n", "--grid"}).find("--n"), std::string::npos);
}

TEST(Args, ChoicesAreChecked) {
  EXPECT_EQ(parse({"--scheduler", "async"}).text("scheduler"), "async");
  const auto error = rejection({"--scheduler", "fast"});
  EXPECT_NE(error.find("--scheduler"), std::string::npos) << error;
  EXPECT_NE(error.find("sync|async"), std::string::npos) << error;
}

TEST(Args, LastValueWins) {
  EXPECT_EQ(parse({"--n", "1", "--n", "2"}).integer("n"), 2);
}

// A need holds on the other flag's effective value, given or default.
TEST(Args, NeedsRejectFlagsTheModeNeverReads) {
  EXPECT_EQ(rejection({"--topology", "rebuild"}),
            "--topology requires --live=true");
  EXPECT_EQ(rejection({"--live=false", "--topology", "rebuild"}),
            "--topology requires --live=true");
  EXPECT_EQ(parse({"--live", "--topology", "rebuild"}).text("topology"),
            "rebuild");
  EXPECT_EQ(rejection({"--scheduler", "async", "--threads", "4"}),
            "--threads requires --scheduler=sync");
  EXPECT_EQ(parse({"--threads", "4"}).integer("threads"), 4);
}

// Negative numbers start with a single dash, not a flag prefix, so they
// parse as values (`--radius -0.5` must not eat the next flag).
TEST(Args, NegativeNumbersAreValues) {
  const auto args = parse({"--radius", "-0.5", "--n", "3"});
  EXPECT_DOUBLE_EQ(args.real("radius"), -0.5);
  EXPECT_EQ(args.integer("n"), 3);
  EXPECT_NE(rejection({"--threads", "-1"}).find("(got -1)"),
            std::string::npos);
}

// `--key=` means the default, for every kind.
TEST(Args, EmptyValueFallsBack) {
  const auto args = parse({"--n=", "--csv="});
  EXPECT_EQ(args.integer("n"), 7);
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(parse({"--n", "5", "--n="}).integer("n"), 7);
}

// Positionals keep their place even when interleaved with flags.
TEST(Args, SubcommandThenFileWithFlagsInterleaved) {
  const auto args = parse({"--threads", "4", "run.spec", "--csv", "out.csv"},
                          {"<spec-file>"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "run.spec");
  EXPECT_EQ(args.integer("threads"), 4);
  EXPECT_EQ(args.text("csv"), "out.csv");
}

// A value outside [min, max] must be rejected (→ exit 2) — never
// wrapped, clamped, or passed through to the simulation.
TEST(Args, RangeCheckedIntRejectsOutOfRange) {
  EXPECT_EQ(parse({"--threads", "0"}).integer("threads"), 0);
  EXPECT_EQ(parse({"--threads", "65536"}).integer("threads"), 65536);
  EXPECT_NE(rejection({"--threads", "65537"}), "");
  EXPECT_NE(rejection({"--port", "65536"}), "");
  EXPECT_NE(rejection({"--port", "0"}), "");
}

TEST(Args, RangeCheckedDoubleRejectsDegenerateValues) {
  EXPECT_DOUBLE_EQ(parse({"--tau", "0.9"}).real("tau"), 0.9);
  EXPECT_DOUBLE_EQ(parse({"--tau", "1e-9"}).real("tau"), 1e-9);
  EXPECT_NE(rejection({"--tau", "0"}), "");
  EXPECT_NE(rejection({"--tau", "1.5"}), "");
  // NaN satisfies no range predicate — it must be rejected, not clamped.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    const auto error = rejection({"--tau", bad});
    EXPECT_NE(error.find("--tau"), std::string::npos) << bad << ": " << error;
  }
}

TEST(Args, RangeCheckErrorNamesTheFlag) {
  auto error = rejection({"--threads", "70000"});
  EXPECT_NE(error.find("--threads"), std::string::npos) << error;
  EXPECT_NE(error.find("70000"), std::string::npos) << error;
  error = rejection({"--tau", "2.5"});
  EXPECT_NE(error.find("--tau"), std::string::npos) << error;
  // Bounds print in shortest form: 1e-9 must not read as 0.000000.
  EXPECT_NE(error.find("1e-09"), std::string::npos) << error;
}

// A default is not range-checked: only given values are. --port's
// default 0 sits below its minimum of 1, --radius's 2.5 above its 1.
TEST(Args, RangeCheckDoesNotApplyToFallbacks) {
  EXPECT_EQ(parse({}).integer("port"), 0);
  EXPECT_DOUBLE_EQ(parse({}).real("radius"), 2.5);
}

// Reading a flag the table does not declare, or as the wrong kind, is a
// slip in the caller, not bad input: logic_error, not the exit-2 type.
TEST(Args, UndeclaredReadsAreLogicErrors) {
  const auto args = parse({});
  EXPECT_THROW((void)args.integer("bogus"), std::logic_error);
  EXPECT_THROW((void)args.real("n"), std::logic_error);
  EXPECT_THROW((void)args.has("bogus"), std::logic_error);
  try {
    (void)args.integer("bogus");
  } catch (const std::invalid_argument&) {
    FAIL() << "an undeclared read must not look like bad input";
  } catch (const std::logic_error&) {
  }
}

}  // namespace
}  // namespace ssmwn
