#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace bsa {
namespace {

// --- time comparisons -------------------------------------------------------

TEST(TimeCompare, EqualIsExact) {
  EXPECT_TRUE(Time{1} == Time{1});
  // A difference far below any cost is still a different time.
  EXPECT_FALSE(Time{1} == 1.0 + 5e-10);
  EXPECT_FALSE(Time{1} == 1.1);
}

TEST(TimeCompare, StrictLessIsExact) {
  EXPECT_TRUE(Time{1} < Time{2});
  EXPECT_FALSE(Time{1} < Time{1});
  EXPECT_FALSE(Time{2} < Time{1});
  EXPECT_TRUE(Time{1} < 1.0 + 5e-10);
}

TEST(TimeCompare, LessOrEqual) {
  EXPECT_TRUE(Time{1} <= Time{1});
  EXPECT_TRUE(Time{1} <= Time{2});
  EXPECT_FALSE(Time{2} <= Time{1});
}

TEST(TimeCompare, FinishIsRecomputedNotRecovered) {
  // The model's integral sums are exact in any order.
  EXPECT_EQ((Time{107} + 1e6) + 93, Time{107} + (1e6 + 93));
  // A fractional finish is exact only as the sum that made it: taking the
  // start back off rounds, so checks recompute start + cost.
  const Time start = 0.1;
  const Time cost = 0.2;
  const Time finish = start + cost;
  EXPECT_EQ(start + cost, finish);
  EXPECT_NE(finish - start, cost);
}

// --- check macros -----------------------------------------------------------

TEST(Check, RequireThrowsPrecondition) {
  EXPECT_THROW(BSA_REQUIRE(false, "boom " << 42), PreconditionError);
  EXPECT_NO_THROW(BSA_REQUIRE(true, "fine"));
}

TEST(Check, AssertThrowsInvariant) {
  EXPECT_THROW(BSA_ASSERT(false, "bug"), InvariantError);
  EXPECT_NO_THROW(BSA_ASSERT(true, "ok"));
}

TEST(Check, MessageContainsContext) {
  try {
    BSA_REQUIRE(1 == 2, "value was " << 7);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("value was 7"), std::string::npos);
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  const auto x = a.uniform_int(0, 1000000);
  EXPECT_EQ(x, b.uniform_int(0, 1000000));
  // Different seeds should (overwhelmingly) differ on the first draw.
  EXPECT_NE(x, c.uniform_int(0, 1000000));
}

TEST(Rng, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformRealBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(0.5, 1.5);
    EXPECT_GE(v, 0.5);
    EXPECT_LT(v, 1.5);
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(3);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) seen[rng.index(4)] = true;
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Rng, RejectsBadRanges) {
  Rng rng(4);
  EXPECT_THROW((void)rng.uniform_int(3, 2), PreconditionError);
  EXPECT_THROW((void)rng.index(0), PreconditionError);
  EXPECT_THROW((void)rng.bernoulli(1.5), PreconditionError);
}

TEST(HashedUniform, DeterministicAndInRange) {
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto v = hashed_uniform_int(99, key, 1, 50);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
    EXPECT_EQ(v, hashed_uniform_int(99, key, 1, 50));
  }
}

TEST(HashedUniform, CoversFullRange) {
  bool low = false, high = false;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const auto v = hashed_uniform_int(5, key, 1, 10);
    if (v == 1) low = true;
    if (v == 10) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(DeriveSeed, DistinctStreams) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
  EXPECT_NE(derive_seed(1, 0, 0, 0), derive_seed(1, 0, 0, 1));
  EXPECT_EQ(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 4));
}

// --- stats --------------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (const double v : {2.0, 4.0, 6.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 12.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
}

TEST(Stats, EmptyAccumulator) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Stats, MeanOf) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median_of({}), PreconditionError);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean_of(std::vector<double>{1, 4}), 2.0);
  EXPECT_THROW((void)geometric_mean_of(std::vector<double>{1, -1}),
               PreconditionError);
}

// --- table ---------------------------------------------------------------------

TEST(Table, AlignedOutput) {
  TextTable t({"name", "value"});
  t.new_row().cell("x").cell(1.25, 2);
  t.new_row().cell("longer").cell(static_cast<long long>(42));
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("-+-"), std::string::npos);
}

TEST(Table, CsvOutputAndEscaping) {
  TextTable t({"a", "b"});
  t.new_row().cell("plain").cell("needs,quote");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nplain,\"needs,quote\"\n");
  EXPECT_EQ(csv_escape("with \"q\""), "\"with \"\"q\"\"\"");
}

TEST(Table, RowDisciplineEnforced) {
  TextTable t({"only"});
  EXPECT_THROW(t.cell("no row yet"), PreconditionError);
  t.new_row().cell("ok");
  EXPECT_THROW(t.cell("too many"), PreconditionError);
}

// --- cli ------------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  // Note: a bare `--flag` followed by a non-flag token consumes it as the
  // flag's value, so boolean flags go last or use `--flag=true`.
  const char* argv[] = {"prog",     "--alpha=3", "--beta", "7",
                        "pos1",     "--flag",    "--gamma=x y"};
  CliParser cli(7, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_string("gamma", ""), "x y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.program_name(), "prog");
}

TEST(Cli, DefaultsAndErrors) {
  const char* argv[] = {"prog", "--n=abc"};
  CliParser cli(2, argv);
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_THROW((void)cli.get_int("n", 0), PreconditionError);
}

TEST(Cli, RequireKnownNamesEveryUndeclaredFlag) {
  const char* argv[] = {"prog", "g.tg",  "--algo",       "dls",
                        "--hett", "2",   "--bogus-flag", "3"};
  CliParser cli(8, argv);
  EXPECT_NO_THROW(cli.require_known({"algo", "hett", "bogus-flag", "het"}));
  try {
    cli.require_known({"algo", "het"});
    FAIL() << "undeclared flags accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--hett"), std::string::npos) << what;
    EXPECT_NE(what.find("--bogus-flag"), std::string::npos) << what;
    EXPECT_EQ(what.find("--algo"), std::string::npos) << what;
  }
  const char* bare[] = {"prog", "pos"};
  EXPECT_NO_THROW(CliParser(2, bare).require_known({}));
}

TEST(Cli, RepeatedFlagsCollectInOrderAndScalarsUseTheLast) {
  const char* argv[] = {"prog", "--algo=a", "--algo", "b", "--algo=c"};
  CliParser cli(5, argv);
  EXPECT_EQ(cli.get_strings("algo"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(cli.get_string("algo", ""), "c");
  EXPECT_TRUE(cli.get_strings("missing").empty());
}

TEST(Cli, SharedLiteralParsers) {
  // The free parsers back both CliParser and the scheduler registry's
  // SpecOptions; whole-string matches only.
  EXPECT_EQ(parse_bool_literal("on"), true);
  EXPECT_EQ(parse_bool_literal("no"), false);
  EXPECT_EQ(parse_bool_literal("maybe"), std::nullopt);
  EXPECT_EQ(parse_int_literal("-42"), -42);
  EXPECT_EQ(parse_int_literal("12x"), std::nullopt);
  EXPECT_EQ(parse_int_literal("9223372036854775808"), std::nullopt);
  EXPECT_EQ(parse_uint64_literal("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint64_literal("-1"), std::nullopt);
  EXPECT_EQ(parse_uint64_literal(""), std::nullopt);
}

TEST(Cli, BooleanParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  CliParser cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(Cli, IntRejectsTrailingJunkAndEmpty) {
  const char* argv[] = {"prog", "--a=12x", "--b=", "--c=0x10", "--d=-7"};
  CliParser cli(5, argv);
  EXPECT_THROW((void)cli.get_int("a", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("b", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("c", 0), PreconditionError);  // base 10 only
  EXPECT_EQ(cli.get_int("d", 0), -7);
}

TEST(Cli, IntRejectsOutOfRangeInsteadOfClamping) {
  // One past INT64_MAX, far past, and one below INT64_MIN: strtoll would
  // silently clamp all three to LLONG_MAX / LLONG_MIN.
  const char* argv[] = {"prog", "--a=9223372036854775808",
                        "--b=999999999999999999999999999999",
                        "--c=-9223372036854775809",
                        "--ok=9223372036854775807"};
  CliParser cli(5, argv);
  EXPECT_THROW((void)cli.get_int("a", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("b", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_int("c", 0), PreconditionError);
  EXPECT_EQ(cli.get_int("ok", 0), std::numeric_limits<std::int64_t>::max());
}

TEST(Cli, Uint64ParsesFullRangeAndFallsBack) {
  const char* argv[] = {"prog", "--max=18446744073709551615", "--zero=0"};
  CliParser cli(3, argv);
  EXPECT_EQ(cli.get_uint64("max", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(cli.get_uint64("zero", 7), 0u);
  EXPECT_EQ(cli.get_uint64("absent", 42), 42u);
}

TEST(Cli, Uint64RejectsOutOfRangeInsteadOfClamping) {
  // One past UINT64_MAX and far past: strtoull would clamp both to
  // ULLONG_MAX. Negatives also reject — strtoull's silent wraparound
  // ("-1" -> UINT64_MAX) is exactly the bug parse_uint64_literal blocks.
  const char* argv[] = {"prog", "--a=18446744073709551616",
                        "--b=999999999999999999999999999999", "--c=-1"};
  CliParser cli(4, argv);
  EXPECT_THROW((void)cli.get_uint64("a", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_uint64("b", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_uint64("c", 0), PreconditionError);
}

TEST(Cli, Uint64RejectsTrailingJunkAndEmpty) {
  const char* argv[] = {"prog", "--a=12x", "--b=", "--c=0x10"};
  CliParser cli(4, argv);
  EXPECT_THROW((void)cli.get_uint64("a", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_uint64("b", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_uint64("c", 0), PreconditionError);
}

TEST(Cli, DoubleRejectsOverflowAndJunk) {
  const char* argv[] = {"prog", "--a=1e999", "--b=-1e999", "--c=1.5ms",
                        "--tiny=1e-999"};
  CliParser cli(5, argv);
  EXPECT_THROW((void)cli.get_double("a", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_double("b", 0), PreconditionError);
  EXPECT_THROW((void)cli.get_double("c", 0), PreconditionError);
  // Underflow denormalises towards zero — accepted, not an error.
  EXPECT_NEAR(cli.get_double("tiny", 1.0), 0.0, 1e-300);
}

TEST(Cli, ThreadsRejectsOutOfIntRange) {
  const char* argv[] = {"prog", "--threads=4294967296"};
  CliParser cli(2, argv);
  EXPECT_THROW((void)cli.threads(1), PreconditionError);
}

}  // namespace
}  // namespace bsa
