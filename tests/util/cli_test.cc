#include "util/cli.h"

#include "gtest/gtest.h"

namespace kanon {
namespace {

CommandLine ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CommandLine::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CommandLineTest, EqualsForm) {
  const CommandLine cl = ParseArgs({"--n=42", "--name=abc"});
  EXPECT_EQ(cl.GetInt("n", 0), 42);
  EXPECT_EQ(cl.GetString("name", ""), "abc");
}

TEST(CommandLineTest, SpaceForm) {
  const CommandLine cl = ParseArgs({"--n", "7"});
  EXPECT_EQ(cl.GetInt("n", 0), 7);
}

TEST(CommandLineTest, BareFlagIsTrue) {
  const CommandLine cl = ParseArgs({"--verbose"});
  EXPECT_TRUE(cl.HasFlag("verbose"));
  EXPECT_TRUE(cl.GetBool("verbose", false));
}

TEST(CommandLineTest, MissingFlagFallsBack) {
  const CommandLine cl = ParseArgs({});
  EXPECT_FALSE(cl.HasFlag("x"));
  EXPECT_EQ(cl.GetInt("x", -1), -1);
  EXPECT_EQ(cl.GetString("x", "d"), "d");
  EXPECT_DOUBLE_EQ(cl.GetDouble("x", 2.5), 2.5);
  EXPECT_TRUE(cl.GetBool("x", true));
}

TEST(CommandLineTest, UnparsableFallsBack) {
  const CommandLine cl = ParseArgs({"--n=abc"});
  EXPECT_EQ(cl.GetInt("n", 5), 5);
}

TEST(CommandLineTest, LaterDuplicateWins) {
  const CommandLine cl = ParseArgs({"--n=1", "--n=2"});
  EXPECT_EQ(cl.GetInt("n", 0), 2);
}

TEST(CommandLineTest, Positional) {
  const CommandLine cl = ParseArgs({"input.csv", "--k=3", "out.csv"});
  ASSERT_EQ(cl.positional().size(), 2u);
  EXPECT_EQ(cl.positional()[0], "input.csv");
  EXPECT_EQ(cl.positional()[1], "out.csv");
  EXPECT_EQ(cl.GetInt("k", 0), 3);
}

TEST(CommandLineTest, BoolSpellings) {
  EXPECT_TRUE(ParseArgs({"--a=yes"}).GetBool("a", false));
  EXPECT_TRUE(ParseArgs({"--a=1"}).GetBool("a", false));
  EXPECT_TRUE(ParseArgs({"--a=on"}).GetBool("a", false));
  EXPECT_FALSE(ParseArgs({"--a=no"}).GetBool("a", true));
  EXPECT_FALSE(ParseArgs({"--a=0"}).GetBool("a", true));
  EXPECT_FALSE(ParseArgs({"--a=off"}).GetBool("a", true));
  EXPECT_TRUE(ParseArgs({"--a=bogus"}).GetBool("a", true));  // fallback
}

TEST(CommandLineTest, DoubleParsing) {
  const CommandLine cl = ParseArgs({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(cl.GetDouble("rate", 0.0), 0.25);
}

TEST(CommandLineTest, ValidatedDoubleAcceptsInRangeAndFallsBack) {
  const CommandLine cl = ParseArgs({"--ms=12.5", "--ratio=1"});
  const StatusOr<double> ms = cl.GetValidatedDouble("ms", 0.0, 0.0, 1e9);
  ASSERT_TRUE(ms.ok());
  EXPECT_DOUBLE_EQ(*ms, 12.5);
  const StatusOr<double> ratio =
      cl.GetValidatedDouble("ratio", 0.1, 0.0, 1.0);
  ASSERT_TRUE(ratio.ok());
  EXPECT_DOUBLE_EQ(*ratio, 1.0);
  const StatusOr<double> absent =
      cl.GetValidatedDouble("absent", 0.1, 0.0, 1.0);
  ASSERT_TRUE(absent.ok());
  EXPECT_DOUBLE_EQ(*absent, 0.1);
}

TEST(CommandLineTest, ValidatedDoubleRejectsMalformedAndNonFinite) {
  for (const char* arg : {"--ms=5OO", "--ms=abc", "--ms=", "--ms=nan",
                          "--ms=inf", "--ms=-inf", "--ms=1e999"}) {
    const StatusOr<double> ms =
        ParseArgs({arg}).GetValidatedDouble("ms", 0.0, -1e9, 1e9);
    ASSERT_FALSE(ms.ok()) << arg;
    EXPECT_EQ(ms.status().code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(ms.status().message().find("--ms="), std::string::npos)
        << ms.status().message();
  }
}

TEST(CommandLineTest, ValidatedDoubleRejectsOutOfRange) {
  const CommandLine cl = ParseArgs({"--ratio=1.5", "--ms=-1"});
  EXPECT_EQ(cl.GetValidatedDouble("ratio", 0.1, 0.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cl.GetValidatedDouble("ms", 0.0, 0.0, 1e9).status().code(),
            StatusCode::kInvalidArgument);
  // A fallback outside the range is refused too, as in GetValidatedInt.
  EXPECT_FALSE(cl.GetValidatedDouble("absent", 2.0, 0.0, 1.0).ok());
}

TEST(CommandLineTest, UnknownFlagsFindsTheTypo) {
  const CommandLine cl =
      ParseArgs({"--workers=4", "--workres=8", "--once"});
  const std::vector<std::string> unknown =
      cl.UnknownFlags({"workers", "once", "journal"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "workres");
}

TEST(CommandLineTest, UnknownFlagsEmptyWhenAllKnown) {
  const CommandLine cl = ParseArgs({"--workers=4", "--once"});
  EXPECT_TRUE(cl.UnknownFlags({"workers", "once"}).empty());
  EXPECT_TRUE(ParseArgs({}).UnknownFlags({"anything"}).empty());
}

TEST(CommandLineTest, UnknownFlagsIgnoresPositionalsAndSorts) {
  const CommandLine cl =
      ParseArgs({"input.csv", "--zeta=1", "--alpha=2", "out.csv"});
  const std::vector<std::string> unknown = cl.UnknownFlags({});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "alpha");
  EXPECT_EQ(unknown[1], "zeta");
}

TEST(CommandLineTest, CheckKnownFlagsNamesEveryUnknownFlag) {
  const CommandLine cl = ParseArgs({"--n=4", "--zeta=1", "--alpha"});
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(CheckKnownFlags(cl, "exp_x", {"n"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "exp_x: unknown flag --alpha\nexp_x: unknown flag --zeta\n");
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(CheckKnownFlags(cl, "exp_x", {"n", "zeta", "alpha"}));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace kanon
