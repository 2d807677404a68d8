#include "util/string_util.h"

#include "gtest/gtest.h"

namespace kanon {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFields) {
  EXPECT_EQ(Split(",a,,b,", ','),
            (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, NoSeparator) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, RoundTripWithSplit) {
  const std::vector<std::string> parts = {"x", "", "yz"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(JoinTest, EmptyAndSingle) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
}

TEST(TrimTest, Whitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");  // never truncates
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(FormatDoubleTest, Digits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(ParseIntTest, Valid) {
  long long v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt("  13 ", &v));
  EXPECT_EQ(v, 13);
}

TEST(ParseIntTest, Invalid) {
  long long v = 0;
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("12x", &v));
  EXPECT_FALSE(ParseInt("x12", &v));
  EXPECT_FALSE(ParseInt("1.5", &v));
  EXPECT_FALSE(ParseInt("999999999999999999999999", &v));  // overflow
}

TEST(ParseUintTest, CoversTheFullUnsignedRange) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseUint(" +7 ", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseUint("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(ParseUint("-1", &v));
  EXPECT_FALSE(ParseUint("", &v));
  EXPECT_FALSE(ParseUint("3x", &v));
}

TEST(ParseDoubleTest, Valid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(ParseDoubleTest, Invalid) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("2.5garbage", &v));
}

}  // namespace
}  // namespace kanon
