#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <ostream>

#include "kv/sds.hpp"

namespace skv::kv {
namespace {

TEST(Sds, EmptyByDefault) {
    Sds s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
}

TEST(Sds, AppendGrows) {
    Sds s;
    s.append("hello");
    s.append(", ");
    s.append("world");
    EXPECT_EQ(s.view(), "hello, world");
    EXPECT_EQ(s.size(), 12u);
}

TEST(Sds, BinarySafe) {
    Sds s;
    s.append(std::string_view("a\0b", 3));
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s[1], '\0');
}

TEST(Sds, GrowthPolicyDoublesSmall) {
    Sds s;
    s.append("x");
    const auto cap1 = s.capacity();
    EXPECT_GE(cap1, 2u); // doubled beyond the single byte
    std::string big(100, 'y');
    s.append(big);
    EXPECT_GE(s.capacity(), 2 * s.size()); // still in the doubling regime
}

TEST(Sds, GrowthPolicyLinearLarge) {
    Sds s;
    std::string big(Sds::kMaxPrealloc + 10, 'z');
    s.append(big);
    // Past 1MB the preallocation is +1MB, not double.
    EXPECT_LE(s.capacity(), s.size() + Sds::kMaxPrealloc + 1);
}

TEST(Sds, RangePositive) {
    Sds s("Hello World");
    s.range(0, 4);
    EXPECT_EQ(s.view(), "Hello");
}

TEST(Sds, RangeNegativeIndexes) {
    Sds s("Hello World");
    s.range(-5, -1);
    EXPECT_EQ(s.view(), "World");
}

TEST(Sds, RangeOutOfBoundsEmpties) {
    Sds s("abc");
    s.range(5, 10);
    EXPECT_TRUE(s.empty());
}

TEST(Sds, RangeClampsEnd) {
    Sds s("abc");
    s.range(1, 100);
    EXPECT_EQ(s.view(), "bc");
}

TEST(Sds, TrimBothEnds) {
    Sds s("xxyabcyxx");
    s.trim("xy");
    EXPECT_EQ(s.view(), "abc");
}

TEST(Sds, TrimAllCharacters) {
    Sds s("aaaa");
    s.trim("a");
    EXPECT_TRUE(s.empty());
}

TEST(Sds, CaseFolding) {
    Sds s("MiXeD123");
    s.tolower();
    EXPECT_EQ(s.view(), "mixed123");
}

TEST(Sds, CompareLexicographic) {
    EXPECT_LT(Sds("abc").compare(Sds("abd")), 0);
    EXPECT_GT(Sds("abd").compare(Sds("abc")), 0);
    EXPECT_EQ(Sds("abc").compare(Sds("abc")), 0);
    EXPECT_LT(Sds("ab").compare(Sds("abc")), 0); // prefix is smaller
}

TEST(Sds, IEquals) {
    EXPECT_TRUE(Sds("GET").iequals("get"));
    EXPECT_TRUE(Sds("SeT").iequals("SET"));
    EXPECT_FALSE(Sds("GET").iequals("GETS"));
    EXPECT_FALSE(Sds("GET").iequals("PUT"));
}

TEST(SdsSplitArgs, SimpleWords) {
    const auto args = Sds::split_args("SET key value");
    ASSERT_TRUE(args.has_value());
    ASSERT_EQ(args->size(), 3u);
    EXPECT_EQ((*args)[0].view(), "SET");
    EXPECT_EQ((*args)[2].view(), "value");
}

TEST(SdsSplitArgs, DoubleQuotesWithEscapes) {
    const auto args = Sds::split_args("SET k \"a b\\n\\t\"");
    ASSERT_TRUE(args.has_value());
    ASSERT_EQ(args->size(), 3u);
    EXPECT_EQ((*args)[2].view(), "a b\n\t");
}

TEST(SdsSplitArgs, HexEscapes) {
    const auto args = Sds::split_args("\"\\x41\\x42\"");
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ((*args)[0].view(), "AB");
}

TEST(SdsSplitArgs, SingleQuotes) {
    const auto args = Sds::split_args("echo 'hello \\' world'");
    ASSERT_TRUE(args.has_value());
    ASSERT_EQ(args->size(), 2u);
    EXPECT_EQ((*args)[1].view(), "hello ' world");
}

TEST(SdsSplitArgs, UnbalancedQuotesFail) {
    EXPECT_FALSE(Sds::split_args("SET k \"oops").has_value());
    EXPECT_FALSE(Sds::split_args("SET k 'oops").has_value());
}

TEST(SdsSplitArgs, QuoteMustBeFollowedBySpace) {
    EXPECT_FALSE(Sds::split_args("\"a\"b").has_value());
}

TEST(SdsSplitArgs, EmptyLine) {
    const auto args = Sds::split_args("   \t  ");
    ASSERT_TRUE(args.has_value());
    EXPECT_TRUE(args->empty());
}

TEST(Ll2String, Values) {
    EXPECT_EQ(ll2string(0), "0");
    EXPECT_EQ(ll2string(42), "42");
    EXPECT_EQ(ll2string(-7), "-7");
    EXPECT_EQ(ll2string(LLONG_MAX), "9223372036854775807");
    EXPECT_EQ(ll2string(LLONG_MIN), "-9223372036854775808");
}

struct LlCase {
    const char* in;
    bool ok;
    long long v;
};

// Without a printer gtest shows the raw bytes of LlCase, pointer included,
// and the discovered ctest names would change with every build.
void PrintTo(const LlCase& c, std::ostream* os) {
    *os << '"' << c.in << "\" -> ";
    if (c.ok) {
        *os << c.v;
    } else {
        *os << "reject";
    }
}

class String2llTest : public ::testing::TestWithParam<LlCase> {};

TEST_P(String2llTest, ParsesStrictly) {
    const auto& c = GetParam();
    const auto got = string2ll(c.in);
    EXPECT_EQ(got.has_value(), c.ok) << c.in;
    if (c.ok && got.has_value()) {
        EXPECT_EQ(*got, c.v) << c.in;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, String2llTest,
    ::testing::Values(
        LlCase{"0", true, 0}, LlCase{"42", true, 42}, LlCase{"-1", true, -1},
        LlCase{"9223372036854775807", true, LLONG_MAX},
        LlCase{"-9223372036854775808", true, LLONG_MIN},
        LlCase{"9223372036854775808", false, 0},   // overflow
        LlCase{"-9223372036854775809", false, 0},  // underflow
        LlCase{"", false, 0}, LlCase{"-", false, 0},
        LlCase{"007", false, 0},                    // leading zeros rejected
        LlCase{"1.5", false, 0}, LlCase{" 1", false, 0},
        LlCase{"1 ", false, 0}, LlCase{"abc", false, 0},
        LlCase{"+1", false, 0}));

TEST(String2d, AcceptsFloats) {
    EXPECT_DOUBLE_EQ(*string2d("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(*string2d("-2e3"), -2000.0);
    EXPECT_DOUBLE_EQ(*string2d("0"), 0.0);
    EXPECT_TRUE(std::isinf(*string2d("inf")));
    EXPECT_TRUE(std::isinf(*string2d("-inf")));
}

TEST(String2d, RejectsJunk) {
    EXPECT_FALSE(string2d("").has_value());
    EXPECT_FALSE(string2d("1.5x").has_value());
    EXPECT_FALSE(string2d("nan").has_value());
}

} // namespace
} // namespace skv::kv
