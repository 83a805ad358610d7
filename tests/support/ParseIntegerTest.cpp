//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/ParseInteger.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <limits>

using namespace padx;

namespace {

constexpr unsigned kUMax = std::numeric_limits<unsigned>::max();

} // namespace

TEST(ParseInteger, ValuesPastUnsignedDoNotWrap) {
  // atoll + static_cast<unsigned> read these as 0 and 1.
  EXPECT_EQ(parseInteger<unsigned>("4294967296", 1, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("4294967297", 1, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("4294967295", 1, kUMax), kUMax);
}

TEST(ParseInteger, RejectsTrailingBytesAndEmptyText) {
  EXPECT_EQ(parseInteger<unsigned>("12abc", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("12 ", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("abc", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("+5", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>(" 5", 0, kUMax), std::nullopt);
}

TEST(ParseInteger, RejectsNegativeValues) {
  // Unsigned targets refuse the sign outright; signed ones by range.
  EXPECT_EQ(parseInteger<unsigned>("-1", 0, kUMax), std::nullopt);
  EXPECT_EQ(parseInteger<uint64_t>("-1", 0,
                                   std::numeric_limits<uint64_t>::max()),
            std::nullopt);
  EXPECT_EQ(parseInteger<int64_t>("-1", 0, 100), std::nullopt);
  EXPECT_EQ(parseInteger<int64_t>("-1", -1, 100), -1);
}

TEST(ParseInteger, AcceptsBothRangeEdges) {
  EXPECT_EQ(parseInteger<int64_t>("1", 1, 48), 1);
  EXPECT_EQ(parseInteger<int64_t>("48", 1, 48), 48);
  EXPECT_EQ(parseInteger<int64_t>("0", 1, 48), std::nullopt);
  EXPECT_EQ(parseInteger<int64_t>("49", 1, 48), std::nullopt);
  EXPECT_EQ(parseInteger<unsigned>("0", 0, kUMax), 0u);
  const int64_t I64Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(parseInteger<int64_t>("9223372036854775807", 1, I64Max),
            I64Max);
  EXPECT_EQ(parseInteger<int64_t>("9223372036854775808", 1, I64Max),
            std::nullopt);
}

TEST(ParseIntegerFlag, BadValueNamesTheFlagAndItsRange) {
  EXPECT_EQ(parseIntegerFlag("--assoc", "8", 0, 16, 2), 8);
  EXPECT_EXIT(parseIntegerFlag("--assoc", "abc", 0, 16, 2),
              ::testing::ExitedWithCode(2),
              "^error: --assoc takes an integer in \\[0, 16\\], "
              "got 'abc'\n$");
}

TEST(ParseNumber, AcceptsWholeFiniteNumbers) {
  EXPECT_EQ(parseNumber("12", 0, 100), 12.0);
  EXPECT_EQ(parseNumber("0.5", 0, 100), 0.5);
  EXPECT_EQ(parseNumber("1e10", 0, 1e300), 1e10);
}

TEST(ParseNumber, RejectsTrailingBytesAndEmptyText) {
  // atof reads the first as 12 and the second as 0.
  EXPECT_EQ(parseNumber("12abc", 0, 100), std::nullopt);
  EXPECT_EQ(parseNumber("abc", 0, 100), std::nullopt);
  EXPECT_EQ(parseNumber("", 0, 100), std::nullopt);
  EXPECT_EQ(parseNumber("+5", 0, 100), std::nullopt);
  EXPECT_EQ(parseNumber(" 5", 0, 100), std::nullopt);
}

TEST(ParseNumber, RejectsNanInfAndValuesPastDouble) {
  constexpr double DMax = std::numeric_limits<double>::max();
  for (const char *Bad : {"nan", "inf", "-inf", "infinity", "1e400"})
    EXPECT_EQ(parseNumber(Bad, -DMax, DMax), std::nullopt) << Bad;
}

TEST(ParseNumber, RejectsNegativeValuesBelowTheRange) {
  EXPECT_EQ(parseNumber("-1", 0, 100), std::nullopt);
  EXPECT_EQ(parseNumber("-1", -1, 100), -1.0);
}

TEST(ParseNumber, AcceptsBothRangeEdges) {
  EXPECT_EQ(parseNumber("0", 0, 48), 0.0);
  EXPECT_EQ(parseNumber("48", 0, 48), 48.0);
  EXPECT_EQ(parseNumber("48.000001", 0, 48), std::nullopt);
  constexpr double DMax = std::numeric_limits<double>::max();
  EXPECT_EQ(parseNumber("1.7976931348623157e308", 0, DMax), DMax);
  EXPECT_EQ(parseNumber("1.7976931348623159e308", 0, DMax), std::nullopt);
}

TEST(ParseNumberFlag, BadValueNamesTheFlagAndItsFloor) {
  EXPECT_EQ(parseNumberFlag("--deadline", "0.25", false, 1), 0.25);
  EXPECT_EQ(parseNumberFlag("--drain-ms", "0", true, 2), 0.0);
  EXPECT_EXIT(parseNumberFlag("--deadline", "0", false, 1),
              ::testing::ExitedWithCode(1),
              "^error: --deadline takes a finite number > 0, got '0'\n$");
  EXPECT_EXIT(parseNumberFlag("--timeout-ms", "nan", true, 2),
              ::testing::ExitedWithCode(2),
              "^error: --timeout-ms takes a finite number >= 0, "
              "got 'nan'\n$");
}
