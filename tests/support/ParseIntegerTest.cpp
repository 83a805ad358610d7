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
