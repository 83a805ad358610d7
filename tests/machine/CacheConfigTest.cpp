//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/CacheConfig.h"

#include "gtest/gtest.h"

using namespace padx;

TEST(CacheConfig, Base16KGeometry) {
  CacheConfig C = CacheConfig::base16K();
  EXPECT_TRUE(C.isValid());
  EXPECT_EQ(C.SizeBytes, 16 * 1024);
  EXPECT_EQ(C.LineBytes, 32);
  EXPECT_EQ(C.Associativity, 1);
  EXPECT_EQ(C.numLines(), 512);
  EXPECT_EQ(C.numSets(), 512);
  EXPECT_EQ(C.waySpanBytes(), 16 * 1024);
}

TEST(CacheConfig, SetAssociativeGeometry) {
  CacheConfig C{16 * 1024, 32, 4};
  EXPECT_TRUE(C.isValid());
  EXPECT_EQ(C.numSets(), 128);
  EXPECT_EQ(C.waySpanBytes(), 4 * 1024);
}

TEST(CacheConfig, FullyAssociativeGeometry) {
  CacheConfig C{2048, 32, 0};
  EXPECT_TRUE(C.isValid());
  EXPECT_EQ(C.numSets(), 1);
  EXPECT_EQ(C.numLines(), 64);
}

TEST(CacheConfig, InvalidGeometries) {
  EXPECT_FALSE((CacheConfig{1000, 32, 1}).isValid());  // non-pow2 size
  EXPECT_FALSE((CacheConfig{1024, 24, 1}).isValid());  // non-pow2 line
  EXPECT_FALSE((CacheConfig{1024, 32, 3}).isValid());  // non-pow2 ways
  EXPECT_FALSE((CacheConfig{64, 128, 1}).isValid());   // line > size
  EXPECT_FALSE((CacheConfig{1024, 32, 64}).isValid()); // ways too large
  EXPECT_FALSE((CacheConfig{1024, 32, -1}).isValid());
  // 8 ways of 2^60-byte lines overflow int64 before they exceed 2^62.
  EXPECT_FALSE((CacheConfig{int64_t(1) << 62, int64_t(1) << 60, 8})
                   .isValid());
  EXPECT_TRUE((CacheConfig{int64_t(1) << 62, int64_t(1) << 60, 4})
                  .isValid());
}

TEST(CacheConfig, Describe) {
  EXPECT_EQ(CacheConfig::base16K().describe(),
            "16K direct-mapped, 32B lines");
  EXPECT_EQ((CacheConfig{2048, 32, 16}).describe(), "2K 16-way, 32B lines");
  EXPECT_EQ((CacheConfig{2048, 32, 0}).describe(),
            "2K fully-associative, 32B lines");
}

