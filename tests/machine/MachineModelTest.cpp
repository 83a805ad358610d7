//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"

#include "gtest/gtest.h"

using namespace padx;

TEST(MachineModel, SingleLevel) {
  MachineModel M = MachineModel::singleLevel(CacheConfig::base16K());
  ASSERT_EQ(M.numLevels(), 1u);
  EXPECT_EQ(M.Levels[0].Geometry, CacheConfig::base16K());
  EXPECT_EQ(M.Levels[0].Weight, 1.0);
  EXPECT_FALSE(M.Levels[0].IsTlb);
  EXPECT_TRUE(M.isSingleLevel());
  EXPECT_TRUE(M.isValid());
  EXPECT_EQ(M.levelName(0), "l1");
  EXPECT_EQ(M.firstCache(), CacheConfig::base16K());
}

TEST(MachineModel, Presets) {
  for (const std::string &Name : MachineModel::presetNames()) {
    MachineModel M;
    std::string Error;
    ASSERT_TRUE(MachineModel::parse(Name, M, &Error)) << Error;
    std::string Why;
    EXPECT_TRUE(M.isValid(&Why)) << Name << ": " << Why;
  }
  MachineModel Sky = MachineModel::skylake();
  ASSERT_EQ(Sky.numLevels(), 4u);
  EXPECT_FALSE(Sky.isSingleLevel());
  EXPECT_TRUE(Sky.Levels[3].IsTlb);
  EXPECT_EQ(Sky.firstCache().SizeBytes, 32 * 1024);
  EXPECT_EQ(MachineModel::base16K(),
            MachineModel::singleLevel(CacheConfig::base16K()));
}

TEST(MachineModel, SpecGrammar) {
  MachineModel M;
  std::string Error;
  ASSERT_TRUE(
      MachineModel::parse("l1:32k/64/8,l2:1m/64/16", M, &Error))
      << Error;
  ASSERT_EQ(M.numLevels(), 2u);
  EXPECT_EQ(M.Levels[0].Geometry, (CacheConfig{32 * 1024, 64, 8}));
  EXPECT_EQ(M.Levels[1].Geometry, (CacheConfig{1024 * 1024, 64, 16}));
  EXPECT_EQ(M.levelName(0), "l1");
  EXPECT_EQ(M.levelName(1), "l2");
  // Positional default weights.
  EXPECT_EQ(M.Levels[0].Weight, 1.0);
  EXPECT_EQ(M.Levels[1].Weight, 8.0);
}

TEST(MachineModel, SpecTlbAndFullyAssoc) {
  MachineModel M;
  std::string Error;
  ASSERT_TRUE(MachineModel::parse("l1:16k/32/1,tlb:64/4k/4", M, &Error))
      << Error;
  ASSERT_EQ(M.numLevels(), 2u);
  EXPECT_TRUE(M.Levels[1].IsTlb);
  // 64 entries of 4K pages.
  EXPECT_EQ(M.Levels[1].Geometry.SizeBytes, 64 * 4096);
  EXPECT_EQ(M.Levels[1].Geometry.LineBytes, 4096);
  EXPECT_EQ(M.Levels[1].Geometry.Associativity, 4);
  EXPECT_EQ(M.Levels[1].Weight, 16.0);
  EXPECT_EQ(M.firstCache().SizeBytes, 16 * 1024);

  ASSERT_TRUE(MachineModel::parse("l1:2k/32/fa", M, &Error)) << Error;
  EXPECT_EQ(M.Levels[0].Geometry.Associativity, 0);
}

TEST(MachineModel, SpecRoundTrip) {
  for (const char *Spec :
       {"l1:32k/64/8,l2:1m/64/16", "l1:16k/32/1,tlb:64/4k/4",
        "l1:16k/32/1,l2:64k/64/1"}) {
    MachineModel M;
    ASSERT_TRUE(MachineModel::parse(Spec, M, nullptr)) << Spec;
    EXPECT_EQ(M.spec(), Spec);
    MachineModel Again;
    ASSERT_TRUE(MachineModel::parse(M.spec(), Again, nullptr));
    EXPECT_EQ(M, Again);
  }
}

TEST(MachineModel, ParseErrors) {
  MachineModel M;
  std::string Error;
  EXPECT_FALSE(MachineModel::parse("", M, &Error));
  EXPECT_FALSE(MachineModel::parse("notapreset", M, &Error));
  EXPECT_FALSE(MachineModel::parse("l1:32k/64", M, &Error));
  EXPECT_FALSE(MachineModel::parse("l1:32q/64/8", M, &Error));
  EXPECT_FALSE(MachineModel::parse("l1:1000/64/8", M, &Error));
  // Shrinking capacity outward is invalid.
  EXPECT_FALSE(MachineModel::parse("l1:64k/64/8,l2:32k/64/8", M, &Error));
  // Shorter lines outward are invalid (inclusive line-size-aware fill).
  EXPECT_FALSE(MachineModel::parse("l1:16k/64/1,l2:64k/32/1", M, &Error));
  // Two TLBs.
  EXPECT_FALSE(
      MachineModel::parse("l1:16k/32/1,tlb:64/4k/4,tlb2:32/4k/2", M,
                          &Error));
  // Only a TLB.
  EXPECT_FALSE(MachineModel::parse("tlb:64/4k/4", M, &Error));
  // Sizes whose byte count overflows int64: 2^34+1 gigabytes, and 2^34+1
  // TLB entries of 1G pages. Neither may wrap into a valid geometry.
  EXPECT_FALSE(MachineModel::parse("l1:17179869185g/64/1", M, &Error));
  EXPECT_NE(Error.find("bad size"), std::string::npos) << Error;
  EXPECT_FALSE(MachineModel::parse(
      "l1:16k/64/1,tlb:17179869185/1g/4", M, &Error));
  EXPECT_NE(Error.find("invalid geometry"), std::string::npos) << Error;
  // 2^62 bytes in 8 ways of 2^60-byte lines: the ways-times-line check
  // must not overflow either.
  EXPECT_FALSE(
      MachineModel::parse("l1:4294967296g/1073741824g/8", M, &Error));
  EXPECT_NE(Error.find("invalid geometry"), std::string::npos) << Error;
}

TEST(MachineModel, DuplicateLevelNamesAreInvalid) {
  // Weights, lint's Finding::Level and the search's per-level names all
  // address a level by name, so two levels may not share one.
  MachineModel M;
  std::string Error;
  EXPECT_FALSE(MachineModel::parse("l1:16k/64/1,l1:32k/64/1", M, &Error));
  EXPECT_NE(Error.find("l1"), std::string::npos) << Error;
  // A named level may not take an unnamed level's positional name.
  MachineModel Mixed;
  Mixed.Levels.push_back(CacheLevel(CacheConfig{16 * 1024, 32, 1}));
  Mixed.Levels.push_back(
      CacheLevel(CacheConfig{64 * 1024, 64, 1}, "l1", 8.0));
  EXPECT_FALSE(Mixed.isValid(&Error));
  Mixed.Levels[1].Name.clear();
  EXPECT_TRUE(Mixed.isValid(&Error)) << Error;
}

TEST(MachineModel, Weights) {
  MachineModel M;
  std::string Error;
  ASSERT_TRUE(
      MachineModel::parse("l1:16k/32/1,l2:64k/64/1", M, nullptr));
  ASSERT_TRUE(M.applyWeights("l1=2,l2=16", &Error)) << Error;
  EXPECT_EQ(M.Levels[0].Weight, 2.0);
  EXPECT_EQ(M.Levels[1].Weight, 16.0);
  EXPECT_TRUE(M.applyWeights("", &Error));
  EXPECT_FALSE(M.applyWeights("l3=1", &Error));
  EXPECT_FALSE(M.applyWeights("l1=-1", &Error));
  EXPECT_FALSE(M.applyWeights("l1", &Error));
  EXPECT_FALSE(M.applyWeights("l1=abc", &Error));
}

TEST(MachineModel, Fingerprint) {
  MachineModel A = MachineModel::paperL2();
  MachineModel B = MachineModel::paperL2();
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  // Weights and names do not participate (predictions depend only on
  // geometry)...
  B.Levels[1].Weight = 99.0;
  B.Levels[1].Name = "outer";
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  // ...but geometry and TLB-ness do.
  B = A;
  B.Levels[1].Geometry.SizeBytes *= 2;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  B = A;
  B.Levels[1].IsTlb = true;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_NE(MachineModel::base16K().fingerprint(),
            MachineModel::paperL2().fingerprint());
}

TEST(MachineModel, DescribeNamesLevels) {
  MachineModel M = MachineModel::paperL2();
  EXPECT_EQ(M.describe(),
            "l1 16K direct-mapped, 32B lines | "
            "l2 64K direct-mapped, 64B lines");
}
