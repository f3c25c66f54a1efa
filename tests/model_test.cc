// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the analytical model: it must reproduce the paper's §7.4 worked
// arithmetic exactly when instantiated with the paper's machine constants,
// and behave monotonically / consistently elsewhere.

#include <gtest/gtest.h>

#include <cmath>

#include "model/cost_model.h"
#include "model/machine_profile.h"

namespace deltamerge {
namespace {

/// The §7.4 scenario: N_M = 100M, N_D = 1M, E_j = 8 bytes, 100% unique.
MergeShape PaperShape100Unique() {
  MergeShape s;
  s.nm = 100'000'000;
  s.nd = 1'000'000;
  s.um = 100'000'000;
  s.ud = 1'000'000;
  s.u_merged = 101'000'000;
  s.ej = 8;
  s.DeriveCodeBits();
  return s;
}

/// Same tuple counts at 1% unique values.
MergeShape PaperShape1PercentUnique() {
  MergeShape s;
  s.nm = 100'000'000;
  s.nd = 1'000'000;
  s.um = 1'000'000;
  s.ud = 10'000;
  s.u_merged = 1'010'000;
  s.ej = 8;
  s.DeriveCodeBits();
  return s;
}

TEST(CostModel, CodeBitsDerivation) {
  MergeShape s = PaperShape100Unique();
  EXPECT_EQ(s.ec_bits, 27);      // ceil(log2 1e8)
  EXPECT_EQ(s.ec_new_bits, 27);  // ceil(log2 1.01e8)
}

// §7.4, Eq. 17: Step 1(a) = (4·8·1M/7 + 132·1M/5) / 101M = 0.306 cpt.
TEST(CostModel, PaperStep1aWorkedExample) {
  const MergeShape s = PaperShape100Unique();
  const MachineProfile m = MachineProfile::Paper();
  const Traffic t = Step1aTraffic(s);
  EXPECT_DOUBLE_EQ(t.stream_bytes, 4.0 * 8 * 1'000'000);
  EXPECT_DOUBLE_EQ(t.random_bytes, 132.0 * 1'000'000);

  const CostProjection p = ProjectMergeCost(s, m, 6);
  EXPECT_NEAR(p.step1a_cpt, 0.306, 0.001);
}

// §7.4: Step 2 with uncached auxiliary structures ≈ 14.2 cpt
// (64/5 + 27/(8·7) + 2·27/(8·7)).
TEST(CostModel, PaperStep2UncachedWorkedExample) {
  const MergeShape s = PaperShape100Unique();
  const MachineProfile m = MachineProfile::Paper();
  const CostProjection p = ProjectMergeCost(s, m, 6);
  EXPECT_FALSE(p.aux_fits_cache);  // 27 bits x 101M entries >> 24 MB
  EXPECT_NEAR(p.step2_cpt, 14.2, 0.15);
}

// §7.4, Eq. 18: Step 2 with cached auxiliaries ≈ 1.73 cpt for 1% unique
// (4 ops / 6 cores + streaming at ~20 bits in, 2x20 bits out over 7 B/c).
TEST(CostModel, PaperStep2CachedWorkedExample) {
  MergeShape s = PaperShape1PercentUnique();
  const MachineProfile m = MachineProfile::Paper();
  const CostProjection p = ProjectMergeCost(s, m, 6);
  EXPECT_TRUE(p.aux_fits_cache);  // ~2.5 MB of translation entries
  // The paper uses exact log2 (19.9 bits) where the implementation uses the
  // ceil (20/21 bits); allow that quantization.
  EXPECT_NEAR(p.step2_cpt, 1.73, 0.15);
}

// §7.4: total Step 1 ≈ 0.3 + 6.6 = 6.9 cycles at 100% unique. Our
// implementation of the printed equations (9, 10, 15 summed, at stream
// bandwidth) gives 7.8 cpt for Step 1(b) — the paper's quoted 6.6 is not
// reconstructible from the printed equations alone; we assert our model is
// in that band and document the delta in docs/BENCHMARKS.md.
TEST(CostModel, PaperStep1TotalIsInBand) {
  const MergeShape s = PaperShape100Unique();
  const MachineProfile m = MachineProfile::Paper();
  const CostProjection p = ProjectMergeCost(s, m, 6);
  EXPECT_GT(p.step1b_cpt, 5.0);
  EXPECT_LT(p.step1b_cpt, 9.0);
  EXPECT_FALSE(p.step1b_compute_bound);  // bandwidth bound at 100% unique
}

TEST(CostModel, AuxCacheBoundaryMatchesFigure9Knee) {
  // §7.3: the knee sits where the auxiliary structures cross the 24 MB LLC
  // — about 1M entries (2.5 MB) cached, 10M entries (30 MB) uncached.
  const MachineProfile m = MachineProfile::Paper();
  MergeShape small = MergeShape::FromParameters(100'000'000, 1'000'000,
                                                0.01, 0.01, 8);
  EXPECT_TRUE(ProjectMergeCost(small, m, 6).aux_fits_cache);
  MergeShape big = MergeShape::FromParameters(1'000'000'000, 10'000'000,
                                              0.01, 0.01, 8);
  EXPECT_FALSE(ProjectMergeCost(big, m, 6).aux_fits_cache);
}

TEST(CostModel, TrafficEquationsScaleLinearly) {
  MergeShape s = MergeShape::FromParameters(1'000'000, 10'000, 0.1, 0.1, 8);
  MergeShape s2 = s;
  s2.nm *= 2;
  s2.nd *= 2;
  s2.um *= 2;
  s2.ud *= 2;
  s2.u_merged *= 2;
  // Same code bits forced, so everything doubles.
  s2.ec_bits = s.ec_bits;
  s2.ec_new_bits = s.ec_new_bits;
  EXPECT_DOUBLE_EQ(Step1bReadBytes(s2), 2 * Step1bReadBytes(s));
  EXPECT_DOUBLE_EQ(Step1bWriteBytes(s2), 2 * Step1bWriteBytes(s));
  EXPECT_DOUBLE_EQ(Step1bParallelExtraBytes(s2),
                   2 * Step1bParallelExtraBytes(s));
  EXPECT_DOUBLE_EQ(Step2AuxGatherBytes(s2), 2 * Step2AuxGatherBytes(s));
  EXPECT_DOUBLE_EQ(Step2PartitionReadBytes(s2),
                   2 * Step2PartitionReadBytes(s));
  EXPECT_DOUBLE_EQ(Step2OutputWriteBytes(s2), 2 * Step2OutputWriteBytes(s));
}

TEST(CostModel, MoreThreadsNeverSlowerOnComputeBoundSteps) {
  const MachineProfile m = MachineProfile::Paper();
  const MergeShape s = PaperShape1PercentUnique();
  const CostProjection p1 = ProjectMergeCost(s, m, 1);
  const CostProjection p6 = ProjectMergeCost(s, m, 6);
  EXPECT_LE(p6.step2_cpt, p1.step2_cpt);
}

TEST(CostModel, UpdateRateMatchesEq16Arithmetic) {
  // Eq. 16: 4M updates at 13.5 cpt over 104M tuples x 300 columns at
  // 3.3 GHz ≈ 31,350 updates/second. Feed the model the paper's numbers as
  // a pure arithmetic check of the rate formula.
  const double rate = 4e6 * 3.3e9 / (13.5 * 104e6 * 300);
  EXPECT_NEAR(rate, 31'350, 120);

  // And via the API: pick a shape and verify consistency with total_cpt.
  const MachineProfile m = MachineProfile::Paper();
  MergeShape s = MergeShape::FromParameters(100'000'000, 4'000'000, 0.1,
                                            0.1, 8);
  const CostProjection p = ProjectMergeCost(s, m, 12);
  const double expected = 4e6 * m.frequency_hz /
                          ((p.total_cpt() + 1.0) * 104e6 * 300);
  EXPECT_NEAR(ProjectUpdateRate(s, m, 12, 300, 1.0), expected,
              expected * 1e-9);
}

TEST(CostModel, EmptyShapeProjectsZero) {
  MergeShape s;
  const CostProjection p =
      ProjectMergeCost(s, MachineProfile::Paper(), 6);
  EXPECT_EQ(p.total_cpt(), 0.0);
}

TEST(MachineProfileTest, PaperConstants) {
  const MachineProfile m = MachineProfile::Paper();
  EXPECT_DOUBLE_EQ(m.frequency_hz, 3.3e9);
  EXPECT_DOUBLE_EQ(m.stream_bytes_per_cycle, 7.0);
  EXPECT_DOUBLE_EQ(m.random_bytes_per_cycle, 5.0);
  EXPECT_EQ(m.cores, 6);
  const MachineProfile two = MachineProfile::PaperTwoSocket();
  EXPECT_DOUBLE_EQ(two.stream_bytes_per_cycle, 14.0);
  EXPECT_EQ(two.cores, 12);
}

TEST(MachineProfileTest, MeasureProducesSaneNumbers) {
  // Tiny buffer keeps this test fast; we only sanity-check orders of
  // magnitude, not absolute bandwidth.
  const double stream = MeasureStreamBandwidth(16 << 20, 1);
  EXPECT_GT(stream, 0.1);
  EXPECT_LT(stream, 256.0);
  const double random = MeasureRandomGatherBandwidth(16 << 20, 1);
  EXPECT_GT(random, 0.01);
  EXPECT_LT(random, 256.0);
  EXPECT_GT(DetectLlcBytes(), 1u << 20);
}

TEST(CostModel, ProjectionStringIsInformative) {
  const CostProjection p =
      ProjectMergeCost(PaperShape100Unique(), MachineProfile::Paper(), 6);
  const std::string s = ToString(p);
  EXPECT_NE(s.find("total="), std::string::npos);
  EXPECT_NE(s.find("gather"), std::string::npos);
}

}  // namespace
}  // namespace deltamerge
