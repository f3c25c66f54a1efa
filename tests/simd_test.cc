// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the SIMD kernels: bit-exact equivalence with the scalar
// reference across all code widths, offsets, and boundary conditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "simd/simd_kernels.h"
#include "storage/packed_vector.h"
#include "util/random.h"

namespace deltamerge {
namespace {

TEST(SimdTranslate, MatchesScalar) {
  Rng rng(1);
  const uint64_t table_size = 10000;
  std::vector<uint32_t> table(table_size);
  for (auto& t : table) t = static_cast<uint32_t>(rng.Next());
  for (uint64_t n : {0ull, 1ull, 7ull, 8ull, 9ull, 1000ull, 4096ull,
                     4097ull}) {
    std::vector<uint32_t> in(n), out_simd(n), out_scalar(n);
    for (auto& x : in) x = static_cast<uint32_t>(rng.Below(table_size));
    simd::TranslateCodes32(in.data(), n, table.data(), out_simd.data());
    simd::TranslateCodes32Scalar(in.data(), n, table.data(),
                                 out_scalar.data());
    ASSERT_EQ(out_simd, out_scalar) << "n=" << n;
  }
}

class SimdScanWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdScanWidthTest, CountEqualMatchesScalar) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 4099;  // odd size: exercises the tail
  PackedVector v(n, bits);
  Rng rng(100 + bits);
  const uint64_t mask = LowBitsMask(bits);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
  }
  for (int probe = 0; probe < 32; ++probe) {
    const uint32_t code = static_cast<uint32_t>(rng.Next() & mask);
    for (auto [begin, end] : std::vector<std::pair<uint64_t, uint64_t>>{
             {0, n}, {1, n - 1}, {7, 9}, {0, 0}, {n / 2, n / 2 + 100}}) {
      ASSERT_EQ(simd::CountEqualPacked(v, begin, end, code),
                simd::CountEqualPackedScalar(v, begin, end, code))
          << "bits=" << int(bits) << " code=" << code << " [" << begin
          << "," << end << ")";
    }
  }
}

TEST_P(SimdScanWidthTest, CountRangeMatchesScalar) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 2057;
  PackedVector v(n, bits);
  Rng rng(200 + bits);
  const uint64_t mask = LowBitsMask(bits);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
  }
  for (int probe = 0; probe < 32; ++probe) {
    uint32_t lo = static_cast<uint32_t>(rng.Next() & mask);
    uint32_t hi = static_cast<uint32_t>(rng.Next() & mask);
    if (hi < lo) std::swap(lo, hi);
    ASSERT_EQ(simd::CountRangePacked(v, 0, n, lo, hi),
              simd::CountRangePackedScalar(v, 0, n, lo, hi))
        << "bits=" << int(bits) << " [" << lo << "," << hi << "]";
    // Inverted and degenerate ranges.
    ASSERT_EQ(simd::CountRangePacked(v, 0, n, hi + 1, hi), 0u);
    ASSERT_EQ(simd::CountRangePacked(v, 0, n, lo, lo),
              simd::CountEqualPacked(v, 0, n, lo));
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SimdScanWidthTest,
                         ::testing::Range(1, 33));

// ---------------------------------------------------------------------------
// The scalar-tail contract sweep: every kernel bit-exact against its scalar
// twin for all widths 1–32 and all lengths 0–64 (every residual size,
// including runs straddling packed words), at several begin offsets and
// validity-stream bit offsets.
// ---------------------------------------------------------------------------

class SimdKernelSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdKernelSweepTest, EveryKernelBitExactAcrossLengths) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  Rng rng(300 + bits);
  const uint64_t mask = LowBitsMask(bits);
  // Codes draw from a bounded domain so the translate table stays
  // allocatable at width 32; the packed representation still uses the full
  // width (random probes exercise the whole mask domain).
  const uint64_t domain =
      std::min<uint64_t>(mask + 1, 4096);  // codes are < domain
  std::vector<uint64_t> table(domain);
  for (auto& t : table) t = rng.Next();

  for (uint64_t n = 0; n <= 64; ++n) {
    PackedVector v(n, bits);
    PackedVector v2(n, std::max<uint8_t>(1, bits / 2));
    PackedVector v3(n, static_cast<uint8_t>(std::min(32, bits + 7)));
    for (uint64_t i = 0; i < n; ++i) {
      v.Set(i, static_cast<uint32_t>(rng.Below(domain)));
      v2.Set(i, static_cast<uint32_t>(rng.Next() & LowBitsMask(v2.bits())));
      v3.Set(i, static_cast<uint32_t>(rng.Next() & LowBitsMask(v3.bits())));
    }
    for (const uint64_t valid_base : {uint64_t{0}, uint64_t{3},
                                      uint64_t{63}}) {
      std::vector<uint64_t> valid((valid_base + n + 63) / 64 + 1);
      for (auto& w : valid) w = rng.Next();
      for (uint64_t begin : {uint64_t{0}, uint64_t{1}, uint64_t{13}}) {
        if (begin > n) continue;
        const uint64_t end = n;
        const uint32_t code = static_cast<uint32_t>(
            (rng.Next() & 1) ? rng.Below(domain) : (rng.Next() & mask));
        uint32_t lo = static_cast<uint32_t>(rng.Below(domain));
        uint32_t hi = static_cast<uint32_t>(rng.Below(domain));
        if (hi < lo) std::swap(lo, hi);
        SCOPED_TRACE(testing::Message()
                     << "bits=" << int(bits) << " n=" << n << " ["
                     << begin << "," << end << ") code=" << code << " lo="
                     << lo << " hi=" << hi << " vbase=" << valid_base);

        // Counts.
        ASSERT_EQ(simd::CountEqualPacked(v, begin, end, code),
                  simd::CountEqualPackedScalar(v, begin, end, code));
        ASSERT_EQ(simd::CountRangePacked(v, begin, end, lo, hi),
                  simd::CountRangePackedScalar(v, begin, end, lo, hi));

        // Collects.
        std::vector<uint64_t> got, want;
        simd::CollectEqualPacked(v, begin, end, code, 1000, &got);
        simd::CollectEqualPackedScalar(v, begin, end, code, 1000, &want);
        ASSERT_EQ(got, want);
        got.clear();
        want.clear();
        simd::CollectRangePacked(v, begin, end, lo, hi, 7, &got);
        simd::CollectRangePackedScalar(v, begin, end, lo, hi, 7, &want);
        ASSERT_EQ(got, want);

        // Translate-and-sum.
        ASSERT_EQ(simd::SumPackedTranslated(v, begin, end, table.data()),
                  simd::SumPackedTranslatedScalar(v, begin, end,
                                                  table.data()));

        // Histogram.
        std::vector<uint64_t> hist_got(domain, 0), hist_want(domain, 0);
        simd::HistogramPacked(v, begin, end, hist_got.data());
        simd::HistogramPackedScalar(v, begin, end, hist_want.data());
        ASSERT_EQ(hist_got, hist_want);

        // Validity-masked variants.
        ASSERT_EQ(simd::CountEqualPackedMasked(v, begin, end, code,
                                               valid.data(), valid_base),
                  simd::CountEqualPackedMaskedScalar(
                      v, begin, end, code, valid.data(), valid_base));
        ASSERT_EQ(simd::CountRangePackedMasked(v, begin, end, lo, hi,
                                               valid.data(), valid_base),
                  simd::CountRangePackedMaskedScalar(
                      v, begin, end, lo, hi, valid.data(), valid_base));
        got.clear();
        want.clear();
        simd::CollectEqualPackedMasked(v, begin, end, code, 0, valid.data(),
                                       valid_base, &got);
        simd::CollectEqualPackedMaskedScalar(v, begin, end, code, 0,
                                             valid.data(), valid_base,
                                             &want);
        ASSERT_EQ(got, want);
        ASSERT_EQ(
            simd::SumPackedTranslatedMasked(v, begin, end, table.data(),
                                            valid.data(), valid_base),
            simd::SumPackedTranslatedMaskedScalar(
                v, begin, end, table.data(), valid.data(), valid_base));

        // Fused conjunction over three columns of differing widths.
        const simd::ConjunctPredicate conj[3] = {
            {&v, lo, hi},
            {&v2, 0, static_cast<uint32_t>(rng.Next() &
                                           LowBitsMask(v2.bits()))},
            {&v3, static_cast<uint32_t>(rng.Next() & 3),
             static_cast<uint32_t>(rng.Next() & LowBitsMask(v3.bits()))}};
        ASSERT_EQ(simd::CountConjunctionPacked(conj, begin, end),
                  simd::CountConjunctionPackedScalar(conj, begin, end));

        // Shared-sweep multi-predicate counts (one empty predicate rides
        // along and must stay zero).
        const simd::CodeRange multi[4] = {
            {lo, hi},
            {code, code},
            {1, 0},  // empty
            {0, static_cast<uint32_t>(mask)}};
        uint64_t mc_got[4] = {0, 0, 0, 0}, mc_want[4] = {0, 0, 0, 0};
        simd::MultiCountRangePacked(v, begin, end, multi, mc_got);
        simd::MultiCountRangePackedScalar(v, begin, end, multi, mc_want);
        for (int j = 0; j < 4; ++j) ASSERT_EQ(mc_got[j], mc_want[j]) << j;
        ASSERT_EQ(mc_got[2], 0u);
        // A batch that compacts to one live predicate.
        uint64_t one_got[2] = {0, 0};
        simd::MultiCountRangePacked(
            v, begin, end, std::span<const simd::CodeRange>(multi + 1, 2),
            one_got);
        ASSERT_EQ(one_got[0], mc_want[1]);
        ASSERT_EQ(one_got[1], 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, SimdKernelSweepTest,
                         ::testing::Range(1, 33));

TEST(SimdScan, AllEqualAndNoneEqual) {
  PackedVector v(1000, 12);
  for (uint64_t i = 0; i < 1000; ++i) v.Set(i, 77);
  EXPECT_EQ(simd::CountEqualPacked(v, 0, 1000, 77), 1000u);
  EXPECT_EQ(simd::CountEqualPacked(v, 0, 1000, 78), 0u);
  EXPECT_EQ(simd::CountRangePacked(v, 0, 1000, 0, 4095), 1000u);
  EXPECT_EQ(simd::CountRangePacked(v, 0, 1000, 78, 4095), 0u);
}

TEST(SimdScan, ReportsVectorizationAvailability) {
  // Informational: the build should vectorize on this container (AVX2 was
  // verified present); if this fails the scalar fallback still makes every
  // other test pass, but the bench numbers lose the SIMD-Scan effect.
#if defined(__AVX2__)
  EXPECT_TRUE(simd::kHaveAvx2);
#else
  EXPECT_FALSE(simd::kHaveAvx2);
#endif
}

}  // namespace
}  // namespace deltamerge
