// Copyright (c) 2026 The DeltaMerge Authors.
// Correctness tests for the merge algorithms (§5, §6): the paper's worked
// example (Figures 5/6), bit-identical equivalence of naive / linear /
// parallel variants, and the structural invariants of every output
// (dictionary = sorted union; every code decodes to its original value;
// translation tables map old ranks to new ranks).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/merge_algorithms.h"
#include "storage/column.h"
#include "util/random.h"
#include "workload/table_builder.h"
#include "workload/value_generator.h"

namespace deltamerge {
namespace {

// The Figure 5 vocabulary, keyed in alphabetical order.
enum PaperKeys : uint64_t {
  kApple = 1,
  kBravo = 2,
  kCharlie = 3,
  kDelta = 4,
  kFrank = 5,
  kGolf = 6,
  kHotel = 7,
  kInbox = 8,
  kYoung = 9,
};

/// Builds the paper's example column: main = (apple charlie delta frank
/// hotel inbox hotel delta frank delta), delta partition = (bravo charlie
/// charlie golf young).
Column<8> BuildPaperExampleColumn() {
  std::vector<Value8> main_values;
  for (uint64_t k : {kApple, kCharlie, kDelta, kFrank, kHotel, kInbox, kHotel,
                     kDelta, kFrank, kDelta}) {
    main_values.push_back(Value8::FromKey(k));
  }
  Column<8> col(MainPartition<8>::FromValues(main_values));
  for (uint64_t k : {kBravo, kCharlie, kCharlie, kGolf, kYoung}) {
    col.Insert(Value8::FromKey(k));
  }
  return col;
}

TEST(MergePaperExample, Step1aDeltaDictionaryAndRecode) {
  Column<8> col = BuildPaperExampleColumn();
  // Figure 6 Step 1(a): U_D = {bravo, charlie, golf, young}, delta encoded
  // with 2 bits as (00 01 01 10 11).
  auto dd = ExtractDeltaDictionary<8>(col.delta(), /*recode=*/true);
  ASSERT_EQ(dd.values.size(), 4u);
  EXPECT_EQ(dd.values[0].key(), kBravo);
  EXPECT_EQ(dd.values[1].key(), kCharlie);
  EXPECT_EQ(dd.values[2].key(), kGolf);
  EXPECT_EQ(dd.values[3].key(), kYoung);
  EXPECT_EQ(dd.codes, (std::vector<uint32_t>{0, 1, 1, 2, 3}));
}

TEST(MergePaperExample, Step1bAuxiliaryStructures) {
  Column<8> col = BuildPaperExampleColumn();
  auto dd = ExtractDeltaDictionary<8>(col.delta(), true);
  auto dm = MergeDictionaries<8>(col.main().dictionary().values(),
                                 std::span<const Value8>(dd.values),
                                 /*fill_aux=*/true);
  // Figure 5: merged dictionary = apple bravo charlie delta frank golf hotel
  // inbox young (9 values).
  ASSERT_EQ(dm.merged.size(), 9u);
  for (uint64_t k = 1; k <= 9; ++k) {
    EXPECT_EQ(dm.merged[k - 1].key(), k);
  }
  // Figure 6's main auxiliary: old codes (apple charlie delta frank hotel
  // inbox) -> new positions (0 2 3 4 6 7).
  EXPECT_EQ(dm.x_main, (std::vector<uint32_t>{0, 2, 3, 4, 6, 7}));
  // Delta auxiliary: (bravo charlie golf young) -> (1 2 5 8).
  EXPECT_EQ(dm.x_delta, (std::vector<uint32_t>{1, 2, 5, 8}));
}

TEST(MergePaperExample, FullMergeMatchesFigure5) {
  Column<8> col = BuildPaperExampleColumn();
  MergeOptions options;
  MergeStats stats;
  auto merged =
      MergeColumnPartitions<8>(col.main(), col.delta(), options,
                               /*team=*/nullptr, &stats);

  // 9 unique values -> 4-bit codes (the paper's ceil(log2 9) = 4).
  EXPECT_EQ(merged.unique_values(), 9u);
  EXPECT_EQ(merged.code_bits(), 4);
  ASSERT_EQ(merged.size(), 15u);

  // "hotel" was encoded 4 before the merge and 6 after (Figure 5/6).
  EXPECT_EQ(col.main().GetCode(4), 4u);
  EXPECT_EQ(merged.GetCode(4), 6u);

  // Concatenation order: 10 main tuples then the 5 delta tuples.
  const uint64_t expected[] = {kApple, kCharlie, kDelta, kFrank,   kHotel,
                               kInbox, kHotel,   kDelta, kFrank,   kDelta,
                               kBravo, kCharlie, kCharlie, kGolf,  kYoung};
  for (uint64_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.GetValue(i).key(), expected[i]) << "tuple " << i;
  }

  EXPECT_EQ(stats.nm, 10u);
  EXPECT_EQ(stats.nd, 5u);
  EXPECT_EQ(stats.um, 6u);
  EXPECT_EQ(stats.ud, 4u);
  EXPECT_EQ(stats.u_merged, 9u);
  EXPECT_EQ(stats.ec_bits_old, 3u);
  EXPECT_EQ(stats.ec_bits_new, 4u);
}

TEST(MergePaperExample, NaiveAlgorithmProducesIdenticalResult) {
  Column<8> col = BuildPaperExampleColumn();
  MergeOptions naive;
  naive.algorithm = MergeAlgorithm::kNaive;
  auto a = MergeColumnPartitions<8>(col.main(), col.delta(), naive);
  MergeOptions linear;
  auto b = MergeColumnPartitions<8>(col.main(), col.delta(), linear);
  ASSERT_EQ(a.size(), b.size());
  for (uint64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.GetCode(i), b.GetCode(i));
  }
}

// ---------------------------------------------------------------------------
// Structural invariants on randomized inputs.
// ---------------------------------------------------------------------------

template <size_t W>
void CheckMergeInvariants(const MainPartition<W>& main,
                          const DeltaPartition<W>& delta,
                          const MainPartition<W>& merged) {
  using V = FixedValue<W>;
  // Cardinality: N'_M = N_M + N_D (Eq. 2).
  ASSERT_EQ(merged.size(), main.size() + delta.size());

  // Dictionary = sorted union without duplicates (Eq. 3).
  std::set<V> expected_dict;
  for (const V& v : main.dictionary().values()) expected_dict.insert(v);
  for (const V& v : delta.values()) expected_dict.insert(v);
  // Note: builder dictionaries may contain values not present in any tuple;
  // they must survive the merge too (the merge unions dictionaries, not
  // tuples).
  ASSERT_EQ(merged.unique_values(), expected_dict.size());
  auto it = expected_dict.begin();
  for (uint32_t c = 0; c < merged.unique_values(); ++c, ++it) {
    ASSERT_EQ(merged.dictionary().At(c), *it);
  }

  // Code width: E'_C = ceil(log2 |U'_M|) (Eq. 4).
  ASSERT_EQ(merged.code_bits(), BitsForCardinality(merged.unique_values()));

  // Every tuple decodes to its original value, in order.
  for (uint64_t i = 0; i < main.size(); ++i) {
    ASSERT_EQ(merged.GetValue(i), main.GetValue(i)) << "main tuple " << i;
  }
  for (uint64_t k = 0; k < delta.size(); ++k) {
    ASSERT_EQ(merged.GetValue(main.size() + k), delta.Get(k))
        << "delta tuple " << k;
  }
}

struct MergeSweepParam {
  uint64_t nm;
  uint64_t nd;
  double lambda_m;
  double lambda_d;
  int threads;  // 0 = serial
};

void PrintTo(const MergeSweepParam& p, std::ostream* os) {
  *os << "nm=" << p.nm << " nd=" << p.nd << " lm=" << p.lambda_m
      << " ld=" << p.lambda_d << " nt=" << p.threads;
}

class MergeSweepTest : public ::testing::TestWithParam<MergeSweepParam> {};

TEST_P(MergeSweepTest, AllVariantsAgreeAndInvariantsHold) {
  const MergeSweepParam p = GetParam();
  const uint64_t seed = 1234 + p.nm * 3 + p.nd * 7 + p.threads;

  auto main = BuildMainPartition<8>(p.nm, p.lambda_m, seed);
  DeltaPartition<8> delta;
  for (uint64_t k : GenerateColumnKeys(p.nd, p.lambda_d, 8, seed ^ 0xd31)) {
    delta.Insert(Value8::FromKey(k));
  }

  MergeOptions linear;
  MergeStats stats;
  ThreadTeam* team = nullptr;
  ThreadTeam owned_team(p.threads > 0 ? p.threads : 1);
  if (p.threads > 0) team = &owned_team;

  auto merged =
      MergeColumnPartitions<8>(main, delta, linear, team, &stats);
  CheckMergeInvariants<8>(main, delta, merged);

  // The serial linear merge is the reference: all variants must match its
  // codes bit for bit.
  auto reference = MergeColumnPartitions<8>(main, delta, linear);
  ASSERT_EQ(merged.size(), reference.size());
  ASSERT_EQ(merged.code_bits(), reference.code_bits());
  for (uint64_t i = 0; i < merged.size(); ++i) {
    ASSERT_EQ(merged.GetCode(i), reference.GetCode(i)) << "tuple " << i;
  }

  MergeOptions naive;
  naive.algorithm = MergeAlgorithm::kNaive;
  auto naive_merged = MergeColumnPartitions<8>(main, delta, naive, team);
  ASSERT_EQ(naive_merged.size(), reference.size());
  for (uint64_t i = 0; i < naive_merged.size(); ++i) {
    ASSERT_EQ(naive_merged.GetCode(i), reference.GetCode(i));
  }

  EXPECT_EQ(stats.nm, p.nm);
  EXPECT_EQ(stats.nd, p.nd);
  EXPECT_EQ(stats.u_merged, merged.unique_values());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergeSweepTest,
    ::testing::Values(
        // Serial baselines across unique fractions.
        MergeSweepParam{20000, 1000, 0.10, 0.10, 0},
        MergeSweepParam{20000, 1000, 0.01, 1.00, 0},
        MergeSweepParam{20000, 1000, 1.00, 0.01, 0},
        MergeSweepParam{20000, 2000, 1.00, 1.00, 0},
        MergeSweepParam{5000, 5000, 0.001, 0.001, 0},
        // Parallel with several team sizes.
        MergeSweepParam{20000, 1000, 0.10, 0.10, 2},
        MergeSweepParam{20000, 1000, 0.10, 0.10, 3},
        MergeSweepParam{20000, 1000, 1.00, 1.00, 4},
        MergeSweepParam{30000, 3000, 0.50, 0.50, 8},
        MergeSweepParam{10000, 10000, 0.05, 0.95, 5},
        // Degenerate shapes.
        MergeSweepParam{0, 1000, 0.10, 0.10, 0},
        MergeSweepParam{0, 1000, 0.10, 0.10, 4},
        MergeSweepParam{10000, 1, 0.10, 1.00, 2},
        MergeSweepParam{1, 1, 1.00, 1.00, 2},
        MergeSweepParam{64, 64, 1.00, 1.00, 8}));

// Empty delta: merge degenerates to recompressing the main partition.
TEST(MergeEdgeCases, EmptyDeltaKeepsMainIntact) {
  auto main = BuildMainPartition<8>(5000, 0.2, 99);
  DeltaPartition<8> delta;
  auto merged = MergeColumnPartitions<8>(main, delta, MergeOptions{});
  CheckMergeInvariants<8>(main, delta, merged);
  EXPECT_EQ(merged.unique_values(), main.unique_values());
}

TEST(MergeEdgeCases, BothEmpty) {
  MainPartition<8> main;
  DeltaPartition<8> delta;
  auto merged = MergeColumnPartitions<8>(main, delta, MergeOptions{});
  EXPECT_EQ(merged.size(), 0u);
  EXPECT_EQ(merged.unique_values(), 0u);
}

TEST(MergeEdgeCases, DeltaValuesAllDuplicatesOfMain) {
  // |U'| == |U_M|: no new values, code width unchanged.
  std::vector<Value8> mv;
  for (uint64_t k = 0; k < 100; ++k) mv.push_back(Value8::FromKey(k));
  auto main = MainPartition<8>::FromValues(mv);
  DeltaPartition<8> delta;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    delta.Insert(Value8::FromKey(rng.Below(100)));
  }
  auto merged = MergeColumnPartitions<8>(main, delta, MergeOptions{});
  CheckMergeInvariants<8>(main, delta, merged);
  EXPECT_EQ(merged.unique_values(), 100u);
  EXPECT_EQ(merged.code_bits(), main.code_bits());
}

TEST(MergeEdgeCases, DeltaAllNewValuesGrowsCodeWidth) {
  std::vector<Value8> mv;
  for (uint64_t k = 0; k < 4; ++k) mv.push_back(Value8::FromKey(k));
  auto main = MainPartition<8>::FromValues(mv);  // 4 values -> 2 bits
  DeltaPartition<8> delta;
  for (uint64_t k = 100; k < 100 + 60; ++k) {
    delta.Insert(Value8::FromKey(k));
  }
  auto merged = MergeColumnPartitions<8>(main, delta, MergeOptions{});
  CheckMergeInvariants<8>(main, delta, merged);
  EXPECT_EQ(merged.unique_values(), 64u);
  EXPECT_EQ(merged.code_bits(), 6);  // 2 bits -> 6 bits
}

TEST(MergeEdgeCases, InterleavedDuplicatesAcrossPartitions) {
  // Values alternate membership so nearly every merge step hits the
  // equal-values branch.
  std::vector<Value8> mv;
  for (uint64_t k = 0; k < 1000; k += 2) mv.push_back(Value8::FromKey(k));
  auto main = MainPartition<8>::FromValues(mv);
  DeltaPartition<8> delta;
  for (uint64_t k = 0; k < 1000; ++k) delta.Insert(Value8::FromKey(k));
  for (int nt : {0, 2, 4, 7}) {
    ThreadTeam team(nt > 0 ? nt : 1);
    auto merged = MergeColumnPartitions<8>(main, delta, MergeOptions{},
                                           nt > 0 ? &team : nullptr);
    CheckMergeInvariants<8>(main, delta, merged);
    EXPECT_EQ(merged.unique_values(), 1000u);
  }
}

// All widths: the merge is width-generic.
template <size_t W>
void WidthSweep() {
  auto main = BuildMainPartition<W>(8000, 0.3, 42 + W);
  DeltaPartition<W> delta;
  for (uint64_t k : GenerateColumnKeys(900, 0.5, W, 43 + W)) {
    delta.Insert(FixedValue<W>::FromKey(k));
  }
  ThreadTeam team(3);
  auto serial = MergeColumnPartitions<W>(main, delta, MergeOptions{});
  auto parallel =
      MergeColumnPartitions<W>(main, delta, MergeOptions{}, &team);
  CheckMergeInvariants<W>(main, delta, serial);
  ASSERT_EQ(serial.size(), parallel.size());
  for (uint64_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.GetCode(i), parallel.GetCode(i));
  }
}

TEST(MergeWidths, Width4) { WidthSweep<4>(); }
TEST(MergeWidths, Width8) { WidthSweep<8>(); }
TEST(MergeWidths, Width16) { WidthSweep<16>(); }

/// The raw delta values the naive Step 2 re-searches (size() and Get(k),
/// the layout contract of UpdateCompressedValuesNaive).
struct DeltaValues {
  std::vector<Value8> values;
  uint64_t size() const { return values.size(); }
  const Value8& Get(uint64_t k) const { return values[k]; }
};

/// The smallest cardinality whose codes take exactly `bits` bits.
uint64_t CardinalityForBits(uint8_t bits) {
  return bits == 1 ? 2 : (uint64_t{1} << (bits - 1)) + 1;
}

// Linear Step 2's block pipeline (Unpack, translate, append) against the naive
// Step 2, which re-searches every value and writes codes one at a time:
// old code widths 1-20, merged widths equal, +1 and +2, N_M not a multiple
// of 64 (so one block spans N_M), serial and in teams. The translation
// tables are built directly, so the merged dictionary can grow to 2^22
// values without a delta of that size.
TEST(MergeWidths, Step2BlocksMatchNaiveStep2) {
  const uint64_t nm = 64 * 23 + 29;
  const uint64_t nd = 700;
  ThreadTeam team1(1), team3(3), team4(4);
  for (uint8_t old_bits = 1; old_bits <= 20; ++old_bits) {
    for (uint8_t grow = 0; grow <= 2; ++grow) {
      SCOPED_TRACE(testing::Message() << "old bits " << int(old_bits)
                                      << " grow " << int(grow));
      const uint64_t um = CardinalityForBits(old_bits);
      const uint64_t merged_size =
          grow == 0 ? um : CardinalityForBits(old_bits + grow);
      const uint8_t new_bits = BitsForCardinality(merged_size);
      ASSERT_EQ(new_bits, old_bits + grow);

      std::vector<Value8> merged(merged_size);
      for (uint64_t r = 0; r < merged_size; ++r) {
        merged[r] = Value8::FromKey(3 * r + 1);
      }
      // X_M: old rank c -> an increasing new rank, the last one on top.
      std::vector<uint32_t> x_main(um);
      std::vector<Value8> old_dict(um);
      for (uint64_t c = 0; c < um; ++c) {
        x_main[c] = static_cast<uint32_t>(
            c == um - 1 ? merged_size - 1 : c * merged_size / um);
        old_dict[c] = merged[x_main[c]];
      }
      Rng rng(old_bits * 7 + grow);
      PackedVector main_codes(nm, old_bits);
      for (uint64_t i = 0; i < nm; ++i) {
        main_codes.Set(i, static_cast<uint32_t>(rng.Below(um)));
      }
      const auto main = MainPartition<8>::FromParts(
          Dictionary<8>::FromSortedUnique(std::move(old_dict)),
          std::move(main_codes));
      // X_D: 50 delta codes onto any merged rank, one of them the top.
      std::vector<uint32_t> x_delta(50);
      for (uint32_t& x : x_delta) {
        x = static_cast<uint32_t>(rng.Below(merged_size));
      }
      x_delta[7] = static_cast<uint32_t>(merged_size - 1);
      std::vector<uint32_t> delta_codes(nd);
      DeltaValues delta;
      for (uint32_t& d : delta_codes) {
        d = static_cast<uint32_t>(rng.Below(x_delta.size()));
        delta.values.push_back(merged[x_delta[d]]);
      }

      const PackedVector naive = UpdateCompressedValuesNaive<8>(
          main, delta, std::span<const Value8>(merged), new_bits);
      const uint64_t data_words = PackedBytes(nm + nd, new_bits) / 8;
      for (ThreadTeam* team : {&team1, &team3, &team4}) {
        const PackedVector linear = UpdateCompressedValuesLinear<8>(
            main, delta_codes, x_main, x_delta, new_bits, team);
        ASSERT_EQ(linear.size(), nm + nd);
        ASSERT_EQ(linear.bits(), new_bits);
        for (uint64_t i = 0; i < nm + nd; ++i) {
          ASSERT_EQ(linear.Get(i), naive.Get(i))
              << "tuple " << i << " team " << team->size();
        }
        ASSERT_TRUE(std::equal(linear.words(), linear.words() + data_words,
                               naive.words()))
            << "the words differ past the last code";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Step-level tests.
// ---------------------------------------------------------------------------

TEST(Step1a, ParallelScatterMatchesSerial) {
  DeltaPartition<8> delta;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    delta.Insert(Value8::FromKey(rng.Below(3000)));
  }
  auto serial = ExtractDeltaDictionary<8>(delta, true);
  for (int nt : {2, 3, 6}) {
    ThreadTeam team(nt);
    auto parallel = ExtractDeltaDictionary<8>(delta, true, &team);
    ASSERT_EQ(parallel.values.size(), serial.values.size());
    for (size_t i = 0; i < serial.values.size(); ++i) {
      ASSERT_EQ(parallel.values[i], serial.values[i]);
    }
    ASSERT_EQ(parallel.codes, serial.codes);
  }
}

TEST(Step1a, RecodedCodesAreDictionaryRanks) {
  DeltaPartition<8> delta;
  Rng rng(78);
  for (int i = 0; i < 5000; ++i) {
    delta.Insert(Value8::FromKey(rng.Below(800)));
  }
  auto dd = ExtractDeltaDictionary<8>(delta, true);
  ASSERT_EQ(dd.codes.size(), delta.size());
  for (uint64_t tid = 0; tid < delta.size(); ++tid) {
    ASSERT_LT(dd.codes[tid], dd.values.size());
    ASSERT_EQ(dd.values[dd.codes[tid]], delta.Get(tid));
  }
}

TEST(Step1b, TranslationTablesMapOldRanksToNewRanks) {
  Rng rng(79);
  std::set<uint64_t> sm, sd;
  while (sm.size() < 3000) sm.insert(rng.Next() >> 4);
  while (sd.size() < 700) sd.insert(rng.Next() >> 4);
  std::vector<Value8> um, ud;
  for (uint64_t k : sm) um.push_back(Value8::FromKey(k));
  for (uint64_t k : sd) ud.push_back(Value8::FromKey(k));
  std::sort(um.begin(), um.end());
  std::sort(ud.begin(), ud.end());

  for (int nt : {0, 2, 5}) {
    ThreadTeam team(nt > 0 ? nt : 1);
    auto dm = MergeDictionaries<8>(um, ud, true, nt > 0 ? &team : nullptr);
    ASSERT_EQ(dm.x_main.size(), um.size());
    ASSERT_EQ(dm.x_delta.size(), ud.size());
    for (size_t i = 0; i < um.size(); ++i) {
      ASSERT_EQ(dm.merged[dm.x_main[i]], um[i]);
    }
    for (size_t j = 0; j < ud.size(); ++j) {
      ASSERT_EQ(dm.merged[dm.x_delta[j]], ud[j]);
    }
    // Merged dictionary is sorted and unique.
    for (size_t i = 1; i < dm.merged.size(); ++i) {
      ASSERT_LT(dm.merged[i - 1], dm.merged[i]);
    }
  }
}

TEST(Step1b, WithoutAuxTablesLeavesThemEmpty) {
  std::vector<Value8> um{Value8::FromKey(1)};
  std::vector<Value8> ud{Value8::FromKey(2)};
  auto dm = MergeDictionaries<8>(um, ud, /*fill_aux=*/false);
  EXPECT_TRUE(dm.x_main.empty());
  EXPECT_TRUE(dm.x_delta.empty());
  EXPECT_EQ(dm.merged.size(), 2u);
}

}  // namespace
}  // namespace deltamerge
