// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the §9 future-work extensions: the unsorted (append-only) delta
// structure, the read-cost model + delta-size advisor, merge throttling,
// and the horizontally partitioned table.

#include <gtest/gtest.h>

#include "core/merge_algorithms.h"
#include "core/partitioned_table.h"
#include "model/read_cost.h"
#include "storage/unsorted_delta.h"
#include "util/cycle_clock.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

// --- UnsortedDeltaPartition -------------------------------------------------

TEST(UnsortedDelta, InsertIsAppendOnly) {
  UnsortedDeltaPartition<8> delta;
  EXPECT_EQ(delta.Insert(Value8::FromKey(5)), 0u);
  EXPECT_EQ(delta.Insert(Value8::FromKey(3)), 1u);
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta.Get(0).key(), 5u);
  EXPECT_EQ(delta.Get(1).key(), 3u);
}

TEST(UnsortedDelta, ScanQueries) {
  UnsortedDeltaPartition<8> delta;
  for (uint64_t k : {5u, 3u, 5u, 9u, 5u}) delta.Insert(Value8::FromKey(k));
  EXPECT_EQ(delta.CountEquals(Value8::FromKey(5)), 3u);
  EXPECT_EQ(delta.CountEquals(Value8::FromKey(4)), 0u);
  EXPECT_EQ(delta.CountRange(Value8::FromKey(3), Value8::FromKey(5)), 4u);
}

TEST(UnsortedDelta, BuildDictionaryMatchesCsbDelta) {
  // Same values through both delta structures must produce identical
  // Step 1(a) outputs.
  Rng rng(71);
  DeltaPartition<8> csb;
  UnsortedDeltaPartition<8> flat;
  for (int i = 0; i < 20000; ++i) {
    const Value8 v = Value8::FromKey(rng.Below(3000));
    csb.Insert(v);
    flat.Insert(v);
  }
  const auto from_csb = ExtractDeltaDictionary<8>(csb, /*recode=*/true);
  const auto from_flat = ExtractDeltaDictionary<8>(flat, /*recode=*/true);
  ASSERT_EQ(from_flat.values.size(), from_csb.values.size());
  for (size_t i = 0; i < from_csb.values.size(); ++i) {
    ASSERT_EQ(from_flat.values[i], from_csb.values[i]);
  }
  ASSERT_EQ(from_flat.codes, from_csb.codes);
}

TEST(UnsortedDelta, FullMergeEquivalence) {
  auto main = BuildMainPartition<8>(30000, 0.2, 72);
  DeltaPartition<8> csb;
  UnsortedDeltaPartition<8> flat;
  for (uint64_t k : GenerateColumnKeys(2500, 0.4, 8, 73)) {
    csb.Insert(Value8::FromKey(k));
    flat.Insert(Value8::FromKey(k));
  }
  for (MergeAlgorithm algo :
       {MergeAlgorithm::kLinear, MergeAlgorithm::kNaive}) {
    MergeOptions options;
    options.algorithm = algo;
    auto a = MergeColumnPartitions<8>(main, csb, options);
    auto b = MergeColumnPartitions<8>(main, flat, options);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.code_bits(), b.code_bits());
    for (uint64_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.GetCode(i), b.GetCode(i)) << "algo "
                                            << MergeAlgorithmToString(algo)
                                            << " tuple " << i;
    }
  }
}

TEST(UnsortedDelta, EmptyAndSingleValue) {
  UnsortedDeltaPartition<16> delta;
  EXPECT_TRUE(delta.BuildDictionary(nullptr).empty());
  delta.Insert(Value16::FromKey(7));
  std::vector<uint32_t> codes;
  const auto dict = delta.BuildDictionary(&codes);
  ASSERT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict[0].key(), 7u);
  EXPECT_EQ(codes, (std::vector<uint32_t>{0}));
}

// --- read-cost model + advisor ----------------------------------------------

TEST(ReadCost, ScanGrowsWithDeltaSize) {
  const MachineProfile m = MachineProfile::Paper();
  MergeShape small = MergeShape::FromParameters(10'000'000, 10'000, 0.1,
                                                0.1, 8);
  MergeShape big = small;
  big.nd = 1'000'000;
  EXPECT_GT(ScanCycles(big, m, 1), ScanCycles(small, m, 1));
}

TEST(ReadCost, DeltaTupleCostsMoreThanMergedTuple) {
  // §4: the uncompressed delta consumes more bandwidth per tuple than the
  // compressed main — that is the whole reason to merge.
  const MachineProfile m = MachineProfile::Paper();
  const MergeShape s = MergeShape::FromParameters(10'000'000, 100'000,
                                                  0.1, 0.1, 8);
  EXPECT_GT(DeltaScanTaxCyclesPerTuple(s, m, 1), 0.0);
}

TEST(ReadCost, LookupDominatedByScanForLargeMain) {
  const MachineProfile m = MachineProfile::Paper();
  MergeShape s = MergeShape::FromParameters(100'000'000, 100'000, 0.1,
                                            0.1, 8);
  const double lookup = LookupCycles(s, m, 1);
  EXPECT_GT(lookup, 0.0);
  // The code scan term dominates the dictionary probes at this size.
  s.nm = 1000;
  s.um = 100;
  s.DeriveCodeBits();
  EXPECT_LT(LookupCycles(s, m, 1), lookup);
}

TEST(ReadCost, AdvisorTradeoffIsInteriorOptimum) {
  const MachineProfile m = MachineProfile::Paper();
  const MergeShape base = MergeShape::FromParameters(100'000'000,
                                                     1'000'000, 0.1, 0.1, 8);
  ReadWriteProfile profile;
  profile.scans_per_update = 0.5;
  const DeltaThreshold t = AdviseDeltaThreshold(base, m, 6, profile);
  // Interior optimum: strictly better than 4x smaller or 4x larger deltas.
  EXPECT_GT(t.optimal_nd, 256u);
  EXPECT_LT(t.fraction_of_main, 0.5);
  const double at_opt = t.cycles_per_update;
  EXPECT_LT(at_opt,
            CyclesPerUpdateAt(t.optimal_nd / 4, base, m, 6, profile));
  EXPECT_LT(at_opt,
            CyclesPerUpdateAt(std::min(base.nm / 2, t.optimal_nd * 4), base,
                              m, 6, profile));
  EXPECT_NEAR(t.merge_cycles_per_update + t.read_tax_cycles_per_update,
              t.cycles_per_update, 1e-6);
}

TEST(ReadCost, MoreScansShrinkOptimalDelta) {
  // Read-heavier workloads should merge more often (smaller N_D*).
  const MachineProfile m = MachineProfile::Paper();
  const MergeShape base = MergeShape::FromParameters(100'000'000,
                                                     1'000'000, 0.1, 0.1, 8);
  ReadWriteProfile few, many;
  few.scans_per_update = 0.05;
  many.scans_per_update = 5.0;
  const auto t_few = AdviseDeltaThreshold(base, m, 6, few);
  const auto t_many = AdviseDeltaThreshold(base, m, 6, many);
  EXPECT_LT(t_many.optimal_nd, t_few.optimal_nd);
}

// --- merge throttling -------------------------------------------------------

TEST(Throttle, ThrottledMergeIsSlowerButCorrect) {
  std::vector<ColumnBuildSpec> specs(4, ColumnBuildSpec{8, 0.2, 0.2});
  auto fast_table = BuildTable(2000, 400, specs, 81);
  auto slow_table = BuildTable(2000, 400, specs, 81);

  TableMergeOptions fast;
  auto fast_result = fast_table->Merge(fast);
  ASSERT_TRUE(fast_result.ok());

  TableMergeOptions slow;
  slow.inter_column_delay_us = 3000;  // 3 ms x 4 columns
  auto slow_result = slow_table->Merge(slow);
  ASSERT_TRUE(slow_result.ok());

  // The throttled merge slept >= 12 ms by construction; assert against that
  // floor rather than racing the unthrottled merge's wall time (which can
  // lose arbitrarily under CPU contention from parallel test runners).
  const uint64_t floor_cycles = static_cast<uint64_t>(
      0.012 * CycleClock::FrequencyHz());
  EXPECT_GT(slow_result.ValueOrDie().wall_cycles, floor_cycles);
  for (uint64_t row = 0; row < 2400; row += 97) {
    EXPECT_EQ(slow_table->GetKey(0, row), fast_table->GetKey(0, row));
  }
}

// --- PartitionedTable ---------------------------------------------------------

TEST(PartitionedTable, RollsOverAtCapacity) {
  PartitionedTable t(Schema::Uniform(2, 8), /*segment_capacity=*/100);
  std::vector<uint64_t> row{1, 2};
  for (int i = 0; i < 250; ++i) t.InsertRow(row);
  EXPECT_EQ(t.num_rows(), 250u);
  EXPECT_EQ(t.num_segments(), 3u);
  EXPECT_EQ(t.segment(0).num_rows(), 100u);
  EXPECT_EQ(t.segment(1).num_rows(), 100u);
  EXPECT_EQ(t.segment(2).num_rows(), 50u);
}

TEST(PartitionedTable, GlobalRowIdsSpanSegments) {
  PartitionedTable t(Schema::Uniform(1, 8), 10);
  for (uint64_t i = 0; i < 35; ++i) {
    const uint64_t row = t.InsertRow({i});
    EXPECT_EQ(row, i);
  }
  for (uint64_t i = 0; i < 35; ++i) {
    EXPECT_EQ(t.GetKey(0, i), i);
  }
}

TEST(PartitionedTable, QueriesFanOut) {
  PartitionedTable t(Schema::Uniform(1, 8), 16);
  uint64_t expected_sum = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    t.InsertRow({i % 7});
    expected_sum += i % 7;
  }
  // i % 7 over i = 0..99: values 0 and 1 appear 15 times, values 2..6
  // appear 14 times.
  EXPECT_EQ(t.CountEquals(0, 3), 14u);
  EXPECT_EQ(t.CountRange(0, 2, 4), 42u);
  EXPECT_EQ(t.SumColumn(0), expected_sum);
}

TEST(PartitionedTable, MergeDueSegmentsOnlyTouchesDirtySegments) {
  PartitionedTable t(Schema::Uniform(2, 8), 50);
  std::vector<uint64_t> row{1, 2};
  for (int i = 0; i < 120; ++i) t.InsertRow(row);
  EXPECT_EQ(t.delta_rows(), 120u);

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.0;
  policy.min_delta_rows = 1;
  const PartitionedMergeReport r =
      t.MergeDueSegments(policy, TableMergeOptions{});
  EXPECT_EQ(r.table.rows_merged, 120u);
  EXPECT_EQ(t.delta_rows(), 0u);

  // Insert a little more: only the tail segment is dirty now (the sealed
  // segments had their final merge and are skipped forever).
  for (int i = 0; i < 5; ++i) t.InsertRow(row);
  const PartitionedMergeReport r2 =
      t.MergeDueSegments(policy, TableMergeOptions{});
  EXPECT_EQ(r2.table.rows_merged, 5u);
  EXPECT_EQ(r2.segments_merged, 1u);
  // Merge work touched only one bounded segment (2 columns x <=55 rows).
  EXPECT_LE(r2.table.stats.nm + r2.table.stats.nd, 2u * 55u);
  EXPECT_TRUE(t.segment_delta_free(0));
  EXPECT_TRUE(t.segment_delta_free(1));
}

TEST(PartitionedTable, BoundedMergeWorkPerSegment) {
  // The §9 payoff: per-merge tuple volume is bounded by the segment
  // capacity regardless of total table size.
  PartitionedTable t(Schema::Uniform(1, 8), 64);
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.0;
  policy.min_delta_rows = 1;
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 64; ++i) t.InsertRow({static_cast<uint64_t>(i)});
    const PartitionedMergeReport r =
        t.MergeDueSegments(policy, TableMergeOptions{});
    EXPECT_LE(r.table.stats.nm + r.table.stats.nd, 2u * 64u)
        << "batch " << batch;
    EXPECT_LE(r.max_segment_wall_cycles, r.table.wall_cycles);
  }
  EXPECT_EQ(t.num_rows(), 640u);
  EXPECT_EQ(t.delta_rows(), 0u);
  // Everything still readable.
  for (uint64_t i = 0; i < 640; ++i) {
    ASSERT_EQ(t.GetKey(0, i), i % 64);
  }
}

TEST(PartitionedTable, DataConservedAcrossManyRollovers) {
  PartitionedTable t(Schema::Uniform(2, 8), 33);
  Rng rng(83);
  uint64_t sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.Below(500);
    t.InsertRow({k, k + 1});
    sum += k;
  }
  TableMergeOptions options;
  t.MergeAll(options);
  EXPECT_EQ(t.SumColumn(0), sum);
  EXPECT_EQ(t.SumColumn(1), sum + 1000);
  EXPECT_EQ(t.delta_rows(), 0u);
  EXPECT_EQ(t.num_segments(), (1000 + 32) / 33 + 0u);
}

}  // namespace
}  // namespace deltamerge
