// Copyright (c) 2026 The DeltaMerge Authors.
// End-to-end integration tests: sustained mixed workloads with background
// merging, multi-width tables over many merge cycles, data conservation
// under concurrent readers/writers/merger, and failure-injection via merge
// aborts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "core/table.h"
#include "workload/query_gen.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

TEST(Integration, MixedWorkloadWithPeriodicMerges) {
  std::vector<ColumnBuildSpec> specs = {
      {8, 0.05, 0.1}, {8, 0.5, 0.5}, {4, 0.01, 0.05}, {16, 0.9, 0.9}};
  auto table = BuildTable(20000, 0, specs, 1001);

  WorkloadOptions wopt;
  wopt.key_domain = 1 << 18;
  uint64_t inserted = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const WorkloadReport report =
        RunMixedWorkload(table.get(), OltpMix(), 3000, wopt);
    inserted += report.count[static_cast<size_t>(QueryType::kInsert)] +
                report.count[static_cast<size_t>(QueryType::kModification)];
    TableMergeOptions mopt;
    mopt.num_threads = 2;
    ASSERT_TRUE(table->Merge(mopt).ok());
    ASSERT_EQ(table->delta_rows(), 0u);
    wopt.seed += 17;
  }
  EXPECT_EQ(table->num_rows(), 20000u + inserted);
  // All rows ended up in the main partitions.
  for (size_t c = 0; c < specs.size(); ++c) {
    EXPECT_EQ(table->column(c).main_size(), table->num_rows());
  }
}

TEST(Integration, SumConservedAcrossManyMergeCycles) {
  Table t(Schema::Uniform(2, 8));
  Rng rng(2002);
  uint64_t expected_sum = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (int i = 0; i < 500; ++i) {
      const uint64_t k = rng.Below(10000);
      const uint64_t keys[] = {k, k * 2};
      t.InsertRow(keys);
      expected_sum += k;
    }
    // Alternate every merge configuration the library supports.
    TableMergeOptions options;
    options.merge.algorithm = (cycle % 2 == 0) ? MergeAlgorithm::kLinear
                                               : MergeAlgorithm::kNaive;
    options.num_threads = 1 + cycle % 4;
    options.parallelism = (cycle % 3 == 0) ? MergeParallelism::kIntraColumn
                                           : MergeParallelism::kColumnTasks;
    ASSERT_TRUE(t.Merge(options).ok());
    ASSERT_EQ(t.SumColumn(0), expected_sum) << "cycle " << cycle;
    ASSERT_EQ(t.SumColumn(1), expected_sum * 2) << "cycle " << cycle;
  }
  EXPECT_EQ(t.num_rows(), 4000u);
}

TEST(Integration, ConcurrentReadersWritersAndMerger) {
  auto table = BuildTable(
      10000, 0, std::vector<ColumnBuildSpec>(2, ColumnBuildSpec{8, 0.1, 0.1}),
      3003);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_done{0};
  std::atomic<bool> reader_error{false};

  constexpr uint64_t kBaseRows = 10000;  // builder rows lack the invariant
  std::thread reader([&] {
    Rng rng(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t rows = table->num_rows();
      if (rows <= kBaseRows) continue;
      // Writer-inserted rows maintain column1 == column0 + 1; reads must
      // honour it at every instant, merge or no merge.
      const uint64_t row = kBaseRows + rng.Below(rows - kBaseRows);
      const uint64_t a = table->GetKey(0, row);
      const uint64_t b = table->GetKey(1, row);
      if (b != a + 1) reader_error.store(true);
      reads_done.fetch_add(1);
    }
  });

  std::thread writer([&] {
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
      const uint64_t k = rng.Below(100000);
      const uint64_t keys[] = {k, k + 1};
      table->InsertRow(keys);
    }
  });

  // Merge repeatedly while the storm runs.
  int merges = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = table->Merge(TableMergeOptions{});
    if (r.ok()) ++merges;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  writer.join();
  stop.store(true);
  reader.join();

  EXPECT_FALSE(reader_error.load());
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(merges, 0);
  EXPECT_EQ(table->num_rows(), 15000u);

  // Wait-free check afterwards: one final merge folds everything.
  ASSERT_TRUE(table->Merge(TableMergeOptions{}).ok());
  EXPECT_EQ(table->column(0).main_size(), 15000u);
  for (uint64_t row = kBaseRows; row < 15000; row += 37) {
    EXPECT_EQ(table->GetKey(1, row), table->GetKey(0, row) + 1);
  }
}

TEST(Integration, BackgroundSchedulerUnderInsertStorm) {
  auto table = BuildTable(
      50000, 0, std::vector<ColumnBuildSpec>(3, ColumnBuildSpec{8, 0.2, 0.2}),
      4004);
  // Adopt the prebuilt table as the one unbounded segment.
  const PartitionedTable::RecoveredSegment adopted{table.get(), false};
  PartitionedTable part(table->schema(), std::numeric_limits<uint64_t>::max(),
                        nullptr, {&adopted, 1});
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.005;
  policy.min_delta_rows = 64;
  TableMergeOptions options;
  options.num_threads = 2;
  PartitionedMergeDaemon daemon(&part, policy, options);
  daemon.Start();

  Rng rng(5);
  std::vector<uint64_t> row(3);
  uint64_t checksum = 0;
  for (int i = 0; i < 5000; ++i) {
    row[0] = rng.Below(1000);
    row[1] = rng.Below(100);
    row[2] = rng.Next() >> 32;
    checksum += row[0];
    part.InsertRow(row);
  }
  daemon.Stop();

  EXPECT_EQ(part.num_rows(), 55000u);
  // Nothing lost, nothing duplicated: recompute column 0's inserted sum.
  const uint64_t main_plus_delta_sum = part.SumColumn(0);
  // Subtract the builder-generated base rows' contribution.
  auto base = BuildTable(
      50000, 0, std::vector<ColumnBuildSpec>(3, ColumnBuildSpec{8, 0.2, 0.2}),
      4004);
  EXPECT_EQ(main_plus_delta_sum - base->SumColumn(0), checksum);
}

TEST(Integration, AbortMergeRestoresWritePath) {
  Table t(Schema::Uniform(2, 8));
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t keys[] = {i, i};
    t.InsertRow(keys);
  }
  // Drive the column-level protocol directly to inject an abort.
  t.column(0).FreezeDelta();
  t.column(1).FreezeDelta();
  t.column(0).AbortMerge();
  t.column(1).AbortMerge();
  EXPECT_EQ(t.delta_rows(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(t.GetKey(0, i), i);
  }
  // A real merge still works afterwards.
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  EXPECT_EQ(t.column(0).main_size(), 100u);
}

TEST(Integration, HistoryPreservedThroughMerges) {
  // Insert-only semantics survive the merge: superseded versions remain
  // addressable, validity marks the current one.
  Table t(Schema::Uniform(1, 8));
  const uint64_t k0[] = {10};
  const uint64_t row0 = t.InsertRow(k0);
  const uint64_t k1[] = {20};
  const uint64_t row1 = t.UpdateRow(row0, k1);
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  const uint64_t k2[] = {30};
  const uint64_t row2 = t.UpdateRow(row1, k2);
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());

  EXPECT_EQ(t.GetKey(0, row0), 10u);
  EXPECT_EQ(t.GetKey(0, row1), 20u);
  EXPECT_EQ(t.GetKey(0, row2), 30u);
  EXPECT_FALSE(t.IsRowValid(row0));
  EXPECT_FALSE(t.IsRowValid(row1));
  EXPECT_TRUE(t.IsRowValid(row2));
  EXPECT_EQ(t.valid_rows(), 1u);
}

TEST(Integration, WideMixedWidthTable) {
  // A miniature of the paper's wide tables: 30 columns mixing widths and
  // cardinalities, several merge rounds, full verification.
  std::vector<ColumnBuildSpec> specs;
  for (int i = 0; i < 30; ++i) {
    ColumnBuildSpec s;
    s.value_width = (i % 3 == 0) ? 4 : (i % 3 == 1) ? 8 : 16;
    s.main_unique = (i % 4 == 0) ? 0.001 : (i % 4 == 1) ? 0.05 : 0.5;
    s.delta_unique = s.main_unique;
    specs.push_back(s);
  }
  auto table = BuildTable(5000, 500, specs, 6006);
  std::map<size_t, uint64_t> sums_before;
  for (size_t c = 0; c < specs.size(); ++c) {
    sums_before[c] = table->SumColumn(c);
  }
  TableMergeOptions options;
  options.num_threads = 3;
  ASSERT_TRUE(table->Merge(options).ok());
  for (size_t c = 0; c < specs.size(); ++c) {
    EXPECT_EQ(table->SumColumn(c), sums_before[c]) << "column " << c;
    EXPECT_EQ(table->column(c).main_size(), 5500u);
  }
}

}  // namespace
}  // namespace deltamerge
