// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for Table: the insert-only write path, validity semantics, the
// three-phase online merge protocol, concurrent inserts during a merge, and
// the read and transaction-commit paths' bounds checks.

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "core/table.h"
#include "durable_torture_util.h"
#include "util/file_io.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

Schema SmallSchema() {
  Schema s;
  s.columns = {{8, "id"}, {8, "amount"}, {4, "status"}, {16, "doc"}};
  return s;
}

TEST(Table, InsertAndRead) {
  Table t(SmallSchema());
  EXPECT_EQ(t.num_columns(), 4u);
  const uint64_t keys[] = {100, 200, 3, 4000};
  const uint64_t row = t.InsertRow(keys);
  EXPECT_EQ(row, 0u);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetKey(0, 0), 100u);
  EXPECT_EQ(t.GetKey(1, 0), 200u);
  EXPECT_EQ(t.GetKey(2, 0), 3u);
  EXPECT_EQ(t.GetKey(3, 0), 4000u);
}

TEST(Table, UpdateIsInsertPlusInvalidate) {
  Table t(SmallSchema());
  const uint64_t keys[] = {1, 2, 3, 4};
  const uint64_t row = t.InsertRow(keys);
  const uint64_t keys2[] = {1, 2, 3, 5};
  const uint64_t row2 = t.UpdateRow(row, keys2);
  EXPECT_EQ(row2, 1u);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.valid_rows(), 1u);
  EXPECT_FALSE(t.IsRowValid(row));
  EXPECT_TRUE(t.IsRowValid(row2));
  // History remains queryable (insert-only, §3).
  EXPECT_EQ(t.GetKey(3, row), 4u);
  EXPECT_EQ(t.GetKey(3, row2), 5u);
}

TEST(Table, DeleteInvalidates) {
  Table t(SmallSchema());
  const uint64_t keys[] = {1, 2, 3, 4};
  const uint64_t row = t.InsertRow(keys);
  ASSERT_TRUE(t.DeleteRow(row).ok());
  EXPECT_FALSE(t.IsRowValid(row));
  EXPECT_EQ(t.valid_rows(), 0u);
  EXPECT_FALSE(t.DeleteRow(17).ok());
}

/// Every byte `column`'s current main partition serializes to: what a
/// checkpoint stores for it.
std::vector<uint8_t> MainBytes(const ColumnBase& column,
                               const std::string& path) {
  {
    auto out = FileWriter::Create(path);
    EXPECT_TRUE(out.ok());
    EXPECT_TRUE(column.CaptureMainSerializer()(*out.ValueOrDie()).ok());
    EXPECT_TRUE(out.ValueOrDie()->Close().ok());
  }
  auto in = FileReader::Open(path);
  EXPECT_TRUE(in.ok());
  std::vector<uint8_t> bytes(in.ValueOrDie()->file_size());
  EXPECT_TRUE(in.ValueOrDie()->Read(bytes.data(), bytes.size()).ok());
  return bytes;
}

TEST(Table, BatchInsertSerialAndParallelMatch) {
  // Three tables receive the same rows: `serial` and `parallel` as two
  // InsertRows batches each (the first into an empty delta, the second
  // into a non-empty one), `per_row` one InsertRow at a time.
  Table serial(SmallSchema());
  Table parallel(SmallSchema());
  Table per_row(SmallSchema());
  const uint64_t domains[] = {1000, 1ULL << 20, 16, 1ULL << 40};
  Rng rng(5);
  TaskQueue queue(4);
  uint64_t rows = 0;
  for (const uint64_t batch_rows : {500u, 300u}) {
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < batch_rows * 4; ++i) {
      batch.push_back(rng.Below(domains[i % 4]));
    }
    serial.InsertRows(batch, batch_rows, nullptr);
    parallel.InsertRows(batch, batch_rows, &queue);
    for (uint64_t r = 0; r < batch_rows; ++r) {
      per_row.InsertRow(std::span<const uint64_t>(batch).subspan(r * 4, 4));
    }
    rows += batch_rows;
  }

  for (const Table* t : {&serial, &parallel}) {
    ASSERT_EQ(t->num_rows(), rows);
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(t->column(c).delta_unique(), per_row.column(c).delta_unique());
      for (uint64_t r = 0; r < rows; ++r) {
        const uint64_t key = per_row.GetKey(c, r);
        ASSERT_EQ(t->GetKey(c, r), key) << "column " << c << " row " << r;
        ASSERT_EQ(t->CountEquals(c, key), per_row.CountEquals(c, key));
      }
    }
  }
  EXPECT_GT(serial.delta_update_cycles(), 0u);

  // The merge reads the delta trees (Step 1(a)), so identical merged mains
  // mean identical trees; checkpoints store exactly these bytes.
  for (Table* t : {&serial, &parallel, &per_row}) {
    ASSERT_TRUE(t->Merge(TableMergeOptions{}).ok());
  }
  testref::TortureScratchDir dir("batch_mains");
  const std::string path = dir.path() + "/main.bin";
  for (size_t c = 0; c < 4; ++c) {
    const std::vector<uint8_t> expected = MainBytes(per_row.column(c), path);
    EXPECT_EQ(MainBytes(serial.column(c), path), expected) << "column " << c;
    EXPECT_EQ(MainBytes(parallel.column(c), path), expected) << "column " << c;
  }
}

TEST(Table, CountQueriesSpanPartitions) {
  Table t(SmallSchema());
  const uint64_t k1[] = {7, 1, 1, 1};
  const uint64_t k2[] = {7, 2, 2, 2};
  const uint64_t k3[] = {8, 3, 3, 3};
  t.InsertRow(k1);
  t.InsertRow(k2);
  t.InsertRow(k3);
  EXPECT_EQ(t.CountEquals(0, 7), 2u);
  EXPECT_EQ(t.CountRange(0, 7, 8), 3u);
  EXPECT_EQ(t.SumColumn(0), 22u);

  // After a merge the same answers come from the main partition.
  TableMergeOptions options;
  auto result = t.Merge(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(t.CountEquals(0, 7), 2u);
  EXPECT_EQ(t.CountRange(0, 7, 8), 3u);
  EXPECT_EQ(t.SumColumn(0), 22u);
  EXPECT_EQ(t.delta_rows(), 0u);
  EXPECT_EQ(t.column(0).main_size(), 3u);
}

TEST(Table, MergeReportCountsAllColumns) {
  auto t = BuildTable(2000, 300,
                      std::vector<ColumnBuildSpec>(5, ColumnBuildSpec{}), 42);
  TableMergeOptions options;
  auto result = t->Merge(options);
  ASSERT_TRUE(result.ok());
  const TableMergeReport& report = result.ValueOrDie();
  EXPECT_EQ(report.stats.columns, 5u);
  EXPECT_EQ(report.stats.nm, 5u * 2000);
  EXPECT_EQ(report.stats.nd, 5u * 300);
  EXPECT_EQ(report.rows_merged, 300u);
  EXPECT_GT(report.wall_cycles, 0u);
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_EQ(t->column(c).main_size(), 2300u);
    EXPECT_EQ(t->column(c).delta_size(), 0u);
  }
}

TEST(Table, MergeParallelModesProduceSameData) {
  std::vector<ColumnBuildSpec> specs(6, ColumnBuildSpec{8, 0.2, 0.5});
  auto a = BuildTable(3000, 400, specs, 77);
  auto b = BuildTable(3000, 400, specs, 77);
  auto c = BuildTable(3000, 400, specs, 77);

  TableMergeOptions serial;
  TableMergeOptions column_tasks;
  column_tasks.num_threads = 4;
  column_tasks.parallelism = MergeParallelism::kColumnTasks;
  TableMergeOptions intra;
  intra.num_threads = 4;
  intra.parallelism = MergeParallelism::kIntraColumn;

  ASSERT_TRUE(a->Merge(serial).ok());
  ASSERT_TRUE(b->Merge(column_tasks).ok());
  ASSERT_TRUE(c->Merge(intra).ok());

  for (size_t col = 0; col < specs.size(); ++col) {
    for (uint64_t row = 0; row < 3400; row += 101) {
      const uint64_t expect = a->GetKey(col, row);
      EXPECT_EQ(b->GetKey(col, row), expect);
      EXPECT_EQ(c->GetKey(col, row), expect);
    }
  }
}

TEST(Table, SecondMergeRejectedWhileRunning) {
  Table t(SmallSchema());
  const uint64_t keys[] = {1, 2, 3, 4};
  t.InsertRow(keys);
  // Start a merge on another thread and race a second one. Exactly one of
  // any concurrent pair may run; the loser reports FailedPrecondition.
  std::atomic<int> ok_count{0}, fail_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto r = t.Merge(TableMergeOptions{});
      if (r.ok()) {
        ok_count.fetch_add(1);
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
        fail_count.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_EQ(ok_count.load() + fail_count.load(), 4);
}

TEST(Table, InsertsDuringMergeLandInNewDelta) {
  // Uses column-level control to emulate what Table::Merge does, verifying
  // reads cross main/frozen/active correctly mid-merge.
  Table t(SmallSchema());
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t keys[] = {i, i, i, i};
    t.InsertRow(keys);
  }

  std::atomic<bool> merge_done{false};
  std::thread inserter([&] {
    for (uint64_t i = 100; i < 200; ++i) {
      const uint64_t keys[] = {i, i, i, i};
      t.InsertRow(keys);
    }
  });
  auto result = t.Merge(TableMergeOptions{});
  merge_done.store(true);
  inserter.join();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(t.num_rows(), 200u);
  // Every row readable, every key correct, regardless of which side of the
  // merge it landed on.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(t.GetKey(0, i), i);
  }
  // All rows that were in the table before the merge are now in main.
  EXPECT_GE(t.column(0).main_size(), 100u);
}

TEST(Table, RepeatedMergesConverge) {
  Table t(Schema::Uniform(3, 8));
  Rng rng(8);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 200; ++i) {
      const uint64_t keys[] = {rng.Below(50), rng.Below(500), rng.Next()};
      t.InsertRow(keys);
    }
    ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
    ASSERT_EQ(t.delta_rows(), 0u);
    ASSERT_EQ(t.column(0).main_size(), (round + 1) * 200u);
  }
  EXPECT_EQ(t.num_rows(), 1000u);
  // Low-cardinality column keeps a small dictionary across merges.
  EXPECT_LE(t.column(0).main_unique(), 50u);
}

// --- read bounds -------------------------------------------------------------

// Out-of-range column and row ids abort in every build type instead of
// reading past a column vector or a delta's value array. (Suite name kept
// out of the TSan job's filter: death tests fork.)
TEST(ReadBoundsDeathTest, TableColumnIndex) {
  Table t(SmallSchema());
  t.InsertRow({1, 2, 3, 4});
  EXPECT_DEATH(t.GetKey(4, 0), "column index out of range");
  EXPECT_DEATH(t.CountEquals(4, 1), "column index out of range");
  EXPECT_DEATH(t.CountRange(9, 0, 9), "column index out of range");
  EXPECT_DEATH(t.SumColumn(4), "column index out of range");
}

TEST(ReadBoundsDeathTest, TableRowIndex) {
  Table t(SmallSchema());
  t.InsertRow({1, 2, 3, 4});
  EXPECT_EQ(t.GetKey(0, 0), 1u);
  EXPECT_DEATH(t.GetKey(0, 1), "row id beyond table size");
  EXPECT_DEATH(t.GetKey(3, 1000), "row id beyond table size");
}

TEST(ReadBoundsDeathTest, CapturedColumnIndex) {
  Table t(SmallSchema());
  t.InsertRow({1, 2, 3, 4});
  const Snapshot snap = t.CreateSnapshot();
  EXPECT_DEATH(snap.GetKey(4, 0), "column index out of range");
  EXPECT_DEATH(snap.CountEquals(4, 1), "column index out of range");
  EXPECT_DEATH(snap.CountRangeValid(4, 0, 9), "column index out of range");
  EXPECT_DEATH(snap.SumColumn(7), "column index out of range");
  EXPECT_DEATH(snap.CollectEquals(4, 1, true), "column index out of range");
  EXPECT_DEATH(snap.GetKey(0, 1), "row beyond the snapshot horizon");
}

TEST(ReadBoundsDeathTest, PartitionedRowIndex) {
  PartitionedTable t(SmallSchema(), 4);
  for (uint64_t i = 0; i < 6; ++i) t.InsertRow({i, i, i, i});
  EXPECT_EQ(t.GetKey(0, 5), 5u);
  // Row 6 falls in the tail segment's range but past its last row.
  EXPECT_DEATH(t.GetKey(0, 6), "row id beyond table size");
  EXPECT_DEATH(t.GetKey(0, 8), "global row id beyond table size");
  EXPECT_DEATH(t.GetKey(4, 0), "column index out of range");
}

// A transaction op list reaches the segment through Table::CommitTxnOps,
// which checks every insert/update op's key count before it frames, locks
// or applies anything — with no journal attached nothing else would, and a
// short key vector would be read past its end. (Suite name kept out of the
// TSan job's filter: death tests fork.)
TEST(WriteBoundsDeathTest, CommitTxnOpsKeyCount) {
  Table t(SmallSchema());
  t.InsertRow({1, 2, 3, 4});
  const std::vector<TxnOp> short_insert = {
      TxnOp{TxnOp::Kind::kInsert, 0, {7}}};
  const std::vector<TxnOp> long_update = {
      TxnOp{TxnOp::Kind::kUpdate, 0, {1, 2, 3, 4, 5}}};
  const std::vector<TxnOp> short_after_full = {
      TxnOp{TxnOp::Kind::kInsert, 0, {5, 6, 7, 8}},
      TxnOp{TxnOp::Kind::kUpdate, 0, {}}};
  const char* kMessage = "txn op key count does not match column count";
  EXPECT_DEATH((void)t.CommitTxnOps(short_insert, {}), kMessage);
  EXPECT_DEATH((void)t.CommitTxnOps(long_update, {}), kMessage);
  EXPECT_DEATH((void)t.CommitTxnOps(short_after_full, {}), kMessage);

  // A delete carries no keys; full-width ops commit.
  const std::vector<TxnOp> ok = {TxnOp{TxnOp::Kind::kDelete, 0, {}},
                                 TxnOp{TxnOp::Kind::kInsert, 0, {5, 6, 7, 8}}};
  ASSERT_TRUE(t.CommitTxnOps(ok, {}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_FALSE(t.IsRowValid(0));
  EXPECT_EQ(t.GetKey(3, 1), 8u);
}

}  // namespace
}  // namespace deltamerge
