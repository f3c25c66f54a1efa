// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for DeltaPartition, MainPartition, ValidityVector and Column: the
// storage composition under the merge.

#include <gtest/gtest.h>

#include <vector>

#include "storage/column.h"
#include "storage/delta_partition.h"
#include "storage/main_partition.h"
#include "storage/validity.h"
#include "util/random.h"

namespace deltamerge {
namespace {

// --- DeltaPartition ---------------------------------------------------------

TEST(DeltaPartition, InsertAssignsSequentialTupleIds) {
  DeltaPartition<8> delta;
  EXPECT_EQ(delta.Insert(Value8::FromKey(5)), 0u);
  EXPECT_EQ(delta.Insert(Value8::FromKey(3)), 1u);
  EXPECT_EQ(delta.Insert(Value8::FromKey(5)), 2u);
  EXPECT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.unique_values(), 2u);
  EXPECT_EQ(delta.Get(0).key(), 5u);
  EXPECT_EQ(delta.Get(1).key(), 3u);
  EXPECT_EQ(delta.Get(2).key(), 5u);
}

TEST(DeltaPartition, TreeTracksPostings) {
  DeltaPartition<8> delta;
  delta.Insert(Value8::FromKey(9));
  delta.Insert(Value8::FromKey(9));
  auto cursor = delta.tree().Find(Value8::FromKey(9));
  ASSERT_FALSE(cursor.Done());
  EXPECT_EQ(cursor.TupleId(), 0u);
  cursor.Advance();
  EXPECT_EQ(cursor.TupleId(), 1u);
}

TEST(DeltaPartition, ClearEmpties) {
  DeltaPartition<4> delta;
  delta.Insert(Value4::FromKey(1));
  delta.Clear();
  EXPECT_EQ(delta.size(), 0u);
  EXPECT_EQ(delta.unique_values(), 0u);
}

TEST(DeltaPartition, MemoryGrowsWithInserts) {
  DeltaPartition<16> delta;
  const size_t before = delta.memory_bytes();
  for (int i = 0; i < 1000; ++i) {
    delta.Insert(Value16::FromKey(static_cast<uint64_t>(i)));
  }
  EXPECT_GT(delta.memory_bytes(), before + 1000 * sizeof(Value16));
}

// --- MainPartition ----------------------------------------------------------

TEST(MainPartition, FromValuesRoundtrips) {
  std::vector<Value8> values;
  for (uint64_t k : {50u, 10u, 30u, 10u, 50u}) {
    values.push_back(Value8::FromKey(k));
  }
  auto main = MainPartition<8>::FromValues(values);
  EXPECT_EQ(main.size(), 5u);
  EXPECT_EQ(main.unique_values(), 3u);
  EXPECT_EQ(main.code_bits(), 2);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(main.GetValue(i), values[i]);
  }
  // Codes are dictionary ranks: 10 -> 0, 30 -> 1, 50 -> 2.
  EXPECT_EQ(main.GetCode(0), 2u);
  EXPECT_EQ(main.GetCode(1), 0u);
  EXPECT_EQ(main.GetCode(2), 1u);
}

TEST(MainPartition, EmptyPartition) {
  MainPartition<8> main;
  EXPECT_EQ(main.size(), 0u);
  EXPECT_TRUE(main.empty());
  EXPECT_EQ(main.unique_values(), 0u);
}

TEST(MainPartition, PaperFigure5Example) {
  // Figure 5's main column: apple charlie delta frank hotel inbox hotel
  // delta frank delta — 6 unique values, 3-bit codes.
  const uint64_t apple = 1, bravo = 2, charlie = 3, delta_v = 4, frank = 5,
                 golf = 6, hotel = 7, inbox = 8, young = 9;
  (void)bravo;
  (void)golf;
  (void)young;
  std::vector<Value8> tuples;
  for (uint64_t k :
       {apple, charlie, delta_v, frank, hotel, inbox, hotel, delta_v, frank,
        delta_v}) {
    tuples.push_back(Value8::FromKey(k));
  }
  auto main = MainPartition<8>::FromValues(tuples);
  EXPECT_EQ(main.unique_values(), 6u);
  EXPECT_EQ(main.code_bits(), 3);  // ceil(log2 6) = 3, as in the paper
  EXPECT_EQ(main.GetCode(4), 4u);  // "hotel" encodes to 4 before the merge
}

// --- ValidityVector ---------------------------------------------------------

TEST(Validity, AppendAndInvalidate) {
  ValidityVector v;
  EXPECT_EQ(v.Append(3), 0u);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.valid_count(), 3u);
  EXPECT_TRUE(v.IsValid(1));
  v.Invalidate(1);
  EXPECT_FALSE(v.IsValid(1));
  EXPECT_EQ(v.valid_count(), 2u);
  // Idempotent.
  v.Invalidate(1);
  EXPECT_EQ(v.valid_count(), 2u);
}

TEST(Validity, AppendReturnsFirstNewRow) {
  ValidityVector v;
  EXPECT_EQ(v.Append(10), 0u);
  EXPECT_EQ(v.Append(5), 10u);
  EXPECT_EQ(v.size(), 15u);
}

// Append sets a partial head word, whole middle words and a partial tail
// word; across splits at and around word boundaries, exactly the appended
// rows read valid and the rows below each append keep their bits.
TEST(Validity, AppendFillsPartialHeadAndTailWords) {
  for (uint64_t a : {1, 5, 63, 64, 65, 100}) {
    for (uint64_t b : {0, 1, 62, 63, 64, 129, 200}) {
      ValidityVector v;
      v.Append(a);
      v.Invalidate(0);
      EXPECT_EQ(v.Append(b), a);
      v.Append(3);
      const uint64_t n = a + b + 3;
      ASSERT_EQ(v.size(), n);
      for (uint64_t r = 0; r < n; ++r) {
        ASSERT_EQ(v.IsValid(r), r != 0)
            << "a " << a << " b " << b << " r " << r;
      }
      EXPECT_EQ(v.valid_count(), n - 1);
      EXPECT_EQ(v.CountValidPrefix(n), n - 1);
      uint64_t seen = 0;
      v.ForEachValid([&](uint64_t) { ++seen; });
      EXPECT_EQ(seen, n - 1);
    }
  }
}

TEST(Validity, ForEachValidSkipsTombstones) {
  ValidityVector v;
  v.Append(130);  // cross word boundaries
  v.Invalidate(0);
  v.Invalidate(63);
  v.Invalidate(64);
  v.Invalidate(129);
  std::vector<uint64_t> rows;
  v.ForEachValid([&](uint64_t r) { rows.push_back(r); });
  EXPECT_EQ(rows.size(), 126u);
  for (uint64_t r : rows) {
    EXPECT_TRUE(r != 0 && r != 63 && r != 64 && r != 129);
  }
}

// --- Column -----------------------------------------------------------------

TEST(Column, InsertGoesToDeltaAndGetCrossesPartitions) {
  std::vector<Value8> values;
  for (uint64_t k : {1u, 2u, 3u}) values.push_back(Value8::FromKey(k));
  Column<8> col(MainPartition<8>::FromValues(values));
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.Insert(Value8::FromKey(99)), 3u);
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col.main_size(), 3u);
  EXPECT_EQ(col.delta_size(), 1u);
  EXPECT_EQ(col.Get(0).key(), 1u);
  EXPECT_EQ(col.Get(3).key(), 99u);
}

TEST(Column, FreezeRedirectsInsertsAndKeepsRowIds) {
  Column<8> col;
  col.Insert(Value8::FromKey(10));
  col.Insert(Value8::FromKey(20));
  col.FreezeDelta();
  EXPECT_TRUE(col.merge_in_progress());
  EXPECT_EQ(col.frozen_size(), 2u);
  EXPECT_EQ(col.delta_size(), 0u);
  // New inserts land in the fresh active delta with continuing row ids.
  EXPECT_EQ(col.Insert(Value8::FromKey(30)), 2u);
  EXPECT_EQ(col.Get(0).key(), 10u);
  EXPECT_EQ(col.Get(1).key(), 20u);
  EXPECT_EQ(col.Get(2).key(), 30u);
}

TEST(Column, CommitInstallsMergedMain) {
  Column<8> col;
  col.Insert(Value8::FromKey(10));
  col.Insert(Value8::FromKey(20));
  col.FreezeDelta();
  std::vector<Value8> merged{Value8::FromKey(10), Value8::FromKey(20)};
  col.CommitMerge(MainPartition<8>::FromValues(merged));
  EXPECT_FALSE(col.merge_in_progress());
  EXPECT_EQ(col.main_size(), 2u);
  EXPECT_EQ(col.Get(1).key(), 20u);
}

TEST(Column, AbortRestoresDeltaInOrder) {
  Column<8> col;
  col.Insert(Value8::FromKey(1));
  col.Insert(Value8::FromKey(2));
  col.FreezeDelta();
  col.Insert(Value8::FromKey(3));
  col.AbortMerge();
  EXPECT_FALSE(col.merge_in_progress());
  EXPECT_EQ(col.delta_size(), 3u);
  EXPECT_EQ(col.Get(0).key(), 1u);
  EXPECT_EQ(col.Get(1).key(), 2u);
  EXPECT_EQ(col.Get(2).key(), 3u);
}

}  // namespace
}  // namespace deltamerge
