// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the type-erased ColumnBase/ColumnHandle layer: factory, width
// dispatch, query virtuals, and the freeze/prepare/commit/abort merge
// protocol driven through the interface.

#include <gtest/gtest.h>

#include <memory>

#include "core/column_handle.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

TEST(MakeColumn, ProducesRequestedWidths) {
  for (size_t w : {size_t{4}, size_t{8}, size_t{16}}) {
    auto col = MakeColumn(w);
    ASSERT_NE(col, nullptr);
    EXPECT_EQ(col->value_width(), w);
    EXPECT_EQ(col->size(), 0u);
  }
}

TEST(ColumnHandle, InsertAndGetAcrossWidths) {
  for (size_t w : {size_t{4}, size_t{8}, size_t{16}}) {
    auto col = MakeColumn(w);
    // Keys are masked to the width for 4-byte columns.
    const uint64_t key = w == 4 ? 0xabcdu : 0xdeadbeefcafeULL;
    EXPECT_EQ(col->InsertKey(key), 0u);
    EXPECT_EQ(col->InsertKey(key + 1), 1u);
    EXPECT_EQ(col->GetKey(0), key);
    EXPECT_EQ(col->GetKey(1), key + 1);
    EXPECT_EQ(col->delta_size(), 2u);
    EXPECT_EQ(col->main_size(), 0u);
  }
}

/// Count of [lo, hi] over every part of a view of the whole column.
uint64_t CountAll(const ColumnBase& col, uint64_t lo, uint64_t hi) {
  const auto view = col.CaptureView(col.size());
  uint64_t n = 0;
  for (const auto part : ColumnReadView::kParts) {
    n += view->Count(part, lo, hi, nullptr);
  }
  return n;
}

TEST(ColumnHandle, QueriesAggregateAllPartitions) {
  auto col = MakeColumn(8);
  for (uint64_t k : {5u, 5u, 7u, 9u}) col->InsertKey(k);
  col->FreezeDelta();           // 4 tuples now frozen
  col->InsertKey(5);            // 1 tuple in the new active delta
  EXPECT_EQ(CountAll(*col, 5, 5), 3u);
  EXPECT_EQ(CountAll(*col, 5, 7), 4u);
  {
    const auto view = col->CaptureView(col->size());
    EXPECT_EQ(view->Sum(ColumnReadView::Part::kFrozen, nullptr), 26u);
    EXPECT_EQ(view->Sum(ColumnReadView::Part::kActive, nullptr), 5u);
  }
  col->AbortMerge();
  EXPECT_EQ(CountAll(*col, 5, 5), 3u);
}

TEST(ColumnHandle, MergeProtocolThroughInterface) {
  auto col = MakeColumn(8);
  for (uint64_t k = 0; k < 100; ++k) col->InsertKey(k % 10);
  EXPECT_FALSE(col->merge_in_progress());
  col->FreezeDelta();
  EXPECT_TRUE(col->merge_in_progress());
  const MergeStats stats = col->PrepareMerge(MergeOptions{}, nullptr);
  EXPECT_EQ(stats.nd, 100u);
  EXPECT_EQ(stats.u_merged, 10u);
  col->CommitMerge();
  EXPECT_FALSE(col->merge_in_progress());
  EXPECT_EQ(col->main_size(), 100u);
  EXPECT_EQ(col->main_unique(), 10u);
  EXPECT_EQ(col->delta_size(), 0u);
  // Post-merge reads unchanged.
  EXPECT_EQ(CountAll(*col, 3, 3), 10u);
}

TEST(ColumnHandle, RepeatedFreezeWithoutCommitIsFatalContractButAbortable) {
  auto col = MakeColumn(8);
  col->InsertKey(1);
  col->FreezeDelta();
  col->AbortMerge();
  EXPECT_FALSE(col->merge_in_progress());
  // Freeze again works after abort.
  col->FreezeDelta();
  col->PrepareMerge(MergeOptions{}, nullptr);
  col->CommitMerge();
  EXPECT_EQ(col->main_size(), 1u);
}

TEST(ColumnHandle, MemoryBytesGrows) {
  auto col = MakeColumn(16);
  const size_t before = col->memory_bytes();
  for (uint64_t k = 0; k < 10000; ++k) col->InsertKey(k);
  EXPECT_GT(col->memory_bytes(), before + 10000 * 16);
}

TEST(ColumnHandle, BuildColumnMatchesSpecs) {
  ColumnBuildSpec spec;
  spec.value_width = 8;
  spec.main_unique = 0.25;
  spec.delta_unique = 0.5;
  auto col = BuildColumn(4000, 500, spec, 99);
  EXPECT_EQ(col->main_size(), 4000u);
  EXPECT_EQ(col->delta_size(), 500u);
  EXPECT_EQ(col->main_unique(), 1000u);
  EXPECT_LE(col->delta_unique(), 250u);
  EXPECT_GE(col->delta_unique(), 150u);  // pool coverage is probabilistic
}

TEST(ColumnHandle, ParallelPrepareMatchesSerial) {
  ColumnBuildSpec spec{8, 0.3, 0.7};
  auto a = BuildColumn(20000, 3000, spec, 7);
  auto b = BuildColumn(20000, 3000, spec, 7);
  a->FreezeDelta();
  b->FreezeDelta();
  ThreadTeam team(4);
  a->PrepareMerge(MergeOptions{}, nullptr);
  b->PrepareMerge(MergeOptions{}, &team);
  a->CommitMerge();
  b->CommitMerge();
  ASSERT_EQ(a->size(), b->size());
  for (uint64_t row = 0; row < a->size(); row += 97) {
    EXPECT_EQ(a->GetKey(row), b->GetKey(row));
  }
}

}  // namespace
}  // namespace deltamerge
