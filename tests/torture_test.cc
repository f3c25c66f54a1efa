// Copyright (c) 2026 The DeltaMerge Authors.
// Torture suite: long randomized operation sequences checked against the
// shared single-threaded reference model (reference_model.h). This is the
// catch-all net for interactions the targeted tests miss — merges at
// arbitrary fill levels, updates of rows in every partition, deletes racing
// merges, dictionary growth across many epochs.
//
// Two modes:
//   * the serial replay (TortureTest): table and model execute the same
//     schedule on one thread, cross-checked after every merge;
//   * the online interleaving (OnlineMergeTorture): N reader threads pin
//     snapshots and verify them against model copies WHILE a single writer
//     mutates and the PartitionedMergeDaemon merges an unbounded (one
//     segment) table — the read-while-merge path under real concurrency,
//     run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "core/table.h"
#include "reference_model.h"
#include "util/random.h"

namespace deltamerge {
namespace {

using testref::ReferenceModel;

struct TortureParam {
  uint64_t seed;
  int ops;
  uint64_t domain;
  double merge_probability;
  int merge_threads;
};

void PrintTo(const TortureParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops << " dom=" << p.domain
      << " mp=" << p.merge_probability << " nt=" << p.merge_threads;
}

class TortureTest : public ::testing::TestWithParam<TortureParam> {};

TEST_P(TortureTest, TableMatchesReferenceThroughArbitraryMerges) {
  const TortureParam p = GetParam();
  Rng rng(p.seed);

  Schema schema;
  schema.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  Table table(schema);
  ReferenceModel ref({8, 4, 16});

  std::vector<uint64_t> keys(3);
  uint64_t merges = 0;
  for (int op = 0; op < p.ops; ++op) {
    const uint64_t dice = rng.Below(100);
    if (dice < 60 || ref.size() == 0) {
      for (auto& k : keys) k = rng.Below(p.domain);
      const uint64_t a = table.InsertRow(keys);
      const uint64_t b = ref.Insert(keys);
      ASSERT_EQ(a, b);
    } else if (dice < 80) {
      const uint64_t row = rng.Below(ref.size());
      for (auto& k : keys) k = rng.Below(p.domain);
      const uint64_t a = table.UpdateRow(row, keys);
      const uint64_t b = ref.Update(row, keys);
      ASSERT_EQ(a, b);
    } else if (dice < 90) {
      const uint64_t row = rng.Below(ref.size());
      ASSERT_TRUE(table.DeleteRow(row).ok());
      ref.Delete(row);
    } else {
      // Point verification of a random historical row.
      const uint64_t row = rng.Below(ref.size());
      const size_t col = static_cast<size_t>(rng.Below(3));
      ASSERT_EQ(table.GetKey(col, row), ref.Key(row, col));
      ASSERT_EQ(table.IsRowValid(row), ref.IsValid(row));
    }

    if (rng.NextDouble() < p.merge_probability) {
      TableMergeOptions options;
      options.num_threads = p.merge_threads;
      options.parallelism = (merges % 2 == 0)
                                ? MergeParallelism::kColumnTasks
                                : MergeParallelism::kIntraColumn;
      options.merge.algorithm = (merges % 3 == 0) ? MergeAlgorithm::kNaive
                                                  : MergeAlgorithm::kLinear;
      ASSERT_TRUE(table.Merge(options).ok());
      ++merges;

      // Full cross-check after each merge.
      ASSERT_EQ(table.num_rows(), ref.size());
      const uint64_t probe = rng.Below(p.domain);
      ASSERT_EQ(table.CountEquals(0, probe), ref.CountEquals(0, probe));
      const uint64_t lo = rng.Below(p.domain);
      const uint64_t hi = lo + rng.Below(p.domain / 4 + 1);
      ASSERT_EQ(table.CountRange(0, lo, hi), ref.CountRange(0, lo, hi));
      ASSERT_EQ(table.SumColumn(0), ref.Sum(0));
    }
  }

  // Terminal full sweep: every version of every row, every column.
  ASSERT_GE(merges, 1u) << "parameterization never merged";
  for (uint64_t row = 0; row < ref.size(); ++row) {
    for (size_t col = 0; col < 3; ++col) {
      ASSERT_EQ(table.GetKey(col, row), ref.Key(row, col))
          << "row " << row << " col " << col;
    }
    ASSERT_EQ(table.IsRowValid(row), ref.IsValid(row)) << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, TortureTest,
    ::testing::Values(
        TortureParam{1, 3000, 50, 0.01, 1},      // tiny domain: duplicates
        TortureParam{2, 3000, 1 << 30, 0.01, 1}, // huge domain: unique
        TortureParam{3, 2000, 1000, 0.05, 2},    // frequent merges
        TortureParam{4, 2000, 1000, 0.002, 4},   // rare merges, big deltas
        TortureParam{5, 5000, 97, 0.01, 3},      // prime-sized domain
        TortureParam{6, 1500, 7, 0.03, 2}));     // near-constant columns

// ---------------------------------------------------------------------------
// Online interleaving: readers + writer + merge daemon, differentially
// checked. The single writer applies every mutation to the table AND the
// reference model under `model_mu`; a reader captures (snapshot, expected
// answers) atomically under the same mutex, then verifies WITHOUT the lock
// while the writer keeps writing and the daemon merges. Any snapshot that
// started before a merge commit must still return the captured answers.
// ---------------------------------------------------------------------------

TEST(OnlineMergeTorture, ReadersScanWhileWriterAndDaemonRun) {
  constexpr int kReaders = 4;
  constexpr uint64_t kDomain = 1000;
  constexpr int kMinWriterOps = 15'000;
  constexpr int kMaxWriterOps = 120'000;
  constexpr uint64_t kWantMerges = 3;
  constexpr uint64_t kWantOverlapped = 16;

  Schema schema;
  schema.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  // Unbounded capacity: one segment that never seals, so every merge folds
  // the whole delta into the whole main.
  PartitionedTable table(schema, std::numeric_limits<uint64_t>::max());
  ReferenceModel ref({8, 4, 16});
  std::mutex model_mu;  // serializes writer mutations w/ reader captures

  MergeDaemonPolicy policy;
  policy.min_delta_rows = 512;
  policy.delta_fraction = 0.0005;
  policy.poll_interval_us = 200;
  TableMergeOptions merge_options;
  merge_options.num_threads = 2;
  // Stretch each merge so reads demonstrably overlap the merge body.
  merge_options.inter_column_delay_us = 300;
  PartitionedMergeDaemon daemon(&table, policy, merge_options);
  daemon.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> overlapped_reads{0};
  std::atomic<uint64_t> snapshot_checks{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SCOPED_TRACE(::testing::Message() << "reader seed=0xbeef+" << r);
      Rng rng(0xbeef + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        // Capture a snapshot and its expected answers atomically with
        // respect to the writer.
        PartitionedSnapshot snap;
        uint64_t want_rows, want_valid, probe, want_eq = 0, want_sum = 0;
        uint64_t check_row = 0, want_key = 0;
        bool want_row_valid = false, deep = false;
        {
          std::lock_guard<std::mutex> lock(model_mu);
          snap = table.CreateSnapshot();
          want_rows = ref.size();
          want_valid = ref.valid_count();
          probe = rng.Below(kDomain);
          deep = rng.Below(8) == 0;  // O(n) expectations only sometimes
          if (deep) {
            want_eq = ref.CountEquals(0, probe);
            want_sum = ref.Sum(2);
          }
          if (want_rows > 0) {
            check_row = rng.Below(want_rows);
            want_key = ref.Key(check_row, 1);
            want_row_valid = ref.IsValid(check_row);
          }
        }

        // Verify outside the lock, concurrently with writes and merges.
        const bool merging = daemon.merge_in_flight();
        EXPECT_EQ(snap.num_rows(), want_rows);
        EXPECT_EQ(snap.valid_rows(), want_valid);
        if (want_rows > 0) {
          EXPECT_EQ(snap.GetKey(1, check_row), want_key);
          EXPECT_EQ(snap.IsRowValid(check_row), want_row_valid);
        }
        if (deep) {
          EXPECT_EQ(snap.CountEquals(0, probe), want_eq);
          // Repeatable read: the same snapshot, asked twice, agrees with
          // itself even if a merge committed in between.
          const uint64_t sum_a = snap.SumColumn(2);
          const uint64_t sum_b = snap.SumColumn(2);
          EXPECT_EQ(sum_a, want_sum);
          EXPECT_EQ(sum_a, sum_b);
        }
        if (merging || daemon.merge_in_flight()) {
          overlapped_reads.fetch_add(1, std::memory_order_relaxed);
        }
        snapshot_checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Single writer on the main thread.
  SCOPED_TRACE("writer seed=0xfeed");
  Rng rng(0xfeed);
  std::vector<uint64_t> keys(3);
  int op = 0;
  for (; op < kMaxWriterOps; ++op) {
    {
      std::lock_guard<std::mutex> lock(model_mu);
      const uint64_t dice = rng.Below(100);
      if (dice < 60 || ref.size() == 0) {
        for (auto& k : keys) k = rng.Below(kDomain);
        ASSERT_EQ(table.InsertRow(keys), ref.Insert(keys));
      } else if (dice < 85) {
        const uint64_t row = rng.Below(ref.size());
        for (auto& k : keys) k = rng.Below(kDomain);
        ASSERT_EQ(table.UpdateRow(row, keys), ref.Update(row, keys));
      } else {
        const uint64_t row = rng.Below(ref.size());
        ASSERT_TRUE(table.DeleteRow(row).ok());
        ref.Delete(row);
      }
    }
    if (op >= kMinWriterOps && (op & 63) == 0 &&
        daemon.stats().segments_merged >= kWantMerges &&
        overlapped_reads.load() >= kWantOverlapped) {
      break;
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  daemon.Stop();

  const PartitionedMergeDaemonStats stats = daemon.stats();
  EXPECT_GE(stats.segments_merged, kWantMerges)
      << "daemon barely merged in " << op << " writer ops";
  EXPECT_GE(overlapped_reads.load(), 1u)
      << "no snapshot read ever overlapped a merge body";
  EXPECT_GE(snapshot_checks.load(), 100u);

  // Quiescent differential sweep: the table equals the final model.
  ASSERT_EQ(table.num_rows(), ref.size());
  for (uint64_t row = 0; row < ref.size(); ++row) {
    for (size_t col = 0; col < 3; ++col) {
      ASSERT_EQ(table.GetKey(col, row), ref.Key(row, col))
          << "row " << row << " col " << col;
    }
    ASSERT_EQ(table.IsRowValid(row), ref.IsValid(row)) << "row " << row;
  }
  ASSERT_EQ(table.num_segments(), 1u);
  // Readers drained their epochs: no generation may remain retired.
  EpochManager& epochs = table.segment(0).epoch_manager();
  EXPECT_EQ(epochs.pinned_count(), 0u);
  epochs.ReclaimExpired();
  EXPECT_EQ(epochs.retired_count(), 0u);
}

}  // namespace
}  // namespace deltamerge
