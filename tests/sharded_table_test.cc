// Copyright (c) 2026 The DeltaMerge Authors.
// The sharded front door (PR 5): differential and concurrency coverage for
// the rebuilt PartitionedTable — full write API routed by global row id,
// cross-segment PartitionedSnapshot, per-segment merges with permanently
// delta-free sealed segments, parallel fan-out reads — plus the clean-path
// (non-crash) coverage of DurablePartitionedTable: manifest roundtrip,
// corrupt-manifest fallback, stray-segment cleanup, mismatch refusal.
// Crash schedules (fork + SIGKILL, byte truncation) live in
// crash_recovery_test.cc; this suite is fork-free so the TSan job can run
// all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "durable_torture_util.h"
#include "persist/durable_partitioned_table.h"
#include "persist/wal.h"
#include "reference_model.h"
#include "util/file_io.h"
#include "util/random.h"
#include "workload/query_gen.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

using persist::DurablePartitionedTable;
using persist::DurableTableOptions;
using persist::ListManifests;
using persist::ListWalSegments;
using persist::WalSyncPolicy;
using testref::ExpectSnapshotMatchesModel;
using testref::ExpectTableMatchesModel;
using testref::kTortureKeyDomain;
using testref::ModelPrefix;
using testref::ReferenceModel;
using testref::TortureSchema;
using testref::TortureScratchDir;
using testref::TortureWidths;

MergeDaemonPolicy AggressivePolicy() {
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.0;
  policy.min_delta_rows = 1;
  return policy;
}

// --- write-path differential -------------------------------------------------

struct DifferentialParam {
  uint64_t seed;
  uint64_t ops;
  uint64_t capacity;
  uint64_t batch;        // 0 = per-row ops; else coalesce insert runs
  uint64_t merge_every;  // MergeDueSegments cadence (schedule entries)
};

void PrintTo(const DifferentialParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops << " capacity=" << p.capacity
      << " batch=" << p.batch << " merge_every=" << p.merge_every;
}

class ShardedDifferential
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(ShardedDifferential, MatchesReferenceModelAcrossRollovers) {
  const DifferentialParam p = GetParam();
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, p.ops, kTortureKeyDomain, p.seed);
  const std::vector<WriteOp> schedule =
      p.batch > 0 ? CoalesceInsertBatches(ops, p.batch) : ops;

  PartitionedTable table(TortureSchema(), p.capacity);
  const MergeDaemonPolicy policy = AggressivePolicy();
  for (size_t i = 0; i < schedule.size(); ++i) {
    ApplyWriteOp(&table, schedule[i]);
    if (p.merge_every > 0 && (i + 1) % p.merge_every == 0) {
      table.MergeDueSegments(policy, TableMergeOptions{});
    }
  }
  ReferenceModel model = ModelPrefix(ops, p.ops);
  ExpectTableMatchesModel(table, model, p.seed);
  // Segment shape: bounded segments, sealed prefix full (rollover is lazy,
  // so an exactly-full tail has not split yet).
  const uint64_t expect_segments =
      model.size() % p.capacity == 0 && model.size() > 0
          ? model.size() / p.capacity
          : model.size() / p.capacity + 1;
  ASSERT_EQ(table.num_segments(), expect_segments);
  for (size_t s = 0; s + 1 < table.num_segments(); ++s) {
    ASSERT_EQ(table.segment(s).num_rows(), p.capacity) << "segment " << s;
  }

  // The same state through every snapshot read. Rows below the tail's
  // main partition stand in for "main" in the delta-only key probe.
  Rng rng(p.seed ^ 0x5a4dedULL);
  const auto tail_main_end = [&] {
    const size_t last = table.num_segments() - 1;
    return last * p.capacity + table.segment(last).column(0).main_size();
  };
  ExpectSnapshotMatchesModel(table.CreateSnapshot(), model, tail_main_end(),
                             rng, kTortureKeyDomain);

  // A capture with a frozen part, SnapshotDifferentialTest's recipe on the
  // tail: give it delta rows, freeze its columns, capture main + frozen,
  // insert (into the fresh active delta, or past a rollover), capture
  // again, then commit the merge. Both captures outlive the commit.
  std::vector<uint64_t> keys(3);
  const auto insert = [&] {
    for (auto& k : keys) k = rng.Below(kTortureKeyDomain);
    ASSERT_EQ(table.InsertRow(keys), model.Insert(keys));
  };
  for (int i = 0; i < 3; ++i) insert();
  Table& tail = table.segment(table.num_segments() - 1);
  for (size_t c = 0; c < tail.num_columns(); ++c) tail.column(c).FreezeDelta();
  const uint64_t main_end = tail_main_end();
  const PartitionedSnapshot frozen = table.CreateSnapshot();
  const ReferenceModel frozen_model = model;
  insert();
  const PartitionedSnapshot both = table.CreateSnapshot();
  for (size_t c = 0; c < tail.num_columns(); ++c) {
    tail.column(c).PrepareMerge(MergeOptions{}, nullptr);
    tail.column(c).CommitMerge(&tail.epoch_manager());
  }
  ExpectSnapshotMatchesModel(frozen, frozen_model, main_end, rng,
                             kTortureKeyDomain);
  ExpectSnapshotMatchesModel(both, model, main_end, rng, kTortureKeyDomain);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ShardedDifferential,
    ::testing::Values(DifferentialParam{901, 3000, 257, 0, 400},
                      DifferentialParam{902, 3000, 64, 0, 250},
                      DifferentialParam{903, 3000, 257, 32, 400},
                      DifferentialParam{904, 2000, 33, 128, 150},
                      DifferentialParam{905, 1500, 1500, 16, 300},
                      // Unbounded: the monolithic shape never rolls over.
                      DifferentialParam{906, 3000,
                                        std::numeric_limits<uint64_t>::max(),
                                        32, 400}));

// --- routing units -----------------------------------------------------------

TEST(ShardedTable, UpdateRoutesFreshVersionToTailAndInvalidatesOwner) {
  PartitionedTable t(Schema::Uniform(2, 8), 4);
  for (uint64_t i = 0; i < 10; ++i) t.InsertRow({i, i * 10});
  ASSERT_EQ(t.num_segments(), 3u);

  // Row 1 lives in sealed segment 0; the new version must land at the tail.
  const uint64_t new_row = t.UpdateRow(1, {100, 200});
  EXPECT_EQ(new_row, 10u);
  EXPECT_FALSE(t.IsRowValid(1));
  EXPECT_TRUE(t.IsRowValid(new_row));
  EXPECT_EQ(t.GetKey(0, new_row), 100u);
  EXPECT_EQ(t.GetKey(0, 1), 1u);  // history stays addressable
  EXPECT_EQ(t.valid_rows(), 10u);

  // Deleting a sealed-segment row flips validity without adding delta rows
  // to the sealed segment.
  const uint64_t sealed_delta = t.segment(0).delta_rows();
  ASSERT_TRUE(t.DeleteRow(5).ok());
  EXPECT_FALSE(t.IsRowValid(5));
  EXPECT_EQ(t.segment(0).delta_rows(), sealed_delta);
  EXPECT_EQ(t.valid_rows(), 9u);

  // Out-of-range delete refused, like Table.
  EXPECT_FALSE(t.DeleteRow(1000).ok());
}

TEST(ShardedTable, BatchInsertSplitsAtSegmentBoundaries) {
  PartitionedTable t(Schema::Uniform(1, 8), 10);
  std::vector<uint64_t> keys(25);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const uint64_t first = t.InsertRows(keys, keys.size());
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(t.num_rows(), 25u);
  EXPECT_EQ(t.num_segments(), 3u);
  EXPECT_EQ(t.segment(0).num_rows(), 10u);
  EXPECT_EQ(t.segment(1).num_rows(), 10u);
  EXPECT_EQ(t.segment(2).num_rows(), 5u);
  for (uint64_t i = 0; i < 25; ++i) ASSERT_EQ(t.GetKey(0, i), i);
  // A second batch continues from the global frontier.
  EXPECT_EQ(t.InsertRows(std::span<const uint64_t>(keys).first(5), 5), 25u);
  EXPECT_EQ(t.num_rows(), 30u);
}

TEST(ShardedTable, SealedSegmentsBecomePermanentlyDeltaFree) {
  PartitionedTable t(Schema::Uniform(2, 8), 100);
  std::vector<uint64_t> row{1, 2};
  for (int i = 0; i < 450; ++i) t.InsertRow(row);
  ASSERT_EQ(t.num_segments(), 5u);

  const PartitionedMergeReport r =
      t.MergeDueSegments(AggressivePolicy(), TableMergeOptions{});
  EXPECT_EQ(r.segments_merged, 5u);
  EXPECT_EQ(r.final_merges, 4u);
  for (size_t s = 0; s + 1 < t.num_segments(); ++s) {
    EXPECT_TRUE(t.segment_sealed(s));
    EXPECT_TRUE(t.segment_delta_free(s));
  }
  EXPECT_FALSE(t.segment_sealed(4));

  // Updates of sealed rows only dirty the tail; the next pass merges
  // exactly one segment and sealed segments stay delta-free forever.
  for (uint64_t i = 0; i < 40; ++i) t.UpdateRow(i * 7, row);
  for (size_t s = 0; s + 1 < t.num_segments(); ++s) {
    EXPECT_EQ(t.segment(s).delta_rows(), 0u) << "segment " << s;
  }
  const PartitionedMergeReport r2 =
      t.MergeDueSegments(AggressivePolicy(), TableMergeOptions{});
  EXPECT_EQ(r2.segments_merged, 1u);
  EXPECT_EQ(r2.table.rows_merged, 40u);
}

// --- parallel fan-out reads --------------------------------------------------

TEST(ShardedTable, ParallelFanOutMatchesSerial) {
  SCOPED_TRACE("seed=77");
  PartitionedTable t(Schema::Uniform(3, 8), 128);
  Rng rng(77);
  std::vector<uint64_t> row(3);
  for (int i = 0; i < 2000; ++i) {
    for (auto& k : row) k = rng.Below(500);
    t.InsertRow(row);
  }
  t.MergeAll(TableMergeOptions{});

  std::vector<uint64_t> serial_eq, serial_rng, serial_sum;
  for (uint64_t key = 0; key < 40; ++key) {
    serial_eq.push_back(t.CountEquals(1, key));
    serial_rng.push_back(t.CountRange(1, key, key + 25));
  }
  for (size_t c = 0; c < 3; ++c) serial_sum.push_back(t.SumColumn(c));

  TaskQueue pool(3);
  t.AttachReadPool(&pool);
  for (uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(t.CountEquals(1, key), serial_eq[key]);
    EXPECT_EQ(t.CountRange(1, key, key + 25), serial_rng[key]);
  }
  for (size_t c = 0; c < 3; ++c) EXPECT_EQ(t.SumColumn(c), serial_sum[c]);
  t.AttachReadPool(nullptr);
}

TEST(ShardedTableTorture, PooledReadsRaceWriterAndRollovers) {
  // Fan-out reads on the shared pool while a writer rolls segments over:
  // the capture-then-scan path must be free of lock-order and lifetime
  // hazards (TSan covers this test).
  PartitionedTable t(Schema::Uniform(2, 8), 64);
  TaskQueue pool(2);
  t.AttachReadPool(&pool);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t a = t.CountEquals(0, 3);
      const uint64_t b = t.CountRange(0, 0, 6);
      ASSERT_LE(a, b);  // key 3 is inside [0, 6]
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Keep inserting until the reader demonstrably raced the ingest (on a
  // loaded single-core machine the reader thread may not get scheduled
  // before a fixed-size insert loop finishes).
  std::vector<uint64_t> row{0, 0};
  uint64_t inserted = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((inserted < 4000 || reads.load(std::memory_order_relaxed) < 4) &&
         std::chrono::steady_clock::now() < deadline) {
    row[0] = inserted % 7;
    row[1] = inserted;
    t.InsertRow(row);
    ++inserted;
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GE(t.num_segments(), 60u);
  EXPECT_EQ(t.CountEquals(0, 3), (inserted + 3) / 7);
  t.AttachReadPool(nullptr);
}

TEST(ShardedTableTorture, BatchColumnTasksRaceSnapshotReaders) {
  // InsertRows applies a batch as one task per column on a TaskQueue, under
  // the segment's exclusive lock, while snapshot readers capture. Every key
  // lies in [0, kDomain), so a count over the whole domain sees each visible
  // row once: a reader that caught a column mid-batch would miscount. TSan
  // runs this test.
  constexpr uint64_t kDomain = 1000;
  constexpr uint64_t kCapacity = 700;
  PartitionedTable table(TortureSchema(), kCapacity);
  TaskQueue queue(3);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  const auto reader_body = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const PartitionedSnapshot snap = table.CreateSnapshot();
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_EQ(snap.CountRange(c, 0, kDomain - 1), snap.num_rows())
            << "column " << c;
      }
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) readers.emplace_back(reader_body);

  // Batches of up to 400 rows cross segment boundaries; keep going until
  // the readers demonstrably raced the writer.
  Rng rng(77);
  uint64_t rows = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((rows < 20 * kCapacity || checked.load() < 16) &&
         std::chrono::steady_clock::now() < deadline) {
    const uint64_t n = 1 + rng.Below(400);
    std::vector<uint64_t> keys(n * 3);
    for (uint64_t& k : keys) k = rng.Below(kDomain);
    ASSERT_EQ(table.InsertRows(keys, n, &queue), rows);
    rows += n;
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GE(table.num_segments(), 20u);
  EXPECT_GE(checked.load(), 16u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(table.CountRange(c, 0, kDomain - 1), rows);
  }
}

TEST(ShardedTableTorture, BoundaryAppendersNeverOverflowSegments) {
  // Regression for the stale rollover pre-check: RollOverIfFullLocked reads
  // the tail fill BEFORE the tail's commit lock is acquired, so a
  // predecessor appender still holding that lock (entered under an earlier
  // tail_mu_ hold) could fill the last slot and the successor would append
  // row segment_capacity + 1 — a global id colliding with the next
  // segment's base, and a sealed segment recovery refuses. The appenders
  // must re-validate the fill under the commit lock (all three UpdateRow
  // paths included) for this to pass.
  //
  // Shape tuned for the worst case (one core, preemption-driven
  // interleavings): capacity 2 makes every other append a boundary fill,
  // 16 columns stretch the append a predecessor performs under the commit
  // lock — together the unfixed code failed ~87% of single rounds on a
  // 1-vCPU host; two fresh-table rounds push the catch rate past ~98%
  // there, and a multi-core host hits the window essentially always.
  constexpr uint64_t kCapacity = 2;
  constexpr int kThreads = 12;
  constexpr int kOpsPerThread = 1000;
  constexpr int kRounds = 2;
  constexpr uint64_t kBeyondAnySize =
      2ull * kThreads * kOpsPerThread + 1'000'000;
  constexpr size_t kColumns = 16;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "round=" << round);
    PartitionedTable t(Schema::Uniform(kColumns, 8), kCapacity);
    std::vector<std::vector<uint64_t>> ids(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&t, &ids, w, round] {
        Rng rng(0x9e3779b9ull * static_cast<uint64_t>(w + 1) + round);
        std::vector<uint64_t>& mine = ids[w];
        mine.reserve(kOpsPerThread);
        std::vector<uint64_t> row(kColumns, 0);
        for (int i = 0; i < kOpsPerThread; ++i) {
          for (size_t c = 0; c + 1 < kColumns; ++c) row[c] = rng.Below(7);
          row[kColumns - 1] =
              static_cast<uint64_t>(w) << 32 | static_cast<uint64_t>(i);
          const uint64_t dice = rng.Below(4);
          if (dice == 0 || mine.empty()) {
            // Plain tail append.
            mine.push_back(t.InsertRow(row));
          } else if (dice == 1) {
            // Beyond-size target: the liberal degrade-to-insert path.
            mine.push_back(t.UpdateRow(kBeyondAnySize, row));
          } else {
            // Supersede one of our own earlier versions: exercises both
            // the tail-owner and the cross-segment (owner lock + tail
            // lock) routes, depending on where the old version lives.
            const uint64_t target = mine[rng.Below(mine.size())];
            mine.push_back(t.UpdateRow(target, row));
          }
        }
      });
    }
    for (std::thread& th : workers) th.join();

    // Every append reserved a distinct global row id (an overflow hands
    // the successor `base + capacity`, which collides with the next
    // segment's first id).
    std::vector<uint64_t> all;
    all.reserve(static_cast<size_t>(kThreads) * kOpsPerThread);
    for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
        << "duplicate global row id handed to concurrent appenders";

    // Exactly one row per append, no segment past its capacity, and every
    // sealed segment holds exactly the capacity (the recovery invariant).
    const uint64_t total = static_cast<uint64_t>(kThreads) * kOpsPerThread;
    EXPECT_EQ(t.num_rows(), total);
    EXPECT_EQ(all.back(), total - 1);
    const size_t num_segments = t.num_segments();
    for (size_t s = 0; s < num_segments; ++s) {
      const uint64_t rows = t.segment(s).num_rows();
      ASSERT_LE(rows, kCapacity) << "segment " << s << " overflowed";
      if (t.segment_sealed(s)) {
        ASSERT_EQ(rows, kCapacity) << "sealed segment " << s << " short";
      }
    }
  }
}

// --- cross-segment snapshots -------------------------------------------------

TEST(PartitionedSnapshotTest, AnswersAsOfCaptureAcrossLaterWritesAndMerges) {
  SCOPED_TRACE("seeds: schedule=1313 probe=99");
  PartitionedTable t(TortureSchema(), 50);
  ReferenceModel model(TortureWidths());
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, 800, kTortureKeyDomain, 1313);

  std::vector<PartitionedSnapshot> snaps;
  std::vector<ReferenceModel> frozen;
  for (size_t i = 0; i < ops.size(); ++i) {
    ApplyWriteOp(&t, ops[i]);
    switch (ops[i].kind) {
      case WriteOpKind::kInsert:
        model.Insert(ops[i].keys);
        break;
      case WriteOpKind::kUpdate:
        model.Update(ops[i].target_row, ops[i].keys);
        break;
      case WriteOpKind::kDelete:
        model.Delete(ops[i].target_row);
        break;
      case WriteOpKind::kInsertBatch:
      case WriteOpKind::kTxn:
        break;  // not generated here
    }
    if (i % 211 == 0) {
      snaps.push_back(t.CreateSnapshot());
      frozen.push_back(model);  // ground truth at the capture instant
    }
    if (i % 301 == 0) t.MergeAll(TableMergeOptions{});
  }
  t.MergeAll(TableMergeOptions{});

  Rng rng(99);
  for (size_t s = 0; s < snaps.size(); ++s) {
    const PartitionedSnapshot& snap = snaps[s];
    const ReferenceModel& m = frozen[s];
    ASSERT_EQ(snap.num_rows(), m.size());
    ASSERT_EQ(snap.valid_rows(), m.valid_count());
    for (uint64_t rrow = 0; rrow < m.size(); rrow += 17) {
      ASSERT_EQ(snap.IsRowValid(rrow), m.IsValid(rrow));
      ASSERT_EQ(snap.GetKey(0, rrow), m.Key(rrow, 0));
    }
    for (int i = 0; i < 6; ++i) {
      const uint64_t key = rng.Below(kTortureKeyDomain);
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_EQ(snap.CountEquals(c, key), m.CountEquals(c, key));
        ASSERT_EQ(snap.CountRange(c, key, key + 64),
                  m.CountRange(c, key, key + 64));
      }
    }
    for (size_t c = 0; c < 3; ++c) ASSERT_EQ(snap.SumColumn(c), m.Sum(c));
  }
}

TEST(PartitionedSnapshotTorture, ReadersVerifyCaptureInstantWhileWriterRuns) {
  // The acceptance scenario: snapshot readers verify against the model
  // copy taken at their capture instant while a writer keeps inserting,
  // updating, deleting (with rollovers) and the PartitionedMergeDaemon
  // commits per-segment merges underneath. TSan runs this test.
  PartitionedTable table(TortureSchema(), 512);
  std::mutex model_mu;  // writer and capture agree on the logical state
  ReferenceModel model(TortureWidths());

  MergeDaemonPolicy policy = AggressivePolicy();
  policy.poll_interval_us = 200;
  TableMergeOptions merge_options;
  merge_options.inter_column_delay_us = 200;  // stretch merge bodies
  PartitionedMergeDaemon daemon(&table, policy, merge_options);
  daemon.Start();

  SCOPED_TRACE("writer schedule seed=4242");
  constexpr uint64_t kWriterOps = 12000;
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, kWriterOps, kTortureKeyDomain, 4242);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<uint64_t> verified_during_merge{0};

  const auto reader_body = [&](uint64_t seed) {
    SCOPED_TRACE(::testing::Message() << "reader seed=" << seed);
    Rng rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      PartitionedSnapshot snap;
      ReferenceModel expect({});
      {
        std::lock_guard<std::mutex> lock(model_mu);
        snap = table.CreateSnapshot();
        expect = model;
      }
      const bool overlapped = daemon.merge_in_flight();
      ASSERT_EQ(snap.num_rows(), expect.size());
      ASSERT_EQ(snap.valid_rows(), expect.valid_count());
      for (int i = 0; i < 3; ++i) {
        const uint64_t key = rng.Below(kTortureKeyDomain);
        const size_t c = rng.Below(3);
        ASSERT_EQ(snap.CountEquals(c, key), expect.CountEquals(c, key));
        ASSERT_EQ(snap.CountRange(c, key, key + 100),
                  expect.CountRange(c, key, key + 100));
      }
      if (expect.size() > 0) {
        const uint64_t row = rng.Below(expect.size());
        ASSERT_EQ(snap.GetKey(1, row), expect.Key(row, 1));
        ASSERT_EQ(snap.IsRowValid(row), expect.IsValid(row));
      }
      // Every row version falls in one group and in the full domain.
      uint64_t grouped = 0;
      for (const auto& [key, n] : snap.GroupCount(rng.Below(3))) grouped += n;
      ASSERT_EQ(grouped, snap.num_rows());
      const RangePredicate everything[] = {
          {0, 0, ~uint64_t{0}}, {1, 0, ~uint64_t{0}}, {2, 0, ~uint64_t{0}}};
      ASSERT_EQ(snap.CountConjunction(everything), snap.num_rows());
      verified.fetch_add(1, std::memory_order_relaxed);
      if (overlapped && daemon.merge_in_flight()) {
        verified_during_merge.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back(reader_body, 0xabc0 + static_cast<uint64_t>(r));
  }

  for (const WriteOp& op : ops) {
    std::lock_guard<std::mutex> lock(model_mu);
    ApplyWriteOp(&table, op);
    switch (op.kind) {
      case WriteOpKind::kInsert:
        model.Insert(op.keys);
        break;
      case WriteOpKind::kUpdate:
        model.Update(op.target_row, op.keys);
        break;
      case WriteOpKind::kDelete:
        model.Delete(op.target_row);
        break;
      case WriteOpKind::kInsertBatch:
      case WriteOpKind::kTxn:
        break;  // not generated here
    }
  }
  // Keep readers verifying until the run demonstrably overlapped merges.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((daemon.stats().segments_merged < 3 || verified.load() < 16) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  daemon.Stop();

  EXPECT_GT(table.num_segments(), 8u);  // rollovers happened mid-run
  EXPECT_GE(daemon.stats().segments_merged, 3u);
  EXPECT_GE(verified.load(), 16u);
  // Final state still exact.
  std::lock_guard<std::mutex> lock(model_mu);
  ExpectTableMatchesModel(table, model, 4242);
}

// --- PartitionedMergeDaemon --------------------------------------------------

TEST(PartitionedMergeDaemon, DrainsTailAndFinalMergesSealedSegments) {
  PartitionedTable t(Schema::Uniform(2, 8), 200);
  MergeDaemonPolicy policy = AggressivePolicy();
  policy.poll_interval_us = 200;
  PartitionedMergeDaemon daemon(&t, policy, TableMergeOptions{});
  daemon.Start();
  std::vector<uint64_t> row{1, 2};
  for (int i = 0; i < 1000; ++i) t.InsertRow(row);
  daemon.Nudge();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (t.delta_rows() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  daemon.Stop();
  EXPECT_EQ(t.delta_rows(), 0u);
  const PartitionedMergeDaemonStats stats = daemon.stats();
  EXPECT_GE(stats.segments_merged, 1u);
  EXPECT_EQ(stats.rows_merged, 1000u);
  EXPECT_LE(stats.max_segment_wall_cycles, stats.merge_wall_cycles);
  for (size_t s = 0; s + 1 < t.num_segments(); ++s) {
    EXPECT_TRUE(t.segment_delta_free(s)) << "segment " << s;
  }
}

TEST(PartitionedMergeDaemon, TailBelowFloorNeverMerges) {
  PartitionedTable t(Schema::Uniform(1, 8), 1000);
  MergeDaemonPolicy policy = AggressivePolicy();
  policy.min_delta_rows = 100;  // empty main: only the floor gates
  policy.poll_interval_us = 200;
  PartitionedMergeDaemon daemon(&t, policy, TableMergeOptions{});
  for (int i = 0; i < 99; ++i) t.InsertRow({7});
  daemon.Start();
  const uint64_t polls_before = daemon.stats().polls;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon.stats().polls < polls_before + 20 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(daemon.stats().polls, polls_before + 20);
  EXPECT_EQ(daemon.stats().segments_merged, 0u);
  EXPECT_EQ(t.delta_rows(), 99u);

  t.InsertRow({7});  // reaches the floor
  daemon.Nudge();
  while (t.delta_rows() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  daemon.Stop();
  EXPECT_EQ(t.delta_rows(), 0u);
  EXPECT_EQ(t.num_rows(), 100u);
  const PartitionedMergeDaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.segments_merged, 1u);
  EXPECT_EQ(stats.rows_merged, 100u);
}

TEST(PartitionedMergeDaemon, BackgroundMergeKeepsDeltaBounded) {
  auto base = BuildTable(5000, 0,
                         std::vector<ColumnBuildSpec>(2, ColumnBuildSpec{}), 4);
  // Adopt the prebuilt table as the one unbounded segment.
  const PartitionedTable::RecoveredSegment adopted{base.get(), false};
  PartitionedTable t(base->schema(), std::numeric_limits<uint64_t>::max(),
                     nullptr, {&adopted, 1});
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;  // merge every ~50 rows
  policy.min_delta_rows = 16;
  PartitionedMergeDaemon daemon(&t, policy, TableMergeOptions{});
  daemon.Start();

  Rng rng(5);
  std::vector<uint64_t> row(2);
  for (int i = 0; i < 2000; ++i) {
    row[0] = rng.Below(100);
    row[1] = rng.Next();
    t.InsertRow(row);
  }
  // The trigger stays armed after the insert storm (2000 >> 1% of main), so
  // the poller must fire at least once; give it bounded time on loaded or
  // single-core machines before stopping.
  daemon.Nudge();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.stats().segments_merged == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  daemon.Stop();

  const PartitionedMergeDaemonStats stats = daemon.stats();
  EXPECT_GE(stats.segments_merged, 1u);
  // Data conserved: everything inserted is in the table.
  ASSERT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.num_rows(), 7000u);
  const ColumnBase& col = t.segment(0).column(0);
  EXPECT_EQ(col.main_size() + col.delta_size() + col.frozen_size(), 7000u);
  EXPECT_EQ(stats.rows_merged + t.delta_rows(), 2000u);
}

// --- DurablePartitionedTable: clean paths ------------------------------------

TEST(DurableShardedTable, ReopenRestoresExactStateAndKeepsGrowing) {
  SCOPED_TRACE("seeds: initial=555 post-recovery=556");
  const uint64_t kOps = 1500;
  const uint64_t kCapacity = 193;
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, kOps, kTortureKeyDomain, 555);
  const std::vector<WriteOp> schedule = CoalesceInsertBatches(ops, 48);

  TortureScratchDir dir("shard");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;

  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& t = *opened.ValueOrDie();
    EXPECT_FALSE(t.recovery().manifest_loaded);  // fresh directory
    WriteScheduleOptions sched;
    sched.merge_every = 300;
    RunWriteSchedule(&t.table(), schedule, sched);
    // Per-segment checkpoints exist (sealed segments merged).
    EXPECT_GE(t.durable_segment(0).durability().checkpoints_written(), 1u);
  }

  const ReferenceModel model = ModelPrefix(ops, kOps);
  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& t = *reopened.ValueOrDie();
  EXPECT_TRUE(t.recovery().manifest_loaded);
  EXPECT_EQ(t.recovery().segments.size(),
            model.size() % kCapacity == 0 ? model.size() / kCapacity
                                          : model.size() / kCapacity + 1);
  ExpectTableMatchesModel(t.table(), model, 555);
  // A healthy lifecycle never fails a checkpoint write or a cleanup.
  for (size_t i = 0; i < t.num_durable_segments(); ++i) {
    const persist::DurabilityStats stats =
        t.durable_segment(i).durability_stats();
    EXPECT_EQ(stats.checkpoint_failures, 0u) << "segment " << i;
    EXPECT_EQ(stats.cleanup_failures, 0u) << "segment " << i;
  }

  // The recovered table keeps operating: more writes, rollovers, merges.
  const std::vector<WriteOp> more =
      GenerateWriteOps(3, 400, kTortureKeyDomain, 556);
  for (const WriteOp& op : more) {
    // Route targets into the already-populated range so updates/deletes
    // hit recovered rows too.
    ApplyWriteOp(&t.table(), op);
  }
  t.table().MergeAll(TableMergeOptions{});
  EXPECT_EQ(t.table().num_rows(), model.size() + [&] {
    uint64_t inserts = 0;
    for (const WriteOp& op : more) {
      if (op.kind != WriteOpKind::kDelete) ++inserts;
    }
    return inserts;
  }());
}

TEST(DurableShardedTable, CorruptNewestManifestFallsBackAndIsDeleted) {
  TortureScratchDir dir("manifest");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                /*segment_capacity=*/20,
                                                options);
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
  }
  // Plant a garbage manifest with a higher version than the real one.
  auto manifests = ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests.ValueOrDie().size(), 1u);
  const uint64_t real_version = manifests.ValueOrDie().back().first;
  const std::string bogus =
      dir.path() + "/" + persist::ManifestFileName(real_version + 3);
  {
    auto out = FileWriter::Create(bogus);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie()->Write("not a manifest", 14).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }

  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                20, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& t = *reopened.ValueOrDie();
  EXPECT_EQ(t.recovery().invalid_manifests, 1u);
  EXPECT_EQ(t.recovery().manifest_version, real_version);
  EXPECT_EQ(t.table().num_rows(), 50u);
  EXPECT_FALSE(FileExists(bogus));  // dead file cannot shadow later opens
}

TEST(DurableShardedTable, AllManifestsCorruptRefusedLoudly) {
  TortureScratchDir dir("manifestall");
  DurableTableOptions options;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                16, options);
    ASSERT_TRUE(opened.ok());
    opened.ValueOrDie()->table().InsertRow({1, 2, 3});
  }
  auto manifests = ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  for (const auto& [version, name] : manifests.ValueOrDie()) {
    ASSERT_TRUE(TruncateFile(dir.path() + "/" + name, 5).ok());
  }
  auto reopened =
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 16, options);
  EXPECT_FALSE(reopened.ok());
}

TEST(DurableShardedTable, SegmentDataWithoutAnyManifestRefused) {
  // Manifests deleted by hand (or a partial restore): the segment set is
  // unknowable, and a "fresh" open would adopt stale rows under brand-new
  // global row ids. Refuse instead.
  TortureScratchDir dir("nomanifest");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                10, options);
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 30; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
  }
  auto manifests = ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  for (const auto& [version, name] : manifests.ValueOrDie()) {
    ASSERT_TRUE(RemoveFile(dir.path() + "/" + name).ok());
  }
  EXPECT_FALSE(
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 10, options)
          .ok());
}

TEST(DurableShardedTable, StrayUnlistedSegmentDirIsRemoved) {
  TortureScratchDir dir("stray");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t segments_before = 0;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                25, options);
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 60; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
    segments_before = opened.ValueOrDie()->table().num_segments();
  }
  ASSERT_EQ(segments_before, 3u);
  // A crash between segment creation and manifest install leaves an
  // unlisted directory: simulate one, with WAL-looking bytes inside.
  const std::string stray = dir.path() + "/seg-000003";
  ASSERT_TRUE(EnsureDir(stray).ok());
  {
    auto out = FileWriter::Create(stray + "/wal-00000000000000000001.log");
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie()->Write("junk", 4).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }

  auto reopened =
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 25, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->recovery().stray_segments_removed, 1u);
  EXPECT_EQ(reopened.ValueOrDie()->table().num_segments(), 3u);
  EXPECT_EQ(reopened.ValueOrDie()->table().num_rows(), 60u);
  EXPECT_FALSE(FileExists(stray));
}

TEST(DurableShardedTable, CapacityAndSchemaMismatchesRefused) {
  TortureScratchDir dir("mismatch");
  DurableTableOptions options;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                32, options);
    ASSERT_TRUE(opened.ok());
    opened.ValueOrDie()->table().InsertRow({1, 2, 3});
  }
  // Capacity mismatch would silently re-base every global row id.
  EXPECT_FALSE(
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 64, options)
          .ok());
  // Schema name mismatch refused, like DurableTable.
  Schema renamed = TortureSchema();
  renamed.columns[1].name = "zz";
  EXPECT_FALSE(
      DurablePartitionedTable::Open(dir.path(), renamed, 32, options).ok());
  // The matching shape still opens.
  EXPECT_TRUE(
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 32, options)
          .ok());
}

TEST(DurableShardedTable, RolloverSyncsSealedSegmentWalUnderLazyPolicies) {
  // Under sync=none nothing fsyncs on the write path — but the manifest
  // installed at rollover durably claims segment 0 sealed, so the rollover
  // itself must sync the sealed segment's WAL first. Otherwise a crash
  // after the rollover recovers segment 0 short of its capacity and the
  // table becomes permanently unopenable (recovery refuses short sealed
  // segments).
  TortureScratchDir dir("rollsync");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kNone;
  const uint64_t kCapacity = 12;
  auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                              kCapacity, options);
  ASSERT_TRUE(opened.ok());
  auto& t = *opened.ValueOrDie();
  for (uint64_t i = 0; i < kCapacity + 2; ++i) {
    t.table().InsertRow({i, i, i});
  }
  ASSERT_EQ(t.table().num_segments(), 2u);
  // Segment 0's records (LSNs 1..capacity) must be durable the moment the
  // manifest listing it as sealed exists, even though the policy never
  // syncs on its own.
  EXPECT_GE(t.durable_segment(0).wal().durable_lsn(), kCapacity);
  // The unsealed tail is allowed to lag — that is the policy's bounded
  // loss window, and recovery tolerates a short tail.
  EXPECT_LT(t.durable_segment(1).wal().durable_lsn(), 2u);
}

TEST(DurableShardedTable, ShortSealedSegmentRefused) {
  TortureScratchDir dir("shortseal");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                10, options);
    ASSERT_TRUE(opened.ok());
    // No merges: every row of segment 0 lives only in its WAL.
    for (uint64_t i = 0; i < 25; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
  }
  // Losing acknowledged rows from a *sealed* segment is unrecoverable
  // corruption (later segments' row ids depend on them): chop segment 0's
  // WAL in half and expect a loud refusal, not a silent gap.
  auto segments = ListWalSegments(dir.path() + "/seg-000000");
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments.ValueOrDie().empty());
  const std::string wal =
      dir.path() + "/seg-000000/" + segments.ValueOrDie().back().second;
  auto size = FileSize(wal);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(wal, size.ValueOrDie() / 2).ok());

  auto reopened =
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 10, options);
  EXPECT_FALSE(reopened.ok());
}

// --- segment directory name parsing ------------------------------------------

TEST(ParseSegmentDirIndex, ClassifiesNamesAndClampsOverflow) {
  uint64_t index = 123;
  EXPECT_TRUE(persist::ParseSegmentDirIndex("seg-000001", &index));
  EXPECT_EQ(index, 1u);
  EXPECT_TRUE(persist::ParseSegmentDirIndex("seg-0", &index));
  EXPECT_EQ(index, 0u);
  EXPECT_FALSE(persist::ParseSegmentDirIndex("seg-", &index));
  EXPECT_FALSE(persist::ParseSegmentDirIndex("seg-12x", &index));
  EXPECT_FALSE(persist::ParseSegmentDirIndex("segment-1", &index));
  EXPECT_FALSE(
      persist::ParseSegmentDirIndex("manifest-000001.dmpm", &index));
  // 2^64 overflows uint64: the name still classifies as a segment dir
  // (so recovery sweeps it) and the index clamps to the impossible
  // UINT64_MAX — strtoull's ULLONG_MAX saturation used to collide with
  // the old "not a segment" sentinel and made such names invisible.
  EXPECT_TRUE(
      persist::ParseSegmentDirIndex("seg-18446744073709551616", &index));
  EXPECT_EQ(index, UINT64_MAX);
  EXPECT_TRUE(  // exactly UINT64_MAX parses to the same impossible index
      persist::ParseSegmentDirIndex("seg-18446744073709551615", &index));
  EXPECT_EQ(index, UINT64_MAX);
}

TEST(DurableShardedTable, OverflowNamedStraySegmentDirIsSweptNotSkipped) {
  TortureScratchDir dir("strayovf");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                25, options);
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < 30; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
  }
  // A 20-digit index overflows uint64; the sweep must still classify the
  // directory as an unlisted segment and delete it.
  const std::string stray = dir.path() + "/seg-18446744073709551616";
  ASSERT_TRUE(EnsureDir(stray).ok());
  auto reopened =
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 25, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->recovery().stray_segments_removed, 1u);
  EXPECT_EQ(reopened.ValueOrDie()->table().num_rows(), 30u);
  EXPECT_FALSE(FileExists(stray));
}

TEST(DurableShardedTable, OverflowNamedSegmentWithoutManifestRefused) {
  // Segment data without any manifest is refused (the segment set is
  // unknowable) — including when the only evidence is an overflow-named
  // directory the old parser would have ignored.
  TortureScratchDir dir("ovfnomanifest");
  ASSERT_TRUE(EnsureDir(dir.path() + "/seg-18446744073709551616").ok());
  EXPECT_FALSE(
      DurablePartitionedTable::Open(dir.path(), TortureSchema(), 10, {})
          .ok());
}

// --- sealed-segment tombstone compaction --------------------------------------

TEST(DurableShardedTable, SealedSegmentTombstoneCompactionBoundsReplay) {
  TortureScratchDir dir("compact");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  const uint64_t kCapacity = 50;
  const uint64_t kThreshold = 16;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& dpt = *opened.ValueOrDie();
    PartitionedTable& t = dpt.table();
    for (uint64_t i = 0; i < 120; ++i) t.InsertRow({i, i, i});  // 3 segments
    t.MergeDueSegments(AggressivePolicy(), TableMergeOptions{});
    ASSERT_TRUE(t.segment_sealed(0));
    ASSERT_TRUE(t.segment_delta_free(0));

    // Age segment 0 with tombstone-only traffic up to the threshold.
    for (uint64_t i = 0; i < kThreshold; ++i) {
      ASSERT_TRUE(t.DeleteRow(i).ok());
    }
    EXPECT_EQ(dpt.durable_segment(0).durability_stats().uncheckpointed_records,
              kThreshold);

    MergeDaemonPolicy policy = AggressivePolicy();
    policy.compact_uncheckpointed_records = kThreshold;
    const PartitionedMergeReport report =
        t.MergeDueSegments(policy, TableMergeOptions{});
    EXPECT_EQ(report.segments_compacted, 1u);
    EXPECT_EQ(report.failed_compactions, 0u);
    const persist::DurabilityStats stats =
        dpt.durable_segment(0).durability_stats();
    EXPECT_EQ(stats.compaction_checkpoints, 1u);
    EXPECT_EQ(stats.uncheckpointed_records, 0u);
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    EXPECT_EQ(stats.cleanup_failures, 0u);

    // Below the threshold the next pass leaves the segment alone.
    ASSERT_TRUE(t.DeleteRow(kThreshold).ok());
    const PartitionedMergeReport again =
        t.MergeDueSegments(policy, TableMergeOptions{});
    EXPECT_EQ(again.segments_compacted, 0u);
  }
  // Reopen: segment 0 replays at most the single post-compaction delete
  // instead of the whole tombstone history.
  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& dpt = *reopened.ValueOrDie();
  ASSERT_EQ(dpt.recovery().segments.size(), 3u);
  EXPECT_EQ(dpt.recovery().segments[0].wal_records_applied, 1u);
  EXPECT_TRUE(dpt.recovery().segments[0].checkpoint_loaded);
  EXPECT_EQ(dpt.table().num_rows(), 120u);
  EXPECT_EQ(dpt.table().valid_rows(), 120u - kThreshold - 1);
  for (uint64_t i = 0; i <= kThreshold; ++i) {
    EXPECT_FALSE(dpt.table().IsRowValid(i)) << "row " << i;
  }
  EXPECT_TRUE(dpt.table().IsRowValid(kThreshold + 1));

  // The autonomous path: a PartitionedMergeDaemon with the compaction
  // policy performs the same rewrite in the background (segment 1 here).
  MergeDaemonPolicy policy = AggressivePolicy();
  policy.poll_interval_us = 200;
  policy.compact_uncheckpointed_records = kThreshold;
  PartitionedMergeDaemon daemon(&dpt.table(), policy, TableMergeOptions{});
  daemon.Start();
  for (uint64_t i = 0; i < kThreshold; ++i) {
    ASSERT_TRUE(dpt.table().DeleteRow(kCapacity + i).ok());
  }
  daemon.Nudge();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon.stats().segments_compacted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  daemon.Stop();
  EXPECT_GE(daemon.stats().segments_compacted, 1u);
  EXPECT_EQ(daemon.stats().failed_compactions, 0u);
  EXPECT_EQ(dpt.durable_segment(1).durability_stats().uncheckpointed_records,
            0u);
}

}  // namespace
}  // namespace deltamerge
