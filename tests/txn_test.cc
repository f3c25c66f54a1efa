// Copyright (c) 2026 The DeltaMerge Authors.
// Optimistic multi-row transactions (PR 8/9): unit tests for the buffered
// write / readset-validation / single-commit-timestamp protocol of
// PartitionedTable::Transaction — the TableTxn suite on one unbounded
// segment (the monolithic shape), the PartitionedTxn suite across bounded
// segments — the GroupIntoTransactions schedule transform (the
// differential backbone of the crash tortures), kTxnCommit replay on a
// DurablePartitionedTable, and fork-free multi-writer contention tortures
// (TSan runs this suite): with read-then-update transactions racing on the
// same rows, exactly one writer wins each row — first-updater-wins,
// enforced by readset validation under the commit lock. PR 9 adds
// tortures with writers pinned to disjoint and overlapping segment sets
// (the per-segment commit lock protocol under fire), a differential guard
// over the liberal write contract's edges vs the single-row path, and a
// seed-pinned demonstration that the bench's residual aborts are
// legitimate first-updater-wins conflicts.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "core/table.h"
#include "durable_torture_util.h"
#include "persist/durable_partitioned_table.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using persist::DurablePartitionedTable;
using persist::DurableTableOptions;
using persist::WalSyncPolicy;
using testref::ExpectTableMatchesModel;
using testref::kTortureKeyDomain;
using testref::kUnboundedCapacity;
using testref::ModelPrefix;
using testref::ReferenceModel;
using testref::TortureSchema;
using testref::TortureScratchDir;
using testref::TortureWidths;

// --- one unbounded segment (the monolithic shape) --------------------------

TEST(TableTxn, CommitAppliesAllOpsAtomically) {
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});
  t.InsertRow({2, 2, 2});

  auto txn = t.BeginTransaction();
  EXPECT_TRUE(txn.open());
  txn.Insert({10, 10, 10});
  txn.Update(0, {11, 11, 11});
  txn.Delete(1);
  EXPECT_EQ(txn.num_ops(), 3u);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.open());

  // Rows: 0,1 pre-existing; 2 = txn insert; 3 = update's new version.
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_FALSE(t.IsRowValid(0));  // superseded by the update
  EXPECT_FALSE(t.IsRowValid(1));  // deleted
  EXPECT_TRUE(t.IsRowValid(2));
  EXPECT_TRUE(t.IsRowValid(3));
  EXPECT_EQ(t.GetKey(0, 2), 10u);
  EXPECT_EQ(t.GetKey(0, 3), 11u);
  EXPECT_EQ(t.txn_stats().commits, 1u);
  EXPECT_EQ(t.txn_stats().aborts, 0u);
}

TEST(TableTxn, OpsMayTargetRowsTheTransactionCreates) {
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});
  // Row ids are assigned at commit in buffer order, so the transaction can
  // address its own inserts: the insert below lands at row 1, the update
  // of row 1 appends row 2 and supersedes it.
  auto txn = t.BeginTransaction();
  txn.Insert({5, 5, 5});
  txn.Update(1, {6, 6, 6});
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_FALSE(t.IsRowValid(1));
  EXPECT_TRUE(t.IsRowValid(2));
  EXPECT_EQ(t.GetKey(0, 2), 6u);
}

TEST(TableTxn, AbortDiscardsEverything) {
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});
  auto txn = t.BeginTransaction();
  txn.Insert({9, 9, 9});
  txn.Delete(0);
  txn.Abort();
  EXPECT_FALSE(txn.open());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.IsRowValid(0));
  EXPECT_EQ(t.txn_stats().commits, 0u);
  EXPECT_EQ(t.txn_stats().aborts, 0u);  // an explicit abort is not a conflict
}

TEST(TableTxn, ReadsetConflictAbortsWithNothingApplied) {
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});

  auto txn = t.BeginTransaction();
  ASSERT_TRUE(txn.ReadRowValid(0));
  txn.Delete(0);
  txn.Insert({7, 7, 7});

  // A concurrent writer invalidates the observed row before commit.
  ASSERT_TRUE(t.DeleteRow(0).ok());

  const Status st = txn.Commit();
  EXPECT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
  EXPECT_EQ(t.num_rows(), 1u);  // the buffered insert was NOT applied
  EXPECT_EQ(t.txn_stats().commits, 0u);
  EXPECT_EQ(t.txn_stats().aborts, 1u);

  // A transaction that observes the post-delete state commits fine.
  auto retry = t.BeginTransaction();
  EXPECT_FALSE(retry.ReadRowValid(0));
  retry.Insert({7, 7, 7});
  EXPECT_TRUE(retry.Commit().ok());
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTxn, EmptyReadsetCommitCannotAbort) {
  // Replay re-commits logged transactions with an empty readset; the
  // deterministic schedules rely on the same property.
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});
  ASSERT_TRUE(t.DeleteRow(0).ok());
  auto txn = t.BeginTransaction();
  txn.Update(0, {2, 2, 2});  // liberal: dead target degrades to insert
  txn.Delete(0);             // liberal: deleting a dead row is a no-op
  txn.Delete(99);            // liberal: out-of-range delete is a no-op
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_TRUE(t.IsRowValid(1));
  EXPECT_EQ(t.GetKey(0, 1), 2u);
}

TEST(TableTxn, OneCommitTimestampMakesTheTransactionAtomicToSnapshots) {
  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  t.InsertRow({1, 1, 1});

  // Snapshot pinned between two transactions: it must see all of the
  // first and nothing of the second — the second's tombstone and insert
  // carry a commit timestamp past the snapshot's read timestamp.
  auto txn1 = t.BeginTransaction();
  txn1.Insert({2, 2, 2});
  ASSERT_TRUE(txn1.Commit().ok());

  PartitionedSnapshot snap = t.CreateSnapshot();

  auto txn2 = t.BeginTransaction();
  txn2.Delete(1);
  txn2.Insert({3, 3, 3});
  ASSERT_TRUE(txn2.Commit().ok());

  EXPECT_EQ(snap.num_rows(), 2u);
  EXPECT_TRUE(snap.IsRowValid(1));  // txn2's tombstone is in its future
  EXPECT_EQ(snap.valid_rows(), 2u);
  EXPECT_FALSE(t.IsRowValid(1));
  EXPECT_EQ(t.num_rows(), 3u);
}

// --- bounded segments: rollovers and cross-segment groups -------------------

TEST(PartitionedTxn, SingleSegmentCommitIsAtomic) {
  PartitionedTable t(TortureSchema(), /*segment_capacity=*/100);
  t.InsertRow({1, 1, 1});
  auto txn = t.BeginTransaction();
  txn.Insert({4, 4, 4});
  txn.Update(0, {5, 5, 5});
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_FALSE(t.IsRowValid(0));
  EXPECT_EQ(t.GetKey(0, 1), 4u);
  EXPECT_EQ(t.GetKey(0, 2), 5u);
  EXPECT_EQ(t.txn_stats().commits, 1u);
}

TEST(PartitionedTxn, CrossSegmentUpdateRoutesTailInsertPlusOwnerTombstone) {
  PartitionedTable t(TortureSchema(), /*segment_capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) t.InsertRow({i, i, i});
  ASSERT_EQ(t.num_segments(), 2u);

  auto txn = t.BeginTransaction();
  ASSERT_TRUE(txn.ReadRowValid(1));  // row 1 lives in sealed segment 0
  txn.Update(1, {100, 100, 100});
  txn.Delete(2);  // also segment 0
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_FALSE(t.IsRowValid(1));
  EXPECT_FALSE(t.IsRowValid(2));
  EXPECT_TRUE(t.IsRowValid(6));  // the new version, appended to the tail
  EXPECT_EQ(t.GetKey(0, 6), 100u);
}

TEST(PartitionedTxn, MidCommitRolloverSplitsTheTailGroup) {
  PartitionedTable t(TortureSchema(), /*segment_capacity=*/4);
  for (uint64_t i = 0; i < 3; ++i) t.InsertRow({i, i, i});
  ASSERT_EQ(t.num_segments(), 1u);

  // Three inserts: one fits the current tail, the rollover happens inside
  // the commit, and the rest land in the fresh segment — still ONE
  // transaction commit from the caller's point of view.
  auto txn = t.BeginTransaction();
  txn.Insert({10, 10, 10});
  txn.Insert({11, 11, 11});
  txn.Insert({12, 12, 12});
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(t.num_segments(), 2u);
  EXPECT_EQ(t.num_rows(), 6u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t.GetKey(0, 3 + i), 10 + i) << "row " << 3 + i;
  }
  EXPECT_EQ(t.txn_stats().commits, 1u);
}

TEST(PartitionedTxn, ReadsetConflictAbortsAcrossSegments) {
  PartitionedTable t(TortureSchema(), /*segment_capacity=*/4);
  for (uint64_t i = 0; i < 6; ++i) t.InsertRow({i, i, i});

  auto txn = t.BeginTransaction();
  ASSERT_TRUE(txn.ReadRowValid(1));  // sealed segment 0
  txn.Update(1, {100, 100, 100});    // would insert into the tail (seg 1)
  txn.Insert({101, 101, 101});

  ASSERT_TRUE(t.DeleteRow(1).ok());  // invalidate the observation

  EXPECT_EQ(txn.Commit().code(), StatusCode::kAborted);
  EXPECT_EQ(t.num_rows(), 6u);  // nothing applied in ANY segment
  EXPECT_EQ(t.txn_stats().commits, 0u);
  EXPECT_EQ(t.txn_stats().aborts, 1u);
}

// --- GroupIntoTransactions: the differential transform ----------------------

TEST(TxnSchedule, GroupingPreservesTheLogicalOpStream) {
  // The property every txn crash torture stands on: applying the grouped
  // schedule yields a table identical to the per-row original.
  const uint64_t kOps = 600;
  for (const uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const std::vector<WriteOp> ops =
        GenerateWriteOps(3, kOps, kTortureKeyDomain, seed);
    const std::vector<WriteOp> grouped =
        GroupIntoTransactions(ops, /*max_txn_ops=*/6, seed);

    uint64_t txns = 0, logical = 0;
    for (const WriteOp& op : grouped) {
      if (op.kind == WriteOpKind::kTxn) {
        ++txns;
        EXPECT_GE(op.txn_ops.size(), 2u);  // singletons stay plain ops
        EXPECT_LE(op.txn_ops.size(), 6u);
      }
      logical += WriteOpLogicalOps(op);
    }
    EXPECT_GT(txns, 0u);
    EXPECT_EQ(logical, kOps);

    PartitionedTable table(TortureSchema(), kUnboundedCapacity);
    RunWriteSchedule(&table, grouped, WriteScheduleOptions{});
    ExpectTableMatchesModel(table, ModelPrefix(ops, kOps), seed);

    PartitionedTable sharded(TortureSchema(), /*segment_capacity=*/96);
    RunWriteSchedule(&sharded, grouped, WriteScheduleOptions{});
    ExpectTableMatchesModel(sharded, ModelPrefix(ops, kOps), seed);
  }
}

// --- kTxnCommit replay ------------------------------------------------------

TEST(DurableTxn, CommittedTransactionsReplayAtomically) {
  TortureScratchDir dir("txnreplay");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  ReferenceModel model(TortureWidths());
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kUnboundedCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    PartitionedTable& t = opened.ValueOrDie()->table();
    const std::vector<uint64_t> r1{1, 1, 1}, r2{2, 2, 2}, r3{3, 3, 3},
        r4{4, 4, 4};
    t.InsertRow({1, 1, 1});
    model.Insert(r1);

    auto txn = t.BeginTransaction();
    txn.Insert({2, 2, 2});
    txn.Update(0, {3, 3, 3});
    txn.Delete(1);
    ASSERT_TRUE(txn.Commit().ok());
    model.Insert(r2);
    model.Update(0, r3);
    model.Delete(1);

    // An aborted transaction logs nothing.
    auto doomed = t.BeginTransaction();
    ASSERT_TRUE(doomed.ReadRowValid(2));
    doomed.Insert({9, 9, 9});
    ASSERT_TRUE(t.DeleteRow(2).ok());
    model.Delete(2);
    EXPECT_EQ(doomed.Commit().code(), StatusCode::kAborted);

    // One surviving row (row 3) for the post-recovery snapshot check.
    t.InsertRow({4, 4, 4});
    model.Insert(r4);
  }
  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kUnboundedCapacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  // Records: insert + txn-commit + delete + insert; the abort left no trace.
  ASSERT_EQ(dt.recovery().segments.size(), 1u);
  EXPECT_EQ(dt.recovery().segments[0].recovered_lsn, 4u);
  ExpectTableMatchesModel(dt.table(), model, /*seed=*/1);

  // The replayed timestamps keep working: a snapshot pinned now still
  // shields against deletes committed after it.
  PartitionedTable& t = reopened.ValueOrDie()->table();
  PartitionedSnapshot snap = t.CreateSnapshot();
  auto txn = t.BeginTransaction();
  txn.Delete(3);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(snap.IsRowValid(3));
  EXPECT_FALSE(t.IsRowValid(3));
}

// --- multi-writer contention (TSan runs this) -------------------------------

TEST(TxnConcurrency, FirstUpdaterWinsExactlyOncePerRow) {
  // kThreads writers race read-then-claim transactions over the same rows:
  // observe a row valid, then atomically delete it and insert a marker
  // row. Readset validation under the commit lock must hand each row to
  // exactly one winner — the loser's commit aborts with nothing applied.
  constexpr uint64_t kRows = 256;
  constexpr int kThreads = 4;
  constexpr uint64_t kMarkerBase = 1u << 20;

  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  for (uint64_t i = 0; i < kRows; ++i) t.InsertRow({i, i, i});

  std::atomic<uint64_t> claims{0};
  std::atomic<uint64_t> conflicts{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      // Stagger starting offsets so threads collide from both directions.
      for (uint64_t k = 0; k < kRows; ++k) {
        const uint64_t row = (k + static_cast<uint64_t>(w) * 64) % kRows;
        auto txn = t.BeginTransaction();
        if (!txn.ReadRowValid(row)) {
          txn.Abort();  // someone already claimed it
          continue;
        }
        txn.Delete(row);
        txn.Insert({kMarkerBase + row, static_cast<uint64_t>(w), 0});
        const Status st = txn.Commit();
        if (st.ok()) {
          claims.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
          conflicts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(claims.load(), kRows);
  for (uint64_t row = 0; row < kRows; ++row) {
    ASSERT_FALSE(t.IsRowValid(row)) << "row " << row << " never claimed";
    ASSERT_EQ(t.CountEquals(0, kMarkerBase + row), 1u)
        << "row " << row << " claimed more than once";
  }
  const Table::TxnStats stats = t.txn_stats();
  EXPECT_EQ(stats.commits, kRows);
  EXPECT_EQ(stats.aborts, conflicts.load());
  EXPECT_EQ(t.num_rows(), 2 * kRows);
}

TEST(TxnConcurrency, PartitionedFirstUpdaterWinsAcrossRollovers) {
  // Same contention protocol on the sharded table, with a capacity small
  // enough that marker inserts keep rolling the tail over mid-run — claim
  // transactions are cross-segment (owner tombstone + tail insert) and
  // commits interleave with rollovers under the same write lock.
  constexpr uint64_t kRows = 192;
  constexpr int kThreads = 4;
  constexpr uint64_t kMarkerBase = 1u << 20;

  PartitionedTable t(TortureSchema(), /*segment_capacity=*/64);
  for (uint64_t i = 0; i < kRows; ++i) t.InsertRow({i, i, i});

  std::atomic<uint64_t> claims{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k = 0; k < kRows; ++k) {
        const uint64_t row = (k + static_cast<uint64_t>(w) * 48) % kRows;
        auto txn = t.BeginTransaction();
        if (!txn.ReadRowValid(row)) {
          txn.Abort();
          continue;
        }
        txn.Delete(row);
        txn.Insert({kMarkerBase + row, static_cast<uint64_t>(w), 0});
        const Status st = txn.Commit();
        if (st.ok()) {
          claims.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(claims.load(), kRows);
  EXPECT_GT(t.num_segments(), kRows / 64);  // markers rolled the tail over
  for (uint64_t row = 0; row < kRows; ++row) {
    ASSERT_FALSE(t.IsRowValid(row)) << "row " << row;
    ASSERT_EQ(t.CountEquals(0, kMarkerBase + row), 1u) << "row " << row;
  }
  EXPECT_EQ(t.txn_stats().commits, kRows);
  EXPECT_EQ(t.num_rows(), 2 * kRows);
}

// --- PR 9: per-segment parallel commits -------------------------------------

TEST(TxnConcurrency, DisjointSegmentWritersNeverConflict) {
  // One pre-sealed segment per writer; every transaction claims (reads
  // valid, then deletes) two rows of its own segment. These are
  // sealed-only single-segment commits — each validates and applies
  // entirely under its segment's commit lock, so disjoint writers commit
  // genuinely in parallel and NOTHING may abort.
  constexpr uint64_t kCapacity = 64;
  constexpr int kThreads = 4;

  PartitionedTable t(TortureSchema(), kCapacity);
  for (uint64_t i = 0; i < kCapacity * kThreads; ++i) t.InsertRow({i, i, i});
  ASSERT_EQ(t.num_segments(), static_cast<size_t>(kThreads));

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      const uint64_t base = static_cast<uint64_t>(w) * kCapacity;
      for (uint64_t i = 0; i < kCapacity / 2; ++i) {
        auto txn = t.BeginTransaction();
        const uint64_t r0 = base + 2 * i, r1 = base + 2 * i + 1;
        ASSERT_TRUE(txn.ReadRowValid(r0));
        ASSERT_TRUE(txn.ReadRowValid(r1));
        txn.Delete(r0);
        txn.Delete(r1);
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  const Table::TxnStats stats = t.txn_stats();
  EXPECT_EQ(stats.commits, kCapacity / 2 * kThreads);
  EXPECT_EQ(stats.aborts, 0u);
  for (uint64_t r = 0; r < kCapacity * kThreads; ++r) {
    ASSERT_FALSE(t.IsRowValid(r)) << "row " << r;
  }
}

TEST(TxnConcurrency, DisjointOwnersSharedTailCommitInParallel) {
  // Writers claim from their own segment but every transaction also
  // appends a marker — a two-segment commit set {owner, tail} whose only
  // shared resource is the tail's commit lock. Readsets stay disjoint, so
  // still nothing may abort, and marker inserts keep rolling the tail
  // over mid-run (the straddling path runs under contention).
  constexpr uint64_t kCapacity = 32;
  constexpr int kThreads = 4;
  constexpr uint64_t kMarkerBase = 1u << 20;

  PartitionedTable t(TortureSchema(), kCapacity);
  for (uint64_t i = 0; i < kCapacity * kThreads; ++i) t.InsertRow({i, i, i});

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      const uint64_t base = static_cast<uint64_t>(w) * kCapacity;
      for (uint64_t i = 0; i < kCapacity; ++i) {
        auto txn = t.BeginTransaction();
        const uint64_t row = base + i;
        ASSERT_TRUE(txn.ReadRowValid(row));
        txn.Delete(row);
        txn.Insert({kMarkerBase + row, static_cast<uint64_t>(w), 0});
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  const Table::TxnStats stats = t.txn_stats();
  EXPECT_EQ(stats.commits, kCapacity * static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(t.num_rows(), 2 * kCapacity * static_cast<uint64_t>(kThreads));
  for (uint64_t r = 0; r < kCapacity * kThreads; ++r) {
    ASSERT_FALSE(t.IsRowValid(r)) << "row " << r;
    ASSERT_EQ(t.CountEquals(0, kMarkerBase + r), 1u) << "row " << r;
  }
}

TEST(TxnConcurrency, OverlappingWritersOnOneSealedSegment) {
  // The overlap control: every writer races claim transactions over the
  // SAME sealed segment. All commits serialize on that segment's commit
  // lock, collisions abort by first-updater-wins, and each row is claimed
  // exactly once — the single-table contention guarantees survive the
  // per-segment decomposition.
  constexpr uint64_t kCapacity = 128;
  constexpr int kThreads = 4;

  PartitionedTable t(TortureSchema(), kCapacity);
  for (uint64_t i = 0; i < kCapacity; ++i) t.InsertRow({i, i, i});

  std::atomic<uint64_t> claims{0};
  std::atomic<uint64_t> conflicts{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t k = 0; k < kCapacity; ++k) {
        const uint64_t row = (k + static_cast<uint64_t>(w) * 32) % kCapacity;
        auto txn = t.BeginTransaction();
        if (!txn.ReadRowValid(row)) {
          txn.Abort();
          continue;
        }
        txn.Delete(row);
        const Status st = txn.Commit();
        if (st.ok()) {
          claims.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
          conflicts.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(claims.load(), kCapacity);
  for (uint64_t r = 0; r < kCapacity; ++r) {
    ASSERT_FALSE(t.IsRowValid(r)) << "row " << r << " never claimed";
  }
  const Table::TxnStats stats = t.txn_stats();
  EXPECT_EQ(stats.commits, kCapacity);
  EXPECT_EQ(stats.aborts, conflicts.load());
}

TEST(TxnConcurrency, BenchResidualAbortIsAFirstUpdaterWinsConflict) {
  // Seed-pinned regression for the stray abort BENCH_pr8.json records at
  // 4 writers (abort_rate 0.002): with the bench's exact writer seeds and
  // hot-window geometry, two writers' probe sets deterministically
  // intersect. Interleaving those two transactions single-threadedly
  // shows the loser's abort is demanded by first-updater-wins — the
  // winner superseded a row the loser observed valid — not a readset
  // race: nothing of the aborted transaction is applied.
  constexpr uint64_t kWindow = 64;       // bench DM_HOT default
  constexpr uint64_t kReadsPerTxn = 8;   // bench probe count
  constexpr uint64_t kPreload = 512;

  PartitionedTable t(TortureSchema(), kUnboundedCapacity);
  for (uint64_t i = 0; i < kPreload; ++i) t.InsertRow({i, i, i});

  // The bench's per-writer seeds (writer 0 and writer 2 of the 4-writer
  // configuration). Derive each writer's first probe set over the same
  // hot window and pin the first common row.
  Rng rng_a(0xc0117e5d + 0 * 7919);
  Rng rng_c(0xc0117e5d + 2 * 7919);
  std::vector<uint64_t> probes_a, probes_c;
  for (uint64_t j = 0; j < kReadsPerTxn; ++j) {
    probes_a.push_back(kPreload - kWindow + rng_a.Below(kWindow));
  }
  for (uint64_t j = 0; j < kReadsPerTxn; ++j) {
    probes_c.push_back(kPreload - kWindow + rng_c.Below(kWindow));
  }
  uint64_t shared_row = kPreload;
  for (const uint64_t a : probes_a) {
    for (const uint64_t c : probes_c) {
      if (a == c) shared_row = a;
    }
  }
  // 8 probes each over 64 rows collide for these seeds; if the bench's
  // geometry changes this assertion forces the regression to be re-pinned.
  ASSERT_LT(shared_row, kPreload) << "probe sets no longer intersect";

  // Writer A observes the shared row valid...
  auto txn_a = t.BeginTransaction();
  ASSERT_TRUE(txn_a.ReadRowValid(shared_row));
  txn_a.Update(shared_row, {kPreload + 1, 0, 0});

  // ...writer C updates it first and wins...
  auto txn_c = t.BeginTransaction();
  ASSERT_TRUE(txn_c.ReadRowValid(shared_row));
  txn_c.Update(shared_row, {kPreload + 2, 0, 0});
  ASSERT_TRUE(txn_c.Commit().ok());

  // ...so A's commit MUST abort, with nothing applied.
  const uint64_t rows_before = t.num_rows();
  const Status st = txn_a.Commit();
  ASSERT_EQ(st.code(), StatusCode::kAborted) << st.ToString();
  EXPECT_EQ(t.num_rows(), rows_before);
  EXPECT_EQ(t.CountEquals(0, kPreload + 1), 0u);  // A's payload nowhere
  EXPECT_EQ(t.CountEquals(0, kPreload + 2), 1u);  // C's stands
  EXPECT_EQ(t.txn_stats().aborts, 1u);
}

// --- PR 9: liberal write contract, differential vs the single-row path ------

TEST(PartitionedTxn, LiberalContractMatchesSingleRowPathOpForOp) {
  // The liberal out-of-range contract (beyond-tail update degrades to
  // insert, dead/out-of-range delete no-ops) exists so WAL replay with an
  // empty readset is byte-identical. This guard drives the decomposed
  // transaction path and the single-row path through the same op streams
  // — boundary targets, beyond-tail targets, and rows the transaction
  // itself creates — and demands identical physical state.
  constexpr uint64_t kCap = 4;
  constexpr uint64_t kPreload = 6;  // segment 0 sealed, 2 rows in the tail
  struct Op {
    char kind;  // 'i' insert, 'u' update, 'd' delete
    uint64_t target;
    uint64_t key;
  };
  const std::vector<std::vector<Op>> cases = {
      // Beyond-tail: update degrades to insert, delete no-ops.
      {{'u', 100, 7}, {'d', 200, 0}},
      // Exact segment boundary: last row of segment 0, first of segment 1,
      // then a boundary delete.
      {{'u', kCap - 1, 8}, {'u', kCap, 9}, {'d', kCap - 1, 0}},
      // Same-txn-created rows: the insert lands at row 6; the update then
      // targets it in the simulated tail, and the delete targets one past
      // the simulated end (a no-op).
      {{'i', 0, 10}, {'u', kPreload, 11}, {'d', kPreload + 1, 0}},
      // Straddling rollover revisiting the new segment: three inserts fill
      // the tail and roll over (rows 6,7 seal segment 1; row 8 opens
      // segment 2), a segment-1 delete interleaves AFTER the rollover, and
      // the final update targets the row created beyond it — the op buffer
      // visits the materialized segment, leaves, and comes back.
      {{'i', 0, 12},
       {'i', 0, 13},
       {'i', 0, 14},
       {'d', kCap, 0},
       {'u', kPreload + 2, 15}},
  };

  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "case " << c);
    PartitionedTable via_txn(TortureSchema(), kCap);
    PartitionedTable via_rows(TortureSchema(), kCap);
    for (uint64_t i = 0; i < kPreload; ++i) {
      via_txn.InsertRow({i, i, i});
      via_rows.InsertRow({i, i, i});
    }

    auto txn = via_txn.BeginTransaction();
    for (const Op& op : cases[c]) {
      switch (op.kind) {
        case 'i':
          txn.Insert({op.key, op.key, op.key});
          break;
        case 'u':
          txn.Update(op.target, {op.key, op.key, op.key});
          break;
        case 'd':
          txn.Delete(op.target);
          break;
      }
    }
    ASSERT_TRUE(txn.Commit().ok());

    for (const Op& op : cases[c]) {
      switch (op.kind) {
        case 'i':
          via_rows.InsertRow({op.key, op.key, op.key});
          break;
        case 'u':
          via_rows.UpdateRow(op.target, {op.key, op.key, op.key});
          break;
        case 'd':
          // The single-row path may report out-of-range where the txn
          // contract silently no-ops; the STATE must still match.
          (void)via_rows.DeleteRow(op.target);
          break;
      }
    }

    ASSERT_EQ(via_txn.num_rows(), via_rows.num_rows());
    ASSERT_EQ(via_txn.num_segments(), via_rows.num_segments());
    for (uint64_t r = 0; r < via_txn.num_rows(); ++r) {
      ASSERT_EQ(via_txn.IsRowValid(r), via_rows.IsRowValid(r)) << "row " << r;
      for (size_t col = 0; col < 3; ++col) {
        ASSERT_EQ(via_txn.GetKey(col, r), via_rows.GetKey(col, r))
            << "row " << r << " col " << col;
      }
    }
  }
}

}  // namespace
}  // namespace deltamerge
