// Copyright (c) 2026 The DeltaMerge Authors.
// The snapshot/epoch layer's differential harness: epoch-manager unit
// tests, deterministic snapshot-vs-merge scenarios, and the property-style
// randomized replay — a Table and a single-threaded ReferenceModel execute
// the same seeded insert/update/delete/merge schedule, and every pinned
// Snapshot must agree with the model copy taken at its capture instant, no
// matter how many merges commit before it is checked.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/merge_daemon.h"
#include "core/partitioned_table.h"
#include "core/snapshot.h"
#include "core/table.h"
#include "reference_model.h"
#include "storage/validity.h"
#include "util/random.h"
#include "workload/table_builder.h"

namespace deltamerge {
namespace {

using testref::ExpectSnapshotMatchesModel;
using testref::ReferenceModel;

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

TEST(EpochManager, ReclaimsImmediatelyWithoutPins) {
  EpochManager em;
  auto alive = std::make_shared<int>(42);
  std::weak_ptr<int> watch = alive;
  em.Retire(std::move(alive));
  EXPECT_EQ(em.retired_count(), 1u);
  EXPECT_EQ(em.ReclaimExpired(), 1u);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(em.retired_count(), 0u);
  EXPECT_EQ(em.reclaimed_total(), 1u);
}

TEST(EpochManager, PinnedEpochBlocksReclaimUntilUnpin) {
  EpochManager em;
  const uint32_t slot = em.Pin();
  EXPECT_EQ(em.pinned_count(), 1u);

  auto alive = std::make_shared<int>(7);
  std::weak_ptr<int> watch = alive;
  em.Retire(std::move(alive));  // retired at an epoch >= the pin
  EXPECT_EQ(em.ReclaimExpired(), 0u);
  EXPECT_FALSE(watch.expired());

  em.Unpin(slot);
  EXPECT_EQ(em.ReclaimExpired(), 1u);
  EXPECT_TRUE(watch.expired());
}

TEST(EpochManager, LaterPinDoesNotResurrectOlderGarbage) {
  EpochManager em;
  auto obj = std::make_shared<int>(1);
  std::weak_ptr<int> watch = obj;
  em.Retire(std::move(obj));
  // A pin taken after the retirement observes a newer epoch and must not
  // keep the earlier object alive.
  const uint32_t slot = em.Pin();
  EXPECT_EQ(em.ReclaimExpired(), 1u);
  EXPECT_TRUE(watch.expired());
  em.Unpin(slot);
}

TEST(EpochManager, MinPinnedReadTsIsConservativeUntilPublished) {
  EpochManager em;
  EXPECT_EQ(em.MinPinnedReadTs(), UINT64_MAX);  // nothing pinned
  const uint32_t a = em.Pin();
  EXPECT_EQ(em.MinPinnedReadTs(), 0u);  // pinned but not yet published
  em.PublishPinnedReadTs(a, 17);
  EXPECT_EQ(em.MinPinnedReadTs(), 17u);
  const uint32_t b = em.Pin();
  EXPECT_EQ(em.MinPinnedReadTs(), 0u);  // second pin back to unknown
  em.PublishPinnedReadTs(b, 40);
  EXPECT_EQ(em.MinPinnedReadTs(), 17u);
  em.Unpin(a);
  EXPECT_EQ(em.MinPinnedReadTs(), 40u);
  em.Unpin(b);
  EXPECT_EQ(em.MinPinnedReadTs(), UINT64_MAX);
  // A reused slot must not leak the previous occupant's read timestamp.
  const uint32_t c = em.Pin();
  EXPECT_EQ(em.MinPinnedReadTs(), 0u);
  em.Unpin(c);
}

TEST(EpochManager, CommitClockAdvancesAndSeeds) {
  EpochManager em;
  const uint64_t base = em.current_epoch();
  const uint64_t t1 = em.AdvanceClock();
  EXPECT_EQ(t1, base + 1);  // returns the NEW value
  EXPECT_EQ(em.current_epoch(), t1);
  EXPECT_LT(t1, em.AdvanceClock());  // strictly monotone

  // Recovery seeding: CAS-max, never moves the clock backwards.
  em.EnsureClockAtLeast(1000);
  EXPECT_EQ(em.current_epoch(), 1000u);
  em.EnsureClockAtLeast(5);  // stale seed is a no-op
  EXPECT_EQ(em.current_epoch(), 1000u);
  EXPECT_EQ(em.AdvanceClock(), 1001u);
}

TEST(EpochManager, SlotsAreReusable) {
  EpochManager em;
  for (int round = 0; round < 3; ++round) {
    std::vector<uint32_t> slots;
    for (int i = 0; i < 16; ++i) slots.push_back(em.Pin());
    EXPECT_EQ(em.pinned_count(), 16u);
    for (uint32_t s : slots) em.Unpin(s);
    EXPECT_EQ(em.pinned_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// ValidityVector tombstone log
// ---------------------------------------------------------------------------

TEST(ValidityTombstones, IsValidAtTsReconstructsHistory) {
  ValidityVector v;
  v.Append(2, /*ts=*/5);  // rows 0,1 committed at ts 5
  v.Append(2, /*ts=*/7);  // rows 2,3 committed at ts 7
  v.Invalidate(1, /*ts=*/9);
  v.Invalidate(3, /*ts=*/12);

  // Insert visibility: a row exists only at read_ts >= its insert ts.
  EXPECT_FALSE(v.IsValidAtTs(0, 4));
  EXPECT_TRUE(v.IsValidAtTs(0, 5));
  EXPECT_FALSE(v.IsValidAtTs(2, 6));
  EXPECT_TRUE(v.IsValidAtTs(2, 7));

  // Tombstone visibility: dead exactly from its invalidation ts onward.
  EXPECT_TRUE(v.IsValidAtTs(1, 8));
  EXPECT_FALSE(v.IsValidAtTs(1, 9));
  EXPECT_TRUE(v.IsValidAtTs(3, 11));
  EXPECT_FALSE(v.IsValidAtTs(3, 12));
  EXPECT_TRUE(v.IsValidAtTs(0, 1 << 20));  // never invalidated

  // Double-invalidate is idempotent and not re-logged.
  EXPECT_EQ(v.tombstone_log_size(), 2u);
  v.Invalidate(1, /*ts=*/13);
  EXPECT_EQ(v.tombstone_log_size(), 2u);
  EXPECT_FALSE(v.IsValidAtTs(1, 9));  // original ts survives

  // insert_ts accessor round-trips the stamps.
  EXPECT_EQ(v.insert_ts(0), 5u);
  EXPECT_EQ(v.insert_ts(3), 7u);
}

TEST(ValidityTombstones, TsZeroIsThePreMvccSentinel) {
  ValidityVector v;
  v.Append(3);  // ts 0: visible to every read timestamp, even 0
  EXPECT_TRUE(v.IsValidAtTs(0, 0));
  EXPECT_TRUE(v.IsValidAtTs(2, 0));
  v.Invalidate(1, /*ts=*/4);
  EXPECT_TRUE(v.IsValidAtTs(1, 3));
  EXPECT_FALSE(v.IsValidAtTs(1, 4));
}

TEST(ValidityTombstones, PartialPruneKeepsLiveSuffix) {
  ValidityVector v;
  v.Append(10, /*ts=*/1);
  uint64_t ts = 1;
  for (uint64_t row : {0ull, 2ull, 4ull, 6ull, 8ull}) v.Invalidate(row, ++ts);
  const uint64_t cut = ts;  // 6: every tombstone so far is at or below it
  v.Invalidate(1, ++ts);    // 7
  v.Invalidate(3, ++ts);    // 8

  // Prune at `cut`: the five old entries go, rows 1 and 3 stay consultable.
  v.PruneTombstonesBefore(cut);
  EXPECT_EQ(v.tombstone_log_size(), 2u);
  EXPECT_TRUE(v.IsValidAtTs(1, cut));  // invalidated after the cut
  EXPECT_TRUE(v.IsValidAtTs(3, cut));
  EXPECT_FALSE(v.IsValidAtTs(1, ts));
  // A pruned entry answers "invalid" for every read_ts at/above its ts,
  // exactly as if it were still present.
  EXPECT_FALSE(v.IsValidAtTs(0, cut));
  // Pruning below an already-pruned point is a no-op.
  v.PruneTombstonesBefore(2);
  EXPECT_EQ(v.tombstone_log_size(), 2u);
  // Pruning past the newest entry clears the log entirely.
  v.PruneTombstonesBefore(ts + 100);
  EXPECT_EQ(v.tombstone_log_size(), 0u);
  EXPECT_FALSE(v.IsValidAtTs(3, ts));
}

// ---------------------------------------------------------------------------
// Deterministic snapshot scenarios
// ---------------------------------------------------------------------------

Schema ThreeColumnSchema() {
  Schema s;
  s.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  return s;
}

TEST(Snapshot, IsolatedFromLaterWritesAndDeletes) {
  Table t(ThreeColumnSchema());
  t.InsertRow({10, 20, 30});
  t.InsertRow({11, 21, 31});

  Snapshot snap = t.CreateSnapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.num_rows(), 2u);
  EXPECT_EQ(snap.valid_rows(), 2u);

  // Writes after the capture are invisible.
  t.InsertRow({10, 22, 32});
  ASSERT_TRUE(t.DeleteRow(0).ok());
  t.UpdateRow(1, {99, 99, 99});

  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(snap.num_rows(), 2u);
  EXPECT_EQ(snap.CountEquals(0, 10), 1u);  // the table now counts 2
  EXPECT_EQ(t.CountEquals(0, 10), 2u);
  EXPECT_TRUE(snap.IsRowValid(0));   // deleted only after the capture
  EXPECT_TRUE(snap.IsRowValid(1));   // superseded only after the capture
  EXPECT_FALSE(snap.IsRowValid(2));  // beyond the horizon
  EXPECT_FALSE(t.IsRowValid(0));
  EXPECT_EQ(snap.SumColumn(0), 21u);
  EXPECT_EQ(snap.GetKey(2 /*col c*/, 1), 31u);
}

TEST(Snapshot, StableAcrossAFullMergeCommit) {
  Table t(ThreeColumnSchema());
  for (uint64_t i = 0; i < 500; ++i) t.InsertRow({i % 7, i % 5, i});
  ASSERT_TRUE(t.DeleteRow(3).ok());

  Snapshot snap = t.CreateSnapshot();
  const uint64_t count7 = snap.CountEquals(0, 3);
  const uint64_t sum = snap.SumColumn(2);
  const auto rows_eq = snap.CollectEquals(0, 3, /*only_valid=*/true);

  // Two merges with writes interleaved; the old generations are retired,
  // not destroyed, because `snap` pins their epoch.
  TableMergeOptions options;
  ASSERT_TRUE(t.Merge(options).ok());
  for (uint64_t i = 0; i < 100; ++i) t.InsertRow({3, 1, 1000 + i});
  ASSERT_TRUE(t.Merge(options).ok());
  EXPECT_GT(t.epoch_manager().retired_count(), 0u);

  EXPECT_EQ(snap.num_rows(), 500u);
  EXPECT_EQ(snap.CountEquals(0, 3), count7);
  EXPECT_EQ(snap.SumColumn(2), sum);
  EXPECT_EQ(snap.CollectEquals(0, 3, true), rows_eq);
  EXPECT_FALSE(snap.IsRowValid(3));

  // Releasing the snapshot drains the epoch; the retired generations go.
  snap.Release();
  EXPECT_EQ(t.epoch_manager().retired_count(), 0u);
  EXPECT_GT(t.epoch_manager().reclaimed_total(), 0u);
}

TEST(Snapshot, CapturedMidMergeSeesFrozenPlusActive) {
  Table t(ThreeColumnSchema());
  for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
  TableMergeOptions options;
  ASSERT_TRUE(t.Merge(options).ok());  // 64 rows into main

  for (uint64_t i = 64; i < 96; ++i) t.InsertRow({i, i, i});

  // Drive the column protocol directly to hold the table mid-merge
  // (single-threaded; Table::Merge wraps exactly these steps).
  for (size_t c = 0; c < t.num_columns(); ++c) t.column(c).FreezeDelta();

  Snapshot mid = t.CreateSnapshot();  // sees main(64) + frozen(32)
  EXPECT_EQ(mid.num_rows(), 96u);

  // Writes during the merge body land in the fresh active delta.
  t.InsertRow({1000, 1000, 1000});
  EXPECT_EQ(mid.CountEquals(0, 1000), 0u);
  Snapshot during = t.CreateSnapshot();  // sees main + frozen + 1 active
  EXPECT_EQ(during.num_rows(), 97u);
  EXPECT_EQ(during.CountEquals(0, 1000), 1u);

  for (size_t c = 0; c < t.num_columns(); ++c) {
    t.column(c).PrepareMerge(MergeOptions{}, nullptr);
    t.column(c).CommitMerge(&t.epoch_manager());
  }

  // Both snapshots pinned the pre-commit generation; their reads hold.
  EXPECT_EQ(mid.num_rows(), 96u);
  EXPECT_EQ(mid.SumColumn(0), 95u * 96u / 2);
  EXPECT_EQ(during.CountEquals(0, 1000), 1u);
  EXPECT_EQ(t.GetKey(0, 96), 1000u);

  mid.Release();
  during.Release();
  EXPECT_EQ(t.epoch_manager().retired_count(), 0u);
}

// Regression: the conjunction's only matches sit in the frozen delta, with
// keys past main's dictionary. The deleted raw-column conjunction pruned by
// main plus the active delta alone and counted 0 here.
TEST(Snapshot, ConjunctionCountsFrozenRowsOutsideMainRange) {
  PartitionedTable t(ThreeColumnSchema(),
                     std::numeric_limits<uint64_t>::max());
  for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
  t.MergeAll(TableMergeOptions{});  // keys 0..63 into main
  for (uint64_t i = 0; i < 5; ++i) t.InsertRow({1000 + i, 2000, i});
  Table& seg = t.segment(0);
  for (size_t c = 0; c < seg.num_columns(); ++c) seg.column(c).FreezeDelta();

  const PartitionedSnapshot snap = t.CreateSnapshot();  // main + frozen
  const RangePredicate preds[] = {{0, 1000, 1999}, {1, 2000, 2000}};
  EXPECT_EQ(snap.CountConjunction(preds), 5u);
  const KeyCounts groups = snap.GroupCount(1);
  ASSERT_EQ(groups.size(), 65u);
  EXPECT_EQ(groups.back(), std::make_pair(uint64_t{2000}, uint64_t{5}));

  for (size_t c = 0; c < seg.num_columns(); ++c) {
    seg.column(c).PrepareMerge(MergeOptions{}, nullptr);
    seg.column(c).CommitMerge(&seg.epoch_manager());
  }
  EXPECT_EQ(snap.CountConjunction(preds), 5u);
  EXPECT_EQ(t.CreateSnapshot().CountConjunction(preds), 5u);  // now in main
}

TEST(Snapshot, DaemonMergeCannotDisturbAPinnedSnapshot) {
  // Unbounded capacity: the daemon merges the one segment in place.
  PartitionedTable t(ThreeColumnSchema(),
                     std::numeric_limits<uint64_t>::max());
  ReferenceModel ref({8, 4, 16});
  Rng rng(7);
  std::vector<uint64_t> keys(3);
  for (int i = 0; i < 2000; ++i) {
    for (auto& k : keys) k = rng.Below(1000);
    t.InsertRow(keys);
    ref.Insert(keys);
  }

  PartitionedSnapshot snap = t.CreateSnapshot();
  const ReferenceModel at_capture = ref;

  MergeDaemonPolicy policy;
  policy.min_delta_rows = 100;
  policy.poll_interval_us = 200;
  TableMergeOptions options;
  options.num_threads = 2;
  PartitionedMergeDaemon daemon(&t, policy, options);
  daemon.Start();
  // 2000 delta rows >= min_delta_rows -> the first poll fires.
  daemon.Nudge();
  for (int i = 0; i < 5000 && daemon.stats().segments_merged == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(daemon.stats().segments_merged, 1u) << "daemon never merged";

  // More writes after the merge, then check the snapshot against the model
  // copy taken at capture.
  for (int i = 0; i < 500; ++i) {
    for (auto& k : keys) k = rng.Below(1000);
    t.InsertRow(keys);
    ref.Insert(keys);
  }
  daemon.Stop();

  EXPECT_EQ(snap.num_rows(), at_capture.size());
  for (uint64_t probe : {3ull, 500ull, 999ull}) {
    EXPECT_EQ(snap.CountEquals(0, probe), at_capture.CountEquals(0, probe));
    EXPECT_EQ(snap.CollectEquals(1, probe, false),
              at_capture.CollectEquals(1, probe, false));
  }
  EXPECT_EQ(snap.SumColumn(2), at_capture.Sum(2));
  snap.Release();
  ASSERT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.segment(0).epoch_manager().retired_count(), 0u);
}

// ---------------------------------------------------------------------------
// Merge trigger policy
// ---------------------------------------------------------------------------

// The fill-only policy (no rate lookahead, no cost budget) is the bare §4
// trigger: N_D >= min_delta_rows && N_D > delta_fraction * N_M.
TEST(MergeDaemonPolicyTest, TriggerPolicyThreshold) {
  auto t = BuildTable(10000, 0,
                      std::vector<ColumnBuildSpec>(2, ColumnBuildSpec{}), 3);
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 10;
  policy.rate_lookahead = false;
  EXPECT_EQ(EvaluateMergeTrigger(*t, policy, 1, 0.0), MergeTrigger::kNone);

  std::vector<uint64_t> row{1, 2};
  for (int i = 0; i < 99; ++i) t->InsertRow(row);
  // 99 < 1% of 10000 (+1 short)
  EXPECT_EQ(EvaluateMergeTrigger(*t, policy, 1, 0.0), MergeTrigger::kNone);
  for (int i = 0; i < 2; ++i) t->InsertRow(row);
  // 101 > 100
  EXPECT_EQ(EvaluateMergeTrigger(*t, policy, 1, 0.0),
            MergeTrigger::kDeltaSize);
}

TEST(MergeDaemonPolicyTest, MinDeltaRowsFloor) {
  Table t(Schema::Uniform(1, 8));  // empty main: fraction trigger trivially on
  MergeDaemonPolicy policy;
  policy.min_delta_rows = 50;
  policy.rate_lookahead = false;
  std::vector<uint64_t> row{1};
  for (int i = 0; i < 49; ++i) t.InsertRow(row);
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0), MergeTrigger::kNone);
  t.InsertRow(row);
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0),
            MergeTrigger::kDeltaSize);
}

TEST(MergeDaemonPolicyTest, TriggersInPriorityOrder) {
  Table t(ThreeColumnSchema());
  MergeDaemonPolicy policy;
  policy.min_delta_rows = 1000;
  policy.delta_fraction = 0.01;

  // Below the floor: nothing fires even with a huge rate.
  for (int i = 0; i < 400; ++i) t.InsertRow({1, 2, 3});
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0), MergeTrigger::kNone);

  // A hot arrival rate extrapolates past the floor within one poll.
  policy.poll_interval_us = 1'000'000;  // 1 s lookahead horizon
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 1e6),
            MergeTrigger::kRateLookahead);
  policy.rate_lookahead = false;
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 1e6), MergeTrigger::kNone);

  // Past the floor with an empty main: the §4 size trigger fires.
  for (int i = 0; i < 700; ++i) t.InsertRow({1, 2, 3});
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0),
            MergeTrigger::kDeltaSize);

  // After merging, N_M dominates and the fraction gate holds again...
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  for (int i = 0; i < 1000; ++i) t.InsertRow({1, 2, 3});
  policy.delta_fraction = 10.0;  // 1000 delta vs 10*1100 main: not due
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0), MergeTrigger::kNone);

  // ...unless the cost model projects the merge to exceed the budget.
  policy.max_projected_merge_seconds = 1e-12;
  EXPECT_GT(ProjectedMergeSeconds(t.column_shapes(), policy.profile, 1),
            0.0);
  EXPECT_EQ(EvaluateMergeTrigger(t, policy, 1, 0.0),
            MergeTrigger::kCostBudget);
}

// ---------------------------------------------------------------------------
// Randomized differential replay (property-style)
// ---------------------------------------------------------------------------

struct DiffParam {
  uint64_t seed;
  int ops;
  uint64_t domain;
  double merge_probability;
  double snapshot_probability;
};

void PrintTo(const DiffParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops << " dom=" << p.domain
      << " mp=" << p.merge_probability << " sp=" << p.snapshot_probability;
}

/// A pinned snapshot, the model copy taken at its capture instant, and the
/// main partition's row count then (every column merges together, so one
/// count covers all three). Rows past `main_rows` lived in a delta.
struct PinnedSnapshot {
  Snapshot snap;
  ReferenceModel model;
  uint64_t main_rows = 0;
};

class SnapshotDifferentialTest : public ::testing::TestWithParam<DiffParam> {
 protected:
  static constexpr size_t kColumns = 3;
};

TEST_P(SnapshotDifferentialTest, EverySnapshotAgreesWithItsModelCopy) {
  const DiffParam p = GetParam();
  Rng rng(p.seed);

  Table table(ThreeColumnSchema());
  ReferenceModel ref({8, 4, 16});

  // Pinned snapshots paired with the model state at their capture instant.
  std::vector<PinnedSnapshot> pinned;
  constexpr size_t kMaxPinned = 6;

  std::vector<uint64_t> keys(3);
  uint64_t merges = 0;
  uint64_t mid_merge_captures = 0;
  uint64_t captures = 0;
  uint64_t verifications = 0;
  const auto verify = [&](const PinnedSnapshot& s) {
    ExpectSnapshotMatchesModel(s.snap, s.model, s.main_rows, rng, p.domain);
    ++verifications;
  };

  const auto insert = [&] {
    for (auto& k : keys) k = rng.Below(p.domain);
    ASSERT_EQ(table.InsertRow(keys), ref.Insert(keys));
  };
  // Captures alternate between gated and solo main-partition counts.
  const auto capture = [&] {
    if (pinned.size() >= kMaxPinned) {
      // Verify and release the oldest — it has usually outlived several
      // merges by now, which is exactly the interesting case.
      verify(pinned.front());
      pinned.erase(pinned.begin());
    }
    table.EnableSharedScans(captures++ % 2 == 0);
    pinned.push_back(
        {table.CreateSnapshot(), ref, table.column(0).main_size()});
  };

  for (int op = 0; op < p.ops; ++op) {
    const uint64_t dice = rng.Below(100);
    if (dice < 55 || ref.size() == 0) {
      insert();
    } else if (dice < 75) {
      const uint64_t row = rng.Below(ref.size());
      for (auto& k : keys) k = rng.Below(p.domain);
      ASSERT_EQ(table.UpdateRow(row, keys), ref.Update(row, keys));
    } else if (dice < 85) {
      const uint64_t row = rng.Below(ref.size());
      ASSERT_TRUE(table.DeleteRow(row).ok());
      ref.Delete(row);
    } else {
      // Live read-through: the table itself, not a snapshot.
      const size_t col = static_cast<size_t>(rng.Below(kColumns));
      const uint64_t probe = rng.Below(p.domain);
      ASSERT_EQ(table.CountEquals(col, probe), ref.CountEquals(col, probe));
      const uint64_t hi = probe + rng.Below(p.domain / 4 + 1);
      ASSERT_EQ(table.CountRange(col, probe, hi),
                ref.CountRange(col, probe, hi));
      ASSERT_EQ(table.SumColumn(col), ref.Sum(col));
    }

    if (rng.NextDouble() < p.merge_probability) {
      TableMergeOptions options;
      options.num_threads = 1 + static_cast<int>(merges % 4);
      options.parallelism = (merges % 2 == 0)
                                ? MergeParallelism::kColumnTasks
                                : MergeParallelism::kIntraColumn;
      options.merge.algorithm = (merges % 3 == 0) ? MergeAlgorithm::kNaive
                                                  : MergeAlgorithm::kLinear;
      ASSERT_TRUE(table.Merge(options).ok());
      ++merges;
    }

    if (rng.NextDouble() < p.merge_probability / 2) {
      // Mid-merge capture (the CapturedMidMergeSeesFrozenPlusActive recipe):
      // freeze every column, capture main + frozen, write into the fresh
      // active delta, capture main + frozen + active, then prepare and
      // commit. Both snapshots outlive the commit that supersedes their
      // frozen part.
      for (size_t c = 0; c < table.num_columns(); ++c) {
        table.column(c).FreezeDelta();
      }
      capture();
      insert();
      capture();
      for (size_t c = 0; c < table.num_columns(); ++c) {
        table.column(c).PrepareMerge(MergeOptions{}, nullptr);
        table.column(c).CommitMerge(&table.epoch_manager());
      }
      verify(pinned.back());
      ++mid_merge_captures;
      ++merges;
    }

    if (rng.NextDouble() < p.snapshot_probability) capture();

    // Occasionally spot-check a random pinned snapshot mid-life.
    if (!pinned.empty() && rng.NextDouble() < 0.02) {
      verify(pinned[static_cast<size_t>(rng.Below(pinned.size()))]);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "differential mismatch at op " << op << " (seed " << p.seed
             << ")";
    }
  }

  ASSERT_GE(merges, 1u) << "parameterization never merged";
  ASSERT_GE(mid_merge_captures, 1u) << "parameterization never froze";
  for (const PinnedSnapshot& s : pinned) verify(s);
  EXPECT_GE(verifications, 10u) << "parameterization barely verified";
  pinned.clear();

  // All epochs drained: nothing may remain retired, and the table agrees
  // with the final model state.
  EXPECT_EQ(table.epoch_manager().pinned_count(), 0u);
  EXPECT_EQ(table.epoch_manager().retired_count(), 0u);
  for (uint64_t row = 0; row < ref.size(); ++row) {
    for (size_t col = 0; col < kColumns; ++col) {
      ASSERT_EQ(table.GetKey(col, row), ref.Key(row, col))
          << "row " << row << " col " << col;
    }
    ASSERT_EQ(table.IsRowValid(row), ref.IsValid(row)) << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, SnapshotDifferentialTest,
    ::testing::Values(
        DiffParam{11, 4000, 50, 0.01, 0.05},       // tiny domain, long pins
        DiffParam{12, 3000, 1 << 30, 0.02, 0.05},  // huge domain: unique keys
        DiffParam{13, 2000, 997, 0.08, 0.10},      // merge-heavy
        DiffParam{14, 1000, 7, 0.05, 0.20}));      // near-constant columns

}  // namespace
}  // namespace deltamerge
