// Copyright (c) 2026 The DeltaMerge Authors.
// Crash-recovery torture: the acceptance test of the durability subsystem.
//
// Three crash simulators, all checked against the shared deterministic
// write schedule (workload/query_gen.h's GenerateWriteOps — the same
// generator the reference-model torture uses), and all run in several
// record framings: per-row logging, insert runs coalesced into
// kInsertBatch records (the PR 4 differential), and runs grouped into
// multi-row transactions whose kTxnCommit records must recover whole or
// vanish whole (the PR 8 differential — a crash may only land on a
// transaction-atomic prefix). Every simulator writes through a
// DurablePartitionedTable: the CrashRecovery* suites run the monolithic
// shape (one segment of unbounded capacity), the PartitionedCrash* suites
// bounded capacities whose schedules cross many rollovers, and both run
// the same test bodies.
//
//   * WAL truncation at a random byte: run a schedule (checkpoints
//     included), close, chop the tail segment's newest WAL file
//     mid-frame, reopen. The recovered table must equal the reference
//     state the surviving records cover — a valid per-segment prefix,
//     nothing invented, never anything below the cut segment's newest
//     checkpoint, and never a partially applied batch.
//
//   * every-byte truncation: a batch- or transaction-heavy WAL cut at
//     every possible byte length; a torn kInsertBatch or kTxnCommit record
//     must vanish atomically — recovery lands between records, never
//     inside one.
//
//   * fork + SIGKILL: a child process writes with sync=every-commit and
//     reports each acknowledged logical op through a pipe; the parent
//     kills it at a random moment (possibly mid-fsync, mid-checkpoint,
//     mid-rename, or mid-rollover), reopens the directory, and verifies
//     every reported-acknowledged op recovered and the result is an exact
//     prefix of the global single-row operation stream. Batched params
//     make the acknowledged-batch-survives invariant face real crashes.
//
// Per-row logging keeps "recovered LSN == recovered op count"; batch and
// transaction records break that identity, so the PartitionedPlan of
// tests/durable_torture_util.h maps every segment's recovered LSN back to
// the exact reference state it covers.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/table.h"
#include "durable_torture_util.h"
#include "persist/durable_partitioned_table.h"
#include "persist/durable_table.h"
#include "persist/wal.h"
#include "util/file_io.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using persist::DurablePartitionedTable;
using persist::DurableTable;
using persist::DurableTableOptions;
using persist::ListWalSegments;
using persist::WalSyncPolicy;
using testref::ExpectTableMatchesModel;
using testref::kTortureKeyDomain;
using testref::kUnboundedCapacity;
using testref::PartitionedPlan;
using testref::PartitionedRecoveredModel;
using testref::PlanPartitionedSchedule;
using testref::ReferenceModel;
using testref::TortureSchema;
using testref::TortureScratchDir;

/// The shared schedule pipeline: coalesce insert runs into batch records,
/// then group seeded runs into multi-row transactions. Both transforms
/// preserve the logical op stream, so every framing decomposes into the
/// same single-row micro stream the plan checks recovery against.
std::vector<WriteOp> FrameSchedule(const std::vector<WriteOp>& ops,
                                   uint64_t batch, uint64_t txn,
                                   uint64_t seed) {
  std::vector<WriteOp> schedule =
      batch > 0 ? CoalesceInsertBatches(ops, batch) : ops;
  if (txn > 0) schedule = GroupIntoTransactions(schedule, txn, seed);
  return schedule;
}

/// Per-segment recovered LSNs of a reopened partitioned table.
std::vector<uint64_t> RecoveredLsns(const DurablePartitionedTable& t) {
  std::vector<uint64_t> lsns;
  for (const persist::RecoveryStats& s : t.recovery().segments) {
    lsns.push_back(s.recovered_lsn);
  }
  return lsns;
}

// --- WAL truncation at a random byte ---------------------------------------

struct PartTruncateParam {
  uint64_t seed;
  uint64_t ops;
  uint64_t capacity;     // small => the schedule crosses many rollovers
  uint64_t merge_every;  // 0 = no per-segment checkpoints
  uint64_t batch;        // 0 = per-row records; else max kInsertBatch rows
  uint64_t txn = 0;      // 0 = no grouping; else max ops per transaction
};

void PrintTo(const PartTruncateParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops << " capacity=" << p.capacity
      << " merge_every=" << p.merge_every << " batch=" << p.batch
      << " txn=" << p.txn;
}

/// The truncation torture body: run the framed schedule (foreground
/// MergeAll every `merge_every` entries, so merged segments checkpoint),
/// close, chop the tail segment's newest WAL file at a random byte — the
/// crash image where the globally newest records are torn away while
/// later-logged tombstones in sealed segments survive — and reopen.
void RunTruncationTorture(const PartTruncateParam& p) {
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, p.ops, kTortureKeyDomain, p.seed);
  const std::vector<WriteOp> schedule =
      FrameSchedule(ops, p.batch, p.txn, p.seed);
  const PartitionedPlan plan = PlanPartitionedSchedule(schedule, p.capacity);
  const size_t num_segments = plan.planned_records.size();

  TortureScratchDir dir("pcrash");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  // Replay LSN of the tail segment's newest installed checkpoint: recovery
  // must never land below the history it covers.
  uint64_t tail_checkpoint_lsn = 0;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                p.capacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurablePartitionedTable& dt = *opened.ValueOrDie();
    WriteScheduleOptions sched;
    sched.merge_every = p.merge_every;
    const WriteScheduleReport report =
        RunWriteSchedule(&dt.table(), schedule, sched);
    ASSERT_EQ(dt.table().num_segments(), num_segments);
    if (report.merges > 0) {
      uint64_t checkpoints = 0;
      for (size_t s = 0; s < num_segments; ++s) {
        checkpoints += dt.durable_segment(s).durability().checkpoints_written();
      }
      EXPECT_GE(checkpoints, 1u) << report.merges << " merges, no checkpoint";
    }
    const persist::DurableTable& tail = dt.durable_segment(num_segments - 1);
    tail_checkpoint_lsn = tail.durability().installed_replay_lsn();
  }

  // Only the TAIL's WAL may be cut: sealed segments hold acknowledged
  // history that later rows depend on, and recovery refuses to lose it —
  // ShortSealedSegmentRefused covers that.
  char tail_dir[32];
  std::snprintf(tail_dir, sizeof(tail_dir), "/seg-%06zu", num_segments - 1);
  Rng rng(p.seed ^ 0xca75c4a5ULL);
  testref::ChopNewestWalSegment(dir.path() + tail_dir, &rng);

  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                p.capacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  ASSERT_EQ(dt.recovery().segments.size(), num_segments);

  const std::vector<uint64_t> lsns = RecoveredLsns(dt);
  // Only the cut segment may have lost records; everything else must have
  // recovered its full planned history.
  for (size_t s = 0; s + 1 < num_segments; ++s) {
    ASSERT_EQ(lsns[s], plan.planned_records[s]) << "segment " << s;
  }
  const uint64_t tail_lsn = lsns[num_segments - 1];
  ASSERT_LE(tail_lsn, plan.planned_records[num_segments - 1]);
  // A checkpoint at replay LSN r covers records 1..r-1.
  ASSERT_GE(tail_lsn + 1, tail_checkpoint_lsn)
      << "recovery lost checkpointed (acknowledged + durable) writes";
  const ReferenceModel model = PartitionedRecoveredModel(plan, lsns);
  ExpectTableMatchesModel(dt.table(), model, p.seed);
}

/// The monolithic parameter sets: the same body at unbounded capacity, so
/// the one segment never seals and the cut always lands in its WAL.
struct TruncateParam {
  uint64_t seed;
  uint64_t ops;
  uint64_t merge_every;  // 0 = no checkpoints
  uint64_t batch;        // 0 = per-row records; else max kInsertBatch rows
  uint64_t txn = 0;      // 0 = no grouping; else max ops per transaction
};

void PrintTo(const TruncateParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops
      << " merge_every=" << p.merge_every << " batch=" << p.batch
      << " txn=" << p.txn;
}

class CrashRecoveryTruncate : public ::testing::TestWithParam<TruncateParam> {
};

TEST_P(CrashRecoveryTruncate, RecoversExactPrefixAtRandomCuts) {
  const TruncateParam p = GetParam();
  RunTruncationTorture(PartTruncateParam{p.seed, p.ops, kUnboundedCapacity,
                                         p.merge_every, p.batch, p.txn});
}

INSTANTIATE_TEST_SUITE_P(
    Cuts, CrashRecoveryTruncate,
    ::testing::Values(TruncateParam{101, 400, 0, 0},
                      TruncateParam{202, 600, 150, 0},
                      TruncateParam{303, 600, 150, 0},
                      TruncateParam{404, 900, 200, 0},
                      TruncateParam{505, 500, 100, 0},
                      TruncateParam{606, 300, 75, 0},
                      // Same schedules, insert runs batched: the recovered
                      // tables must hit the same reference model.
                      TruncateParam{101, 400, 0, 64},
                      TruncateParam{202, 600, 150, 16},
                      TruncateParam{303, 600, 150, 64},
                      TruncateParam{404, 900, 200, 256},
                      TruncateParam{505, 500, 100, 8},
                      TruncateParam{606, 300, 75, 32},
                      // Transaction-grouped (and mixed batch+txn) framings:
                      // a torn kTxnCommit must vanish atomically.
                      TruncateParam{707, 600, 150, 0, 6},
                      TruncateParam{808, 900, 200, 64, 4},
                      TruncateParam{909, 500, 100, 16, 8}));

class PartitionedCrashTruncate
    : public ::testing::TestWithParam<PartTruncateParam> {};

TEST_P(PartitionedCrashTruncate, RecoversPerSegmentPrefixAtRandomCuts) {
  RunTruncationTorture(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Cuts, PartitionedCrashTruncate,
    ::testing::Values(PartTruncateParam{8101, 600, 96, 0, 0},
                      PartTruncateParam{8202, 600, 96, 150, 0},
                      PartTruncateParam{8303, 900, 128, 200, 0},
                      PartTruncateParam{8404, 500, 64, 100, 0},
                      // Batched: rollover-straddling kInsertBatch chunks.
                      PartTruncateParam{8505, 600, 96, 150, 32},
                      PartTruncateParam{8606, 900, 128, 200, 64},
                      PartTruncateParam{8707, 500, 48, 100, 8},
                      // Transaction-grouped: torn tail groups may lose a
                      // cross-segment transaction's tail half — the model
                      // must agree run-for-run.
                      PartTruncateParam{8808, 600, 96, 150, 0, 5},
                      PartTruncateParam{8909, 900, 128, 200, 32, 4},
                      // Unbounded: the monolithic shape, one segment that
                      // never seals (its manifest round-trips UINT64_MAX).
                      PartTruncateParam{9010, 900, kUnboundedCapacity, 200,
                                        32, 4}));

// --- every-byte truncation -------------------------------------------------

TEST(CrashRecoveryBatch, TornBatchRecordVanishesAtomicallyAtEveryCut) {
  // A batch-heavy schedule in a single WAL file, cut at EVERY byte offset:
  // at each cut the recovered table must equal the model at the plan's
  // record boundary — if a torn kInsertBatch ever applied a row prefix,
  // some cut inside its frame would mismatch.
  const uint64_t kSeed = 77;
  SCOPED_TRACE("seed=77");
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, /*num_ops=*/60, kTortureKeyDomain, kSeed);
  testref::RunEveryByteCutTorture(CoalesceInsertBatches(ops, 8), kSeed,
                                  "batchcut");
}

TEST(CrashRecoveryTxn, TornTxnCommitRecordVanishesAtomicallyAtEveryCut) {
  // A transaction-grouped schedule cut at EVERY byte offset: a torn
  // kTxnCommit record must vanish atomically — recovery may never land on
  // a row prefix of a transaction's op set. Every cut inside a commit
  // frame would otherwise mismatch the model at that boundary.
  const uint64_t kSeed = 177;
  SCOPED_TRACE("seed=177");
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, /*num_ops=*/70, kTortureKeyDomain, kSeed);
  testref::RunEveryByteCutTorture(
      GroupIntoTransactions(ops, /*max_txn_ops=*/5, kSeed), kSeed, "txncut");
}

TEST(CrashRecoveryTxn, MixedBatchAndTxnRecordsRecoverAtomicallyAtEveryCut) {
  // Batch and transaction framings interleaved in one WAL: both multi-op
  // record types must stay individually atomic at every cut.
  const uint64_t kSeed = 178;
  SCOPED_TRACE("seed=178");
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, /*num_ops=*/80, kTortureKeyDomain, kSeed);
  const std::vector<WriteOp> schedule =
      GroupIntoTransactions(CoalesceInsertBatches(ops, 8), 4, kSeed);
  testref::RunEveryByteCutTorture(schedule, kSeed, "mixcut");
}

// --- rollover-straddling crash ----------------------------------------------

TEST(PartitionedCrashRollover, EmptiedFreshTailRecoversToSealedBoundary) {
  // The rollover-straddling crash: the manifest already lists the fresh
  // tail segment, but every record it held is torn away. Recovery must
  // land exactly on the sealed boundary — and the table must keep working
  // (rollover again, reopen again) from there.
  TortureScratchDir dir("rollcut");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  const uint64_t kCapacity = 50;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
    ASSERT_TRUE(opened.ok());
    for (uint64_t i = 0; i < kCapacity + 3; ++i) {
      opened.ValueOrDie()->table().InsertRow({i, i, i});
    }
    ASSERT_EQ(opened.ValueOrDie()->table().num_segments(), 2u);
  }
  auto segments = ListWalSegments(dir.path() + "/seg-000001");
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments.ValueOrDie().size(), 1u);
  ASSERT_TRUE(TruncateFile(dir.path() + "/seg-000001/" +
                               segments.ValueOrDie().back().second,
                           0)
                  .ok());

  {
    auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                  kCapacity, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& t = *reopened.ValueOrDie();
    ASSERT_EQ(t.table().num_segments(), 2u);  // manifest still lists both
    ASSERT_EQ(t.table().num_rows(), kCapacity);
    for (uint64_t i = 0; i < kCapacity; ++i) {
      ASSERT_EQ(t.table().GetKey(0, i), i);
    }
    // The recovered table keeps growing across the same boundary.
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_EQ(t.table().InsertRow({900 + i, 0, 0}), kCapacity + i);
    }
  }
  auto again = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                             kCapacity, options);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.ValueOrDie()->table().num_rows(), kCapacity + 5);
  ASSERT_EQ(again.ValueOrDie()->table().GetKey(0, kCapacity + 4), 904u);
}

// --- fork + SIGKILL ---------------------------------------------------------

struct PartKillParam {
  uint64_t seed;
  uint64_t ops;
  uint64_t capacity;
  uint64_t merge_every;
  uint64_t max_sleep_ms;  // parent waits up to this long before SIGKILL
  uint64_t batch;         // 0 = per-row records; else max kInsertBatch rows
  uint64_t txn = 0;       // 0 = no grouping; else max ops per transaction
};

void PrintTo(const PartKillParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops << " capacity=" << p.capacity
      << " merge_every=" << p.merge_every << " batch=" << p.batch
      << " txn=" << p.txn;
}

/// The fork + SIGKILL torture body. The kill lands at a random moment —
/// possibly mid-rollover (a small capacity makes rollovers frequent) or
/// between a cross-segment transaction's group commits.
void RunKillTorture(const PartKillParam& p) {
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, p.ops, kTortureKeyDomain, p.seed);
  const std::vector<WriteOp> schedule =
      FrameSchedule(ops, p.batch, p.txn, p.seed);
  const PartitionedPlan plan = PlanPartitionedSchedule(schedule, p.capacity);

  TortureScratchDir dir("pkill");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;

  // A batch or transaction acknowledges as a whole (its last logical op
  // index), so everything the child reports is durable under
  // sync=every-commit.
  Rng rng(p.seed ^ 0x5161c1a1ULL);
  const uint64_t acked_ops = testref::ForkWriterAndKill(
      [&](const std::function<void(uint64_t)>& report) {
        auto opened = DurablePartitionedTable::Open(
            dir.path(), TortureSchema(), p.capacity, options);
        if (!opened.ok()) return false;
        WriteScheduleOptions sched;
        sched.merge_every = p.merge_every;
        sched.on_op_acknowledged = report;
        RunWriteSchedule(&opened.ValueOrDie()->table(), schedule, sched);
        return true;
      },
      p.max_sleep_ms, &rng);

  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                p.capacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();

  const std::vector<uint64_t> lsns = RecoveredLsns(dt);
  uint64_t covered = 0;
  bool global_prefix = false;
  const ReferenceModel model =
      PartitionedRecoveredModel(plan, lsns, &covered, &global_prefix);
  // The cross-segment exactness contract: a real crash under
  // sync=every-commit with a single writer recovers an exact prefix of the
  // single-row-operation stream — ordered acknowledgments mean no record
  // can be durable while an earlier one (in ANY segment's WAL) is not.
  ASSERT_TRUE(global_prefix)
      << "recovery left a hole in the global operation order";
  ASSERT_LE(covered, plan.micros.size());
  // The durability contract: every acknowledged write recovers — for a
  // batch or transaction, all of it. (Recovering more than was acked is
  // fine — records can be durable before the ack is observed.)
  ASSERT_GE(covered, plan.micros_after_logical[acked_ops])
      << "recovery lost acknowledged writes (acked=" << acked_ops << ")";
  ExpectTableMatchesModel(dt.table(), model, p.seed);
}

/// The monolithic parameter sets: the same body at unbounded capacity.
struct KillParam {
  uint64_t seed;
  uint64_t ops;
  uint64_t merge_every;
  uint64_t max_sleep_ms;  // parent waits up to this long before SIGKILL
  uint64_t batch;         // 0 = per-row records; else max kInsertBatch rows
  uint64_t txn = 0;       // 0 = no grouping; else max ops per transaction
};

void PrintTo(const KillParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " ops=" << p.ops
      << " merge_every=" << p.merge_every << " batch=" << p.batch
      << " txn=" << p.txn;
}

class CrashRecoverySigkill : public ::testing::TestWithParam<KillParam> {};

TEST_P(CrashRecoverySigkill, ChildKilledMidWorkloadLosesNoAcknowledgedOp) {
  const KillParam p = GetParam();
  RunKillTorture(PartKillParam{p.seed, p.ops, kUnboundedCapacity,
                               p.merge_every, p.max_sleep_ms, p.batch, p.txn});
}

INSTANTIATE_TEST_SUITE_P(
    Kills, CrashRecoverySigkill,
    ::testing::Values(KillParam{7001, 2000, 400, 300, 0},
                      KillParam{7002, 2000, 400, 300, 0},
                      KillParam{7003, 1500, 0, 200, 0},
                      KillParam{7004, 2500, 250, 400, 0},
                      // Mixed row/batch workloads: insert runs coalesced,
                      // updates/deletes stay per-row records between them.
                      KillParam{7005, 2000, 400, 300, 64},
                      KillParam{7006, 1500, 0, 200, 16},
                      KillParam{7007, 2500, 250, 400, 128},
                      // Transaction-grouped: acknowledged transactions must
                      // survive whole; unacknowledged ones may vanish whole.
                      KillParam{7008, 2000, 400, 300, 0, 6},
                      KillParam{7009, 1500, 0, 200, 0, 4},
                      KillParam{7010, 2500, 250, 400, 64, 5}));

class PartitionedCrashSigkill
    : public ::testing::TestWithParam<PartKillParam> {};

TEST_P(PartitionedCrashSigkill, KilledMidWorkloadRecoversExactGlobalPrefix) {
  RunKillTorture(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kills, PartitionedCrashSigkill,
    ::testing::Values(PartKillParam{9001, 2000, 256, 400, 300, 0},
                      PartKillParam{9002, 2000, 128, 400, 300, 0},
                      PartKillParam{9003, 1500, 96, 0, 200, 0},
                      PartKillParam{9004, 2500, 192, 250, 400, 0},
                      // Batched: acknowledged rollover-straddling batches
                      // must survive chunk-for-chunk.
                      PartKillParam{9005, 2000, 256, 400, 300, 64},
                      PartKillParam{9006, 1500, 64, 0, 200, 16},
                      PartKillParam{9007, 2500, 128, 250, 400, 128},
                      // Transaction-grouped: a kill between a cross-segment
                      // transaction's group commits may strand a group
                      // prefix — still an exact global micro prefix, and
                      // acknowledged transactions survive whole.
                      PartKillParam{9008, 2000, 128, 400, 300, 0, 5},
                      PartKillParam{9009, 1500, 96, 0, 200, 0, 4},
                      PartKillParam{9010, 2500, 192, 250, 400, 64, 6}));

// ---------------------------------------------------------------------------
// Delete-heavy aging + compaction checkpoints (PR 7): crash cuts across the
// compaction window, and the bounded-replay guarantee itself.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryAging, CutAcrossCompactionWindowRecoversExactPrefix) {
  // The sealed-segment aging profile on a single DurableTable: one merge,
  // then tombstone-only traffic punctuated by validity-only compaction
  // checkpoints. A crash cut at a random byte of the newest WAL segment
  // must recover an exact prefix of the delete stream, never resurrect a
  // compaction-covered tombstone, and never lose one either — the
  // checkpoint's validity words and the replay tail must tile exactly at
  // the rotation boundary.
  const uint64_t kRows = 300;
  const uint64_t kDeletes = 120;
  const uint64_t kCompactEvery = 25;
  for (const uint64_t seed : {421u, 422u, 423u, 424u, 425u, 426u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    TortureScratchDir dir("agecut");
    DurableTableOptions options;
    options.wal.policy = WalSyncPolicy::kEveryCommit;

    // Distinct delete targets in shuffled order (Fisher-Yates).
    Rng rng(seed);
    std::vector<uint64_t> targets(kRows);
    for (uint64_t i = 0; i < kRows; ++i) targets[i] = i;
    for (uint64_t i = kRows - 1; i > 0; --i) {
      std::swap(targets[i], targets[rng.Below(i + 1)]);
    }
    targets.resize(kDeletes);

    uint64_t compacted_deletes = 0;  // deletes covered by a compaction
    {
      auto opened = DurableTable::Open(dir.path(), TortureSchema(), options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      Table& t = opened.ValueOrDie()->table();
      for (uint64_t i = 0; i < kRows; ++i) t.InsertRow({i, i, i});
      ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
      // Inserts held LSNs 1..kRows and the merge froze at kRows + 1, so
      // delete j (1-based) deterministically holds LSN kRows + j: the
      // compaction rotations append nothing and consume no LSNs.
      for (uint64_t j = 1; j <= kDeletes; ++j) {
        ASSERT_TRUE(t.DeleteRow(targets[j - 1]).ok());
        if (j % kCompactEvery == 0) {
          auto compacted = t.CompactCheckpoint();
          ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
          ASSERT_EQ(compacted.ValueOrDie(), kRows + j + 1);
          compacted_deletes = j;
        }
      }
    }

    // Chop the newest WAL segment — the current compaction window.
    const uint64_t cut = testref::ChopNewestWalSegment(dir.path(), &rng);

    auto reopened = DurableTable::Open(dir.path(), TortureSchema(), options);
    ASSERT_TRUE(reopened.ok())
        << "seed " << seed << " cut " << cut << ": "
        << reopened.status().ToString();
    const auto& dt = *reopened.ValueOrDie();
    // Replay is bounded by the compaction window regardless of lifetime
    // delete volume.
    EXPECT_LE(dt.recovery().wal_records_applied, kDeletes - compacted_deletes);
    const uint64_t recovered = dt.recovery().recovered_lsn;
    ASSERT_GE(recovered, kRows + compacted_deletes)
        << "lost a compaction-covered tombstone";
    ASSERT_LE(recovered, kRows + kDeletes);
    const uint64_t deletes_recovered = recovered - kRows;

    const Table& t = dt.table();
    ASSERT_EQ(t.num_rows(), kRows);
    EXPECT_EQ(t.valid_rows(), kRows - deletes_recovered);
    for (uint64_t j = 1; j <= kDeletes; ++j) {
      ASSERT_EQ(t.IsRowValid(targets[j - 1]), j > deletes_recovered)
          << "seed " << seed << " cut " << cut << " delete " << j;
    }
  }
}

TEST(CrashRecoveryAging, ReplayStaysBoundedByCompactionThreshold) {
  // The regression the tentpole exists for: before compaction checkpoints,
  // a sealed segment's reopen replay grew with LIFETIME deletes. With the
  // policy trigger active, the replayed record count after any clean close
  // is bounded by threshold + one trigger-evaluation period, however many
  // tombstones the segment absorbed.
  const uint64_t kCapacity = 40;
  const uint64_t kThreshold = 12;
  const uint64_t kWave = 4;
  TortureScratchDir dir("agebound");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.0;
  policy.min_delta_rows = 1;
  policy.compact_uncheckpointed_records = kThreshold;
  {
    auto opened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    PartitionedTable& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 100; ++i) t.InsertRow({i, i, i});
    t.MergeDueSegments(policy, TableMergeOptions{});  // seal + final-merge
    ASSERT_TRUE(t.segment_sealed(0));
    ASSERT_TRUE(t.segment_sealed(1));

    // Ten waves of deletes drain BOTH sealed segments completely — 40
    // tombstones each, 3.3x the replay bound — with the compaction
    // trigger evaluated after every wave, as a daemon poll would.
    for (uint64_t wave = 0; wave < 10; ++wave) {
      for (uint64_t k = 0; k < kWave; ++k) {
        ASSERT_TRUE(t.DeleteRow(wave * kWave + k).ok());
        ASSERT_TRUE(t.DeleteRow(kCapacity + wave * kWave + k).ok());
      }
      t.MergeDueSegments(policy, TableMergeOptions{});
    }
    // Both sealed segments were compacted (in-session counters).
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_GE(opened.ValueOrDie()
                    ->durable_segment(s)
                    .durability_stats()
                    .compaction_checkpoints,
                2u)
          << "segment " << s;
    }
  }
  auto reopened = DurablePartitionedTable::Open(dir.path(), TortureSchema(),
                                                kCapacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dpt = *reopened.ValueOrDie();
  ASSERT_EQ(dpt.recovery().segments.size(), 3u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_LE(dpt.recovery().segments[s].wal_records_applied,
              kThreshold + kWave)
        << "segment " << s << " replay grew past the compaction bound";
    EXPECT_TRUE(dpt.recovery().segments[s].checkpoint_loaded)
        << "segment " << s;
  }
  EXPECT_EQ(dpt.table().num_rows(), 100u);
  EXPECT_EQ(dpt.table().valid_rows(), 20u);
  for (uint64_t i = 0; i < 2 * kCapacity; ++i) {
    ASSERT_FALSE(dpt.table().IsRowValid(i)) << "row " << i;
  }
  for (uint64_t i = 2 * kCapacity; i < 100; ++i) {
    ASSERT_TRUE(dpt.table().IsRowValid(i)) << "row " << i;
  }
}

}  // namespace
}  // namespace deltamerge
