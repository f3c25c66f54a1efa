// Copyright (c) 2026 The DeltaMerge Authors.
// Shared machinery for the durability tortures (crash_recovery_test,
// wal_fuzz_test, txn_test): the 3-column torture schema, the
// reference-model prefix replayer, the full differential table-vs-model
// comparison, and — the key piece for batched and transactional logging —
// a PartitionedPlan that predicts, for every WAL record the engine will
// emit for a (possibly batch-coalesced or transaction-grouped) schedule,
// which segment logs it, at which LSN, and which single-row operations
// it carries.
//
// Every schedule-driven torture writes through the one front door, a
// DurablePartitionedTable; the monolithic shape is one segment of
// unbounded capacity (kUnboundedCapacity). With per-row logging a
// segment's recovered LSN equals its recovered op count. Batch and
// transaction records break that identity: one LSN may cover 64 rows.
// The plan restores exactness: given the per-segment recovered LSNs, the
// records they cover rebuild the precise reference state the table must
// equal — and a partially applied batch or transaction shows up as a
// mismatch at every offset.

#pragma once

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/table.h"
#include "persist/durable_partitioned_table.h"
#include "persist/wal.h"
#include "reference_model.h"
#include "util/file_io.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace testref {

constexpr uint64_t kTortureKeyDomain = 1 << 12;  // small domain -> collisions

/// Segment capacity of the monolithic shape: one segment that never seals.
constexpr uint64_t kUnboundedCapacity = std::numeric_limits<uint64_t>::max();

inline Schema TortureSchema() {
  Schema schema;
  schema.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  return schema;
}

inline std::vector<size_t> TortureWidths() { return {8, 4, 16}; }

/// Unique scratch directory under the test's working directory; removed
/// (with contents) on scope exit.
class TortureScratchDir {
 public:
  explicit TortureScratchDir(const std::string& tag) {
    char tmpl[256];
    std::snprintf(tmpl, sizeof(tmpl), "./dm_%s_XXXXXX", tag.c_str());
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "./dm_torture_fallback";
  }
  ~TortureScratchDir() { (void)RemoveDirAll(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Crash scaffolding shared by the tortures: random-byte WAL truncation and
// the fork + SIGKILL harness. Both simulators are schedule-agnostic — the
// same helpers drive per-row, batch-coalesced, and transaction-grouped
// schedules against monolithic and partitioned durable tables.
// ---------------------------------------------------------------------------

/// Truncates the newest WAL segment under `wal_dir` at a random byte in
/// [0, file_size] — a hard crash mid-write. Returns the cut offset.
inline uint64_t ChopNewestWalSegment(const std::string& wal_dir, Rng* rng) {
  auto segments = persist::ListWalSegments(wal_dir);
  EXPECT_TRUE(segments.ok());
  EXPECT_FALSE(segments.ValueOrDie().empty());
  const std::string last_segment =
      wal_dir + "/" + segments.ValueOrDie().back().second;
  auto size = FileSize(last_segment);
  EXPECT_TRUE(size.ok());
  const uint64_t cut = rng->Below(size.ValueOrDie() + 1);
  EXPECT_TRUE(TruncateFile(last_segment, cut).ok());
  return cut;
}

/// Forks a child that runs `body(report)` — the body calls report(i) after
/// logical op `i` is *acknowledged* (durable under sync=every-commit), then
/// the helper parks the child until the parent SIGKILLs it at a random
/// moment within `max_sleep_ms`. Returns the number of logical ops the
/// child reported acknowledged before dying; the caller's durability
/// contract is that recovery must cover at least that prefix. The child
/// exits 2 if `body` returns false (setup failure) and 3 if an ack write
/// fails — both surface as a short ack stream, which the recovery bound
/// then flags.
template <typename Body>
inline uint64_t ForkWriterAndKill(Body&& body, uint64_t max_sleep_ms,
                                  Rng* rng) {
  int pipe_fds[2];
  EXPECT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  EXPECT_GE(child, 0);
  if (child < 0) return 0;
  if (child == 0) {
    // --- child: write durably, report each acknowledged op, then idle ---
    ::close(pipe_fds[0]);
    const std::function<void(uint64_t)> report = [&](uint64_t op_index) {
      const ssize_t w = ::write(pipe_fds[1], &op_index, sizeof(op_index));
      if (w != sizeof(op_index)) _exit(3);
    };
    if (!body(report)) _exit(2);
    ::close(pipe_fds[1]);  // parent sees EOF if we finished everything
    for (;;) ::pause();    // wait for the SIGKILL
  }
  // --- parent: kill at a random moment (possibly mid-fsync, mid-rename,
  // mid-checkpoint, or mid-transaction-commit), then reap and drain ---
  ::close(pipe_fds[1]);
  ::usleep(static_cast<useconds_t>(rng->Below(max_sleep_ms * 1000)));
  EXPECT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(child, &wstatus, 0), child);
  uint64_t acked_ops = 0;
  uint64_t index = 0;
  for (;;) {
    const ssize_t r = ::read(pipe_fds[0], &index, sizeof(index));
    if (r != sizeof(index)) break;
    acked_ops = index + 1;
  }
  ::close(pipe_fds[0]);
  return acked_ops;
}

/// Replays the first `count` *logical* ops of the schedule into a fresh
/// reference model. Works for per-row and batch-coalesced schedules alike:
/// a batch entry spends one logical op per row, and a batch straddling the
/// budget applies only its in-budget row prefix (recovery never produces
/// such a state -- batches are atomic -- but the model must not silently
/// overshoot if handed one).
inline ReferenceModel ModelPrefix(const std::vector<WriteOp>& ops,
                                  uint64_t count) {
  ReferenceModel model(TortureWidths());
  const size_t nc = TortureWidths().size();
  uint64_t applied = 0;
  for (size_t i = 0; i < ops.size() && applied < count; ++i) {
    const WriteOp& op = ops[i];
    switch (op.kind) {
      case WriteOpKind::kInsert:
        model.Insert(op.keys);
        ++applied;
        break;
      case WriteOpKind::kUpdate:
        model.Update(op.target_row, op.keys);
        ++applied;
        break;
      case WriteOpKind::kDelete:
        model.Delete(op.target_row);
        ++applied;
        break;
      case WriteOpKind::kInsertBatch:
        for (uint64_t r = 0; r < op.batch_rows && applied < count; ++r) {
          model.Insert(
              std::span<const uint64_t>(op.keys).subspan(r * nc, nc));
          ++applied;
        }
        break;
      case WriteOpKind::kTxn:
        // Transactions recover whole or vanish whole, so a valid prefix
        // budget always lands on a transaction boundary. Assert that and
        // apply the complete op set — a budget cut mid-transaction is a
        // torture bug (or the atomicity hole these tests exist to catch),
        // and half-applying here would mask it.
        EXPECT_LE(applied + op.txn_ops.size(), count)
            << "prefix budget lands inside a transaction";
        model.ApplyTxn(op.txn_ops);
        applied += op.txn_ops.size();
        break;
    }
  }
  return model;
}

/// Full differential comparison, same checks the snapshot torture uses:
/// shape, validity of every row, sampled materialization, and count/sum
/// aggregates per column. Templated because Table and PartitionedTable
/// expose the identical read surface.
template <typename TableT>
inline void ExpectTableMatchesModel(const TableT& table,
                                    const ReferenceModel& model,
                                    uint64_t seed) {
  ASSERT_EQ(table.num_rows(), model.size());
  ASSERT_EQ(table.valid_rows(), model.valid_count());
  for (uint64_t row = 0; row < model.size(); ++row) {
    ASSERT_EQ(table.IsRowValid(row), model.IsValid(row)) << "row " << row;
  }
  Rng rng(seed ^ 0x0f1e1d5eedULL);
  const uint64_t rows = model.size();
  for (int i = 0; i < 64 && rows > 0; ++i) {
    const uint64_t row = rng.Below(rows);
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(table.GetKey(c, row), model.Key(row, c))
          << "row " << row << " col " << c;
    }
  }
  for (size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(table.SumColumn(c), model.Sum(c)) << "col " << c;
    for (int i = 0; i < 16; ++i) {
      const uint64_t key = rng.Below(kTortureKeyDomain);
      ASSERT_EQ(table.CountEquals(c, key), model.CountEquals(c, key))
          << "col " << c << " key " << key;
      const uint64_t lo = rng.Below(kTortureKeyDomain);
      ASSERT_EQ(table.CountRange(c, lo, lo + 100),
                model.CountRange(c, lo, lo + 100))
          << "col " << c << " lo " << lo;
    }
  }
}

// ---------------------------------------------------------------------------
// Partitioned schedules: per-segment WAL accounting.
//
// A DurablePartitionedTable logs each segment's records into that segment's
// own WAL, so "how much recovered" is a vector of per-segment LSNs, not one
// number. The plan below simulates the sharded write path exactly — lazy
// rollover at the capacity boundary, batch entries split at segment
// boundaries (one kInsertBatch record per per-segment chunk), same-segment
// updates as one atomic kUpdate record, cross-segment updates as a tail
// kInsert record followed by a kDelete record in the owning segment — and
// decomposes the logical stream into single-row micro operations (an
// update is insert-then-invalidate, mirroring ReferenceModel::Update), each
// tagged with the (segment, lsn) of the record that carries it. Given the
// per-segment recovered LSNs of a reopened table, the covered micro ops
// reconstruct the exact reference state recovery must land on.
// ---------------------------------------------------------------------------

struct PartitionedMicro {
  bool is_insert = false;
  /// Insert payload (one key per column); points into the schedule's
  /// WriteOp storage, so the schedule must outlive the plan.
  std::span<const uint64_t> keys;
  uint64_t target = 0;  ///< delete-type micros: the global row id
  size_t segment = 0;
  uint64_t lsn = 0;     ///< LSN within that segment's WAL
};

struct PartitionedPlan {
  std::vector<PartitionedMicro> micros;  ///< in global write order
  /// [j] = micro ops composing the first j logical (single-row) ops; maps
  /// the ack-pipe indices of the crash torture onto the micro stream.
  std::vector<uint64_t> micros_after_logical;
  /// Records each segment's WAL holds after a full, uncrashed run.
  std::vector<uint64_t> planned_records;
};

inline PartitionedPlan PlanPartitionedSchedule(
    std::span<const WriteOp> schedule, uint64_t capacity) {
  PartitionedPlan plan;
  plan.micros_after_logical.push_back(0);
  std::vector<uint64_t> next_lsn(1, 1);  // per segment, starts at 1
  size_t tail = 0;
  uint64_t tail_rows = 0;
  uint64_t rows_total = 0;
  const size_t nc = TortureWidths().size();
  const auto roll_over_if_full = [&] {
    if (tail_rows < capacity) return;
    ++tail;
    tail_rows = 0;
    next_lsn.push_back(1);
  };
  for (const WriteOp& op : schedule) {
    switch (op.kind) {
      case WriteOpKind::kInsert: {
        roll_over_if_full();
        plan.micros.push_back(
            {true, op.keys, 0, tail, next_lsn[tail]++});
        ++rows_total;
        ++tail_rows;
        break;
      }
      case WriteOpKind::kInsertBatch: {
        uint64_t done = 0;
        while (done < op.batch_rows) {
          roll_over_if_full();
          const uint64_t chunk =
              std::min(capacity - tail_rows, op.batch_rows - done);
          // One record per per-segment chunk — true only below the WAL's
          // per-record key bound, beyond which Table::InsertRows splits a
          // chunk into several kInsertBatch records. Fail loudly if a
          // schedule ever crosses it instead of silently mis-counting
          // LSNs (would need capacity >= ~350K rows at 3 columns).
          EXPECT_LE(chunk * nc, uint64_t{1} << 20)
              << "plan does not model TableJournal::MaxBatchKeys chunking";
          const uint64_t lsn = next_lsn[tail]++;  // one record per chunk
          for (uint64_t r = 0; r < chunk; ++r) {
            plan.micros.push_back(
                {true,
                 std::span<const uint64_t>(op.keys).subspan(
                     (done + r) * nc, nc),
                 0, tail, lsn});
          }
          done += chunk;
          rows_total += chunk;
          tail_rows += chunk;
        }
        break;
      }
      case WriteOpKind::kUpdate: {
        roll_over_if_full();
        EXPECT_LT(op.target_row, rows_total) << "generator broke in-range";
        const size_t owner = static_cast<size_t>(op.target_row / capacity);
        if (owner == tail) {
          const uint64_t lsn = next_lsn[tail]++;  // one atomic kUpdate
          plan.micros.push_back({true, op.keys, 0, tail, lsn});
          plan.micros.push_back({false, {}, op.target_row, tail, lsn});
        } else {
          plan.micros.push_back(
              {true, op.keys, 0, tail, next_lsn[tail]++});
          plan.micros.push_back(
              {false, {}, op.target_row, owner, next_lsn[owner]++});
        }
        ++rows_total;
        ++tail_rows;
        break;
      }
      case WriteOpKind::kDelete: {
        EXPECT_LT(op.target_row, rows_total) << "generator broke in-range";
        const size_t owner = static_cast<size_t>(op.target_row / capacity);
        plan.micros.push_back(
            {false, {}, op.target_row, owner, next_lsn[owner]++});
        break;
      }
      case WriteOpKind::kTxn: {
        // Mirrors PartitionedTable::CommitTxn: the buffered ops decompose
        // into contiguous same-segment runs, and each run commits as ONE
        // kTxnCommit record (one LSN) in its segment's WAL — routing to a
        // different segment closes the current run. A crash can therefore
        // tear the transaction only at run boundaries, which is exactly the
        // granularity these micros encode.
        size_t run_seg = SIZE_MAX;
        uint64_t run_lsn_value = 0;
        const auto run_lsn = [&](size_t seg) {
          if (seg != run_seg) {
            run_seg = seg;
            run_lsn_value = next_lsn[seg]++;
          }
          return run_lsn_value;
        };
        for (const TxnOp& t : op.txn_ops) {
          switch (t.kind) {
            case TxnOp::Kind::kInsert: {
              roll_over_if_full();
              plan.micros.push_back({true, t.keys, 0, tail, run_lsn(tail)});
              ++rows_total;
              ++tail_rows;
              break;
            }
            case TxnOp::Kind::kUpdate: {
              roll_over_if_full();
              EXPECT_LT(t.target_row, rows_total)
                  << "generator broke in-range";
              const size_t owner =
                  static_cast<size_t>(t.target_row / capacity);
              if (owner == tail) {
                const uint64_t lsn = run_lsn(tail);
                plan.micros.push_back({true, t.keys, 0, tail, lsn});
                plan.micros.push_back({false, {}, t.target_row, tail, lsn});
              } else {
                plan.micros.push_back(
                    {true, t.keys, 0, tail, run_lsn(tail)});
                plan.micros.push_back(
                    {false, {}, t.target_row, owner, run_lsn(owner)});
              }
              ++rows_total;
              ++tail_rows;
              break;
            }
            case TxnOp::Kind::kDelete: {
              EXPECT_LT(t.target_row, rows_total)
                  << "generator broke in-range";
              const size_t owner =
                  static_cast<size_t>(t.target_row / capacity);
              plan.micros.push_back(
                  {false, {}, t.target_row, owner, run_lsn(owner)});
              break;
            }
          }
          plan.micros_after_logical.push_back(plan.micros.size());
        }
        break;
      }
    }
    // One entry per logical (single-row) op: a batch spends one per row; an
    // update's two micros belong to a single logical op.
    switch (op.kind) {
      case WriteOpKind::kInsert:
      case WriteOpKind::kDelete:
      case WriteOpKind::kUpdate:
        plan.micros_after_logical.push_back(plan.micros.size());
        break;
      case WriteOpKind::kInsertBatch: {
        const uint64_t base = plan.micros.size() - op.batch_rows;
        for (uint64_t r = 1; r <= op.batch_rows; ++r) {
          plan.micros_after_logical.push_back(base + r);
        }
        break;
      }
      case WriteOpKind::kTxn:
        break;  // entries pushed per sub-op above
    }
  }
  for (uint64_t lsn : next_lsn) plan.planned_records.push_back(lsn - 1);
  return plan;
}

/// Rebuilds the reference state a recovery with the given per-segment
/// recovered LSNs must equal: every micro op whose record survived is
/// applied in global order. Asserts the structural invariants recovery
/// guarantees — a recovered insert can never follow a lost one (inserts
/// are tail-routed, so lost inserts form a suffix), and `global_prefix`
/// reports whether the covered set is an exact prefix of the whole micro
/// stream (true for real crashes under sync=every-commit; deliberately
/// false when a test truncates one segment's WAL while later records in
/// other segments survive).
inline ReferenceModel PartitionedRecoveredModel(
    const PartitionedPlan& plan, const std::vector<uint64_t>& recovered_lsns,
    uint64_t* covered_micros = nullptr, bool* global_prefix = nullptr) {
  ReferenceModel model(TortureWidths());
  bool any_lost = false;
  bool insert_lost = false;
  bool is_prefix = true;
  uint64_t covered = 0;
  for (const PartitionedMicro& m : plan.micros) {
    const bool c = m.segment < recovered_lsns.size() &&
                   m.lsn <= recovered_lsns[m.segment];
    if (!c) {
      any_lost = true;
      if (m.is_insert) insert_lost = true;
      continue;
    }
    if (any_lost) is_prefix = false;
    EXPECT_FALSE(m.is_insert && insert_lost)
        << "an insert recovered although an earlier insert was lost";
    ++covered;
    if (m.is_insert) {
      model.Insert(m.keys);
    } else {
      model.Delete(m.target);
    }
  }
  if (covered_micros != nullptr) *covered_micros = covered;
  if (global_prefix != nullptr) *global_prefix = is_prefix;
  return model;
}

/// The every-byte truncation torture: runs `schedule` once on a fresh
/// unbounded DurablePartitionedTable under sync=every-commit, recording
/// each entry's frame-end offset in its one segment's (single,
/// deterministically named) WAL file, then restores the crash image
/// truncated at EVERY byte from full length down to zero and verifies each
/// cut recovers the table to exactly the record-boundary prefix the
/// surviving frames cover. If a torn multi-op record (kInsertBatch or
/// kTxnCommit) ever applied a partial effect, some cut inside its frame
/// would mismatch the model. `tag` names the scratch directory.
inline void RunEveryByteCutTorture(const std::vector<WriteOp>& schedule,
                                   uint64_t seed, const std::string& tag) {
  const PartitionedPlan plan =
      PlanPartitionedSchedule(schedule, kUnboundedCapacity);

  TortureScratchDir dir(tag);
  persist::DurableTableOptions options;
  options.wal.policy = persist::WalSyncPolicy::kEveryCommit;
  // The first WAL file's name is deterministic (LSNs start at 1), so the
  // ack callback can record the frame-end offset of every entry:
  // sync=every-commit flushes before acknowledging, making the post-ack
  // file size exactly the cumulative frame boundary.
  const std::string seg_dir = dir.path() + "/seg-000000";
  const std::string wal_path = seg_dir + "/wal-00000000000000000001.log";
  std::vector<uint64_t> frame_ends;
  {
    auto opened = persist::DurablePartitionedTable::Open(
        dir.path(), TortureSchema(), kUnboundedCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteScheduleOptions sched_options;
    sched_options.on_op_acknowledged = [&](uint64_t) {
      auto sz = FileSize(wal_path);
      ASSERT_TRUE(sz.ok());
      frame_ends.push_back(sz.ValueOrDie());
    };
    RunWriteSchedule(&opened.ValueOrDie()->table(), schedule, sched_options);
  }
  ASSERT_EQ(frame_ends.size(), schedule.size());
  ASSERT_EQ(plan.planned_records.size(), 1u);
  ASSERT_EQ(plan.planned_records[0], schedule.size());
  const uint64_t full = frame_ends.back();

  // Keep the pristine crash image in memory: each Open mutates the
  // directory (a recovered_lsn of 0 even recreates — and truncates — the
  // very file under test), so every cut must start from a restored copy,
  // not from whatever the previous iteration left behind.
  std::vector<uint8_t> pristine(full);
  {
    auto in = FileReader::Open(wal_path);
    ASSERT_TRUE(in.ok());
    ASSERT_TRUE(in.ValueOrDie()->Read(pristine.data(), pristine.size()).ok());
  }

  for (uint64_t cut = full + 1; cut-- > 0;) {
    // Restore the crash image truncated at `cut`; drop every other WAL
    // file a previous Open created.
    auto now = persist::ListWalSegments(seg_dir);
    ASSERT_TRUE(now.ok());
    for (const auto& [start_lsn, name] : now.ValueOrDie()) {
      ASSERT_TRUE(RemoveFile(seg_dir + "/" + name).ok());
    }
    {
      auto out = FileWriter::Create(wal_path);
      ASSERT_TRUE(out.ok());
      if (cut > 0) {
        ASSERT_TRUE(out.ValueOrDie()->Write(pristine.data(), cut).ok());
      }
      ASSERT_TRUE(out.ValueOrDie()->Close().ok());
    }
    // Exactly the records whose frames fully survived may replay.
    uint64_t expect_records = 0;
    while (expect_records < frame_ends.size() &&
           frame_ends[expect_records] <= cut) {
      ++expect_records;
    }
    auto reopened = persist::DurablePartitionedTable::Open(
        dir.path(), TortureSchema(), kUnboundedCapacity, options);
    ASSERT_TRUE(reopened.ok())
        << "cut at " << cut << ": " << reopened.status().ToString();
    const auto& dt = *reopened.ValueOrDie();
    ASSERT_EQ(dt.recovery().segments.size(), 1u) << "cut at " << cut;
    const uint64_t lsn = dt.recovery().segments[0].recovered_lsn;
    ASSERT_EQ(lsn, expect_records) << "cut at " << cut;
    bool global_prefix = false;
    const ReferenceModel model =
        PartitionedRecoveredModel(plan, {lsn}, nullptr, &global_prefix);
    ASSERT_TRUE(global_prefix) << "cut at " << cut;
    ExpectTableMatchesModel(dt.table(), model, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace testref
}  // namespace deltamerge
