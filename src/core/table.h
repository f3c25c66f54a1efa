// Copyright (c) 2026 The DeltaMerge Authors.
// Table: N_C columns with aligned row ids, an insert-only write path, and
// the transactionally-safe online merge protocol of §3:
//
//   * updates are new inserts; deletes invalidate rows in a validity bitmap;
//   * the implicit tuple offset is valid for all attributes of the table;
//   * a merge freezes the deltas (brief exclusive lock), runs against the
//     frozen snapshot with no lock held while new writes land in the fresh
//     active deltas, and commits atomically (brief exclusive lock again).
//
// Concurrency model: single writer at a time (delta appends take the
// exclusive lock), arbitrarily many readers, and one merger. The merge body
// — the expensive part — runs entirely outside the lock.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/column_handle.h"
#include "core/durability_hooks.h"
#include "core/merge_types.h"
#include "core/snapshot.h"
#include "parallel/task_queue.h"
#include "parallel/thread_team.h"
#include "storage/validity.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace deltamerge {

/// Column declaration: a value width in bytes (4, 8, or 16) and a name.
struct ColumnSpec {
  size_t value_width = 8;
  std::string name;
};

/// Table schema: the ordered column declarations.
struct Schema {
  std::vector<ColumnSpec> columns;

  static Schema Uniform(size_t num_columns, size_t value_width) {
    Schema s;
    s.columns.resize(num_columns);
    for (size_t i = 0; i < num_columns; ++i) {
      s.columns[i].value_width = value_width;
      s.columns[i].name = "col" + std::to_string(i);
    }
    return s;
  }
};

/// One readset observation: `row`'s validity as the transaction saw it.
/// Commit-time validation re-checks the observation against the current
/// bitmap and aborts on a mismatch (first-updater-wins). Namespace-scope —
/// shared by PartitionedTable::Transaction, its per-segment commit paths,
/// and the validate/apply split (CommitTxnOps / ValidateReadset).
struct TxnRead {
  uint64_t row;
  bool observed_valid;
};

/// How a table-level merge distributes work over threads (§6.2.1):
/// kColumnTasks  — scheme (i): each column is a task on a shared queue; a
///                 column's merge itself runs single-threaded.
/// kIntraColumn  — scheme (ii): columns merge one after another, each merge
///                 parallelized internally (merge-path Step 1(b), chunked
///                 Step 2).
enum class MergeParallelism : uint8_t {
  kColumnTasks = 0,
  kIntraColumn = 1,
};

struct TableMergeOptions {
  MergeOptions merge;
  int num_threads = 1;
  MergeParallelism parallelism = MergeParallelism::kColumnTasks;

  /// Resource throttling (§3 strategy (b), §9): sleep this long between
  /// column merges so a background merge leaves headroom for foreground
  /// queries. 0 = merge with all available resources (§3 strategy (a)).
  /// Applies to the serial and intra-column paths (column-task merges are
  /// already interleaved by the queue).
  uint64_t inter_column_delay_us = 0;
};

/// Outcome of a table merge.
struct TableMergeReport {
  MergeStats stats;           ///< accumulated over all columns
  uint64_t wall_cycles = 0;   ///< end-to-end, including freeze/commit
  uint64_t rows_merged = 0;   ///< frozen-delta rows folded into main
};

class Table {
 public:
  explicit Table(Schema schema);
  ~Table();

  /// Assembles a table from pre-built columns (all the same row count);
  /// the fast path for workload builders. (Tables hold synchronization
  /// state and are therefore heap-allocated and pinned.)
  static std::unique_ptr<Table> FromColumns(
      Schema schema, std::vector<std::unique_ptr<ColumnBase>> columns);

  /// Same, but with an explicit validity vector (must span exactly the
  /// columns' row count) — the recovery path, where checkpointed rows are
  /// not all valid.
  static std::unique_ptr<Table> FromColumns(
      Schema schema, std::vector<std::unique_ptr<ColumnBase>> columns,
      ValidityVector validity);

  DM_DISALLOW_COPY_AND_MOVE(Table);

  // --- shape ---
  size_t num_columns() const { return columns_.size(); }
  uint64_t num_rows() const DM_EXCLUDES(mu_);
  uint64_t valid_rows() const DM_EXCLUDES(mu_);
  const Schema& schema() const { return schema_; }
  ColumnBase& column(size_t i) { return *columns_[i]; }
  const ColumnBase& column(size_t i) const { return *columns_[i]; }
  size_t memory_bytes() const DM_EXCLUDES(mu_);

  // --- write path (insert-only, §3) ---

  /// Appends a row; keys.size() must equal num_columns(). Returns the row id.
  uint64_t InsertRow(std::span<const uint64_t> keys) DM_EXCLUDES(mu_);
  uint64_t InsertRow(std::initializer_list<uint64_t> keys) {
    return InsertRow(std::span<const uint64_t>(keys.begin(), keys.size()));
  }

  /// Appends a batch of rows column-parallel: each column applies the whole
  /// batch as one task on `queue` (the delta-update parallelization of §7.2:
  /// "we parallelize over the different columns being updated"). With a null
  /// queue the batch applies serially. Either way each column takes its
  /// keys as one batch insert (ColumnBase::InsertKeys). With a journal
  /// attached the batch is durable as ONE kInsertBatch WAL record — framed
  /// (memcpy + CRC) before the table lock is taken, applied atomically on
  /// recovery (a torn batch record vanishes entirely), acknowledged by a
  /// single group-committed sync covering every row.
  uint64_t InsertRows(std::span<const uint64_t> row_major_keys,
                      uint64_t num_rows, TaskQueue* queue = nullptr)
      DM_EXCLUDES(mu_);

  /// Insert-only update: writes the new version as a fresh row and
  /// invalidates the old one. Returns the new row id.
  uint64_t UpdateRow(uint64_t row, std::span<const uint64_t> keys)
      DM_EXCLUDES(mu_);
  uint64_t UpdateRow(uint64_t row, std::initializer_list<uint64_t> keys) {
    return UpdateRow(row,
                     std::span<const uint64_t>(keys.begin(), keys.size()));
  }

  /// Invalidates a row.
  Status DeleteRow(uint64_t row) DM_EXCLUDES(mu_);

  bool IsRowValid(uint64_t row) const DM_EXCLUDES(mu_);

  // --- optimistic multi-row transactions (Hekaton-style MVCC) ---
  //
  // The segment-level commit steps behind PartitionedTable::Transaction,
  // which buffers writes locally (no lock, no WAL traffic) and records a
  // readset of (row, observed-validity) pairs.

  /// Commits one transaction's ops on this table. Takes the exclusive lock
  /// once: re-checks every readset entry against the current validity
  /// bitmap, and on a mismatch returns Status::Aborted — nothing applied,
  /// nothing logged. On success every op is stamped with ONE fresh commit
  /// timestamp (AdvanceClock under the lock), applied in `ops` order, and
  /// journaled as ONE kTxnCommit WAL record — so the commit is atomic
  /// three ways: to concurrent snapshots (the exclusive lock), in the
  /// timestamp history (one commit ts), and across crash/recovery (one
  /// CRC'd record, framed before the lock is taken).
  ///
  /// Validation is readset-only (first-updater-wins is opted into by
  /// reading a row's validity before updating it); the writes themselves
  /// are liberal, mirroring the single-row API: an update whose target is
  /// already invalid still appends the new version, a delete of a dead or
  /// out-of-range row is a no-op. That keeps WAL replay — which re-commits
  /// each logged transaction here with an empty readset — byte-identical
  /// to the live apply. Every insert and update op must carry
  /// num_columns() keys (DM_CHECKed before anything is framed or locked).
  Status CommitTxnOps(std::span<const TxnOp> ops,
                      std::span<const TxnRead> readset) DM_EXCLUDES(mu_);

  /// Validates `readset` only — one shared-lock acquisition, no writes, no
  /// journal traffic. Returns true iff every observation still holds. Used
  /// by cross-segment commits that hold the segment's external commit lock:
  /// validation here stays true for the duration of that hold, because
  /// every validity mutation of a partitioned segment goes through the
  /// same commit lock.
  bool ValidateReadset(std::span<const TxnRead> readset) const
      DM_EXCLUDES(mu_);

  /// Transaction commits/aborts (PartitionedTable::txn_stats).
  struct TxnStats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
  };

  // --- read path ---
  uint64_t GetKey(size_t col, uint64_t row) const DM_EXCLUDES(mu_);
  uint64_t CountEquals(size_t col, uint64_t key) const DM_EXCLUDES(mu_);
  uint64_t CountRange(size_t col, uint64_t lo, uint64_t hi) const
      DM_EXCLUDES(mu_);
  uint64_t SumColumn(size_t col) const DM_EXCLUDES(mu_);

  // --- snapshot reads (§3's online property, made precise) ---

  /// Pins the current epoch and captures a consistent view: every read on
  /// the returned Snapshot answers as of this instant, regardless of
  /// concurrent inserts, deletes, or merge commits. Cost: one slot CAS plus
  /// a per-column pointer capture under a brief shared lock. The snapshot
  /// must be released (destroyed) before the table is; partition
  /// generations a merge supersedes stay allocated until every snapshot
  /// pinned before the commit drains.
  Snapshot CreateSnapshot() const DM_EXCLUDES(mu_);

  /// The table's epoch/reclamation registry — exposed for the merge daemon
  /// and tests to observe retire/reclaim behaviour and to drive the
  /// column-level merge protocol directly.
  EpochManager& epoch_manager() const { return epochs_; }

  // --- cooperative scan sharing (query/shared_scan.h) ---
  /// When enabled, snapshots created afterwards enroll their main-partition
  /// CountEquals/CountRange sweeps at the table's ScanGate, batching
  /// compatible concurrent queries into one pass. Off by default (a solo
  /// query pays a small enrollment cost for no sharing win). Affects only
  /// snapshots created after the call; existing snapshots keep the policy
  /// they captured.
  void EnableSharedScans(bool on) {
    shared_scans_.store(on, std::memory_order_relaxed);
  }
  bool shared_scans_enabled() const {
    return shared_scans_.load(std::memory_order_relaxed);
  }
  query::ScanGate::Stats shared_scan_stats() const {
    return scan_gate_.stats();
  }

  // --- merge ---

  /// Un-merged tuples: column 0's active delta (every column receives
  /// every row).
  uint64_t delta_rows() const DM_EXCLUDES(mu_);

  /// Column 0's main and active-delta tuple counts, N_M and N_D of §4's
  /// merge trigger, read together under one shared lock (writers mutate
  /// them under the exclusive lock).
  struct DeltaFill {
    uint64_t main_rows = 0;
    uint64_t delta_rows = 0;
  };
  DeltaFill delta_fill() const DM_EXCLUDES(mu_);

  /// Runs the full online merge: freeze -> per-column merges -> commit.
  /// Returns an error if a merge is already in progress.
  Result<TableMergeReport> Merge(const TableMergeOptions& options)
      DM_EXCLUDES(mu_);

  /// Tombstone-compaction checkpoint: re-serializes the *unchanged* main
  /// plus the current validity bits into a fresh checkpoint, rotating the
  /// WAL at the capture instant — no merge work, no writer stall beyond
  /// the brief freeze-style lock. Legal only with a journal attached and
  /// an empty delta (the checkpoint format carries main partitions only;
  /// a delta row's record below the rotated replay LSN would be silently
  /// dropped by recovery) — i.e. for sealed segments after their final
  /// merge, where only tombstones ever arrive. Takes the merge slot for
  /// the capture, so it cannot interleave with a merge's freeze/commit.
  /// Returns the new checkpoint's replay LSN.
  Result<uint64_t> CompactCheckpoint() DM_EXCLUDES(mu_);

  // --- durability (optional; see core/durability_hooks.h, src/persist) ---

  /// Attaches (or, with nullptr, detaches) the write-ahead journal. Every
  /// subsequent mutation is logged through it before being applied and
  /// acknowledged only once durable per its sync policy; every merge commit
  /// hands it a checkpoint capture. Attach/detach only while no writer,
  /// reader, or merge is concurrently active (open/close time) — the hook
  /// pointer itself is then published by the table lock.
  void AttachJournal(TableJournal* journal) DM_EXCLUDES(mu_);
  TableJournal* journal() const DM_EXCLUDES(mu_);

  /// Cycles spent inside delta inserts since the last ResetCounters() — the
  /// T_U term of Eq. 1.
  uint64_t delta_update_cycles() const {
    return delta_update_cycles_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    delta_update_cycles_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Invalidation at commit timestamp `ts` under the exclusive lock +
  /// opportunistic tombstone-log prune (bounded by the oldest pinned
  /// snapshot's read timestamp; see validity.h).
  void InvalidateLocked(uint64_t row, uint64_t ts) DM_REQUIRES(mu_);

  /// The transaction commit body: readset validation, then stamp + apply +
  /// journal. Factored out so the lock requirement is explicit — calling
  /// it without the exclusive lock is a compile error under
  /// -Werror=thread-safety (tests/static_analysis proves it).
  Status CommitTxnLocked(std::span<const TxnOp> ops,
                         std::span<const TxnRead> readset,
                         const PreparedBatch* prepared, uint64_t* out_lsn)
      DM_REQUIRES(mu_);

  /// columns_[col], DM_CHECKed: column ids come from callers.
  const ColumnBase& CheckedColumn(size_t col) const;

  /// Builds the checkpoint capture for the merge that just committed
  /// (caller holds the exclusive lock and has already pinned an epoch).
  CheckpointCapture BuildCheckpointCaptureLocked(uint64_t replay_lsn) const
      DM_REQUIRES(mu_);

  Schema schema_;
  /// The vector itself is structurally fixed after construction (FromColumns
  /// swaps it in before the table is published); the *columns* it points to
  /// are mutated only under mu_ exclusive and scanned under mu_ shared or
  /// via epoch-pinned immutable views — a per-pointee convention the
  /// analysis cannot express on a vector of unique_ptrs, enforced by review.
  std::vector<std::unique_ptr<ColumnBase>> columns_;
  ValidityVector validity_ DM_GUARDED_BY(mu_);
  mutable SharedMutex mu_;
  mutable EpochManager epochs_;
  /// Cooperative scan gate (internally synchronized) + the opt-in flag
  /// consulted at snapshot creation.
  mutable query::ScanGate scan_gate_;
  std::atomic<bool> shared_scans_{false};
  TableJournal* journal_ DM_GUARDED_BY(mu_) = nullptr;
  std::atomic<uint64_t> delta_update_cycles_{0};
  std::atomic<bool> merge_running_{false};
};

}  // namespace deltamerge
