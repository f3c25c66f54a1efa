// Copyright (c) 2026 The DeltaMerge Authors.
// DurableTable: a Table whose acknowledged writes survive a crash.
//
// Composition, not inheritance: a DurableTable owns a plain Table plus the
// durability machinery (WalWriter + DurabilityManager) wired into it via
// the TableJournal hooks of core/durability_hooks.h. Everything else — the
// write path, snapshot reads, merges — is used exactly as on an in-memory
// table; every Table::Merge of table() transparently produces a checkpoint
// on commit, because the commit hook rides inside Table::Merge. (Each
// segment of a DurablePartitionedTable is one DurableTable, so its
// PartitionedMergeDaemon checkpoints the same way.)
//
// Directory layout (one directory per table):
//
//   wal-<lsn>.log    append-only record segments; a new segment starts at
//                    every merge freeze, old ones die with the checkpoint
//   ckpt-<lsn>.dmck  merge-commit snapshots (dictionary + packed codes +
//                    validity), newest valid one wins
//
// Recovery (Open on a non-empty directory): load the newest checkpoint that
// validates, rebuild each column's main partition and the validity bits,
// then replay the WAL tail from the checkpoint's replay LSN through the
// ordinary Table write path — inserts repopulate the delta, updates and
// deletes re-invalidate (idempotently, so records straddling the freeze /
// commit window are safe to reapply). A torn final record is tolerated: it
// was never acknowledged, so dropping it preserves the contract "every
// acknowledged write recovers; nothing invented".

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/durability_hooks.h"
#include "core/table.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace deltamerge::persist {

/// TableJournal implementation: encodes mutations into WAL records and
/// turns merge commits into checkpoints. One instance per DurableTable.
class DurabilityManager final : public TableJournal {
 public:
  /// `installed_replay_lsn` seeds the install-race guard and the
  /// un-checkpointed-record count with the checkpoint recovery loaded
  /// (0 for a fresh directory): records below it are already covered on
  /// disk, everything from it to the WAL frontier is replay-tail backlog.
  DurabilityManager(std::string dir, WalWriter* wal,
                    uint64_t installed_replay_lsn = 0);

  uint64_t LogInsert(std::span<const uint64_t> keys) override;
  uint64_t LogUpdate(uint64_t old_row,
                     std::span<const uint64_t> keys) override;
  uint64_t LogDelete(uint64_t row) override;
  PreparedBatch PrepareInsertBatch(std::span<const uint64_t> row_major_keys,
                                   uint64_t num_rows,
                                   uint64_t num_columns) const override;
  uint64_t LogInsertBatch(const PreparedBatch& batch) override;
  PreparedBatch PrepareTxnCommit(std::span<const TxnOp> ops,
                                 uint64_t num_columns) const override;
  uint64_t LogTxnCommit(const PreparedBatch& txn) override;
  void Acknowledge(uint64_t lsn) override { wal_->Acknowledge(lsn); }
  uint64_t OnMergeFreezeLocked() override { return wal_->RotateSegment(); }
  void OnMergeCommitted(CheckpointCapture capture) override
      DM_EXCLUDES(checkpoint_mu_);
  Status OnCompactionCheckpoint(CheckpointCapture capture) override
      DM_EXCLUDES(checkpoint_mu_);
  uint64_t UncheckpointedRecords() const override;

  uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_failures() const {
    return checkpoint_failures_.load(std::memory_order_relaxed);
  }
  /// Validity-only installs (subset of checkpoints_written()).
  uint64_t compaction_checkpoints_written() const {
    return compaction_checkpoints_.load(std::memory_order_relaxed);
  }
  /// Post-install DropCheckpointsBefore/DropSegmentsBefore failures —
  /// stale files survive (disk cost, not a correctness loss), but an
  /// operator should know the directory stopped shrinking.
  uint64_t cleanup_failures() const {
    return cleanup_failures_.load(std::memory_order_relaxed);
  }
  /// Replay LSN of the newest durably installed checkpoint (0 if none).
  uint64_t installed_replay_lsn() const {
    return installed_replay_lsn_.load(std::memory_order_acquire);
  }

 private:
  /// Shared install body (merge and compaction checkpoints): write the
  /// file, advance the installed LSN, drop superseded checkpoints + WAL
  /// segments. Returns the write status; `installed` (optional) reports
  /// whether a new checkpoint actually landed (false when the capture lost
  /// the install race to a newer one).
  Status InstallCheckpoint(CheckpointCapture capture, bool* installed)
      DM_EXCLUDES(checkpoint_mu_);

  const std::string dir_;
  WalWriter* wal_;
  Mutex checkpoint_mu_;  ///< serializes concurrent checkpoint writes
  /// Newest durably installed checkpoint; an older capture losing the
  /// install race is skipped, not written.
  uint64_t last_installed_replay_lsn_ DM_GUARDED_BY(checkpoint_mu_) = 0;
  /// Record encode buffer. Guarded by an *external* capability — the owning
  /// table's exclusive lock, under which every Log* hook runs — which the
  /// analysis cannot name from here; enforced by the TableJournal contract.
  std::vector<uint8_t> scratch_;
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> compaction_checkpoints_{0};
  std::atomic<uint64_t> cleanup_failures_{0};
  /// Lock-free mirror of last_installed_replay_lsn_ (written under
  /// checkpoint_mu_) for UncheckpointedRecords and the stats accessor.
  std::atomic<uint64_t> installed_replay_lsn_{0};
};

struct DurableTableOptions {
  WalOptions wal;
};

/// Point-in-time durability health counters (DurableTable::durability_stats):
/// everything that used to be stderr-only, so tests and operators can assert
/// a table's checkpoint machinery never silently degraded.
struct DurabilityStats {
  uint64_t checkpoints_written = 0;     ///< merge + compaction installs
  uint64_t compaction_checkpoints = 0;  ///< validity-only subset
  uint64_t checkpoint_failures = 0;     ///< failed checkpoint writes
  uint64_t cleanup_failures = 0;        ///< failed post-install cleanups
  uint64_t installed_replay_lsn = 0;    ///< newest durable checkpoint
  /// WAL records past the installed checkpoint — what a reopen would
  /// replay right now (the sealed-segment compaction trigger input).
  uint64_t uncheckpointed_records = 0;
};

/// What recovery found; exposed for tests, tools, and operators.
struct RecoveryStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_replay_lsn = 0;
  uint64_t checkpoint_rows = 0;
  uint64_t invalid_checkpoints = 0;  ///< corrupt files skipped (older used)
  uint64_t wal_records_applied = 0;
  uint64_t wal_records_skipped = 0;
  /// Logical write operations the replayed records carried: 1 per
  /// insert/update/delete record, num_rows per kInsertBatch record. With
  /// per-row logging this equals wal_records_applied; with batches it is
  /// the row-delta sum the batch records declare.
  uint64_t wal_ops_applied = 0;
  uint64_t wal_segments = 0;
  bool torn_tail = false;
  /// Replay stopped at an LSN discontinuity (lost non-final tail); the
  /// recovered state is still an exact prefix of the logged history.
  bool lsn_gap = false;
  /// Everything with an LSN at or below this is reflected in the recovered
  /// table: checkpoint rows + replayed tail.
  uint64_t recovered_lsn = 0;
};

class DurableTable {
 public:
  /// Opens (creating if empty) the table persisted in `dir`. The schema
  /// must match what the directory holds; recovery fails loudly on a
  /// mismatch rather than reinterpreting bytes.
  static Result<std::unique_ptr<DurableTable>> Open(
      const std::string& dir, Schema schema,
      DurableTableOptions options = {});

  /// Detaches the journal and flushes + syncs the WAL (clean shutdown).
  /// Stop any merge driver on table() first.
  ~DurableTable();

  DM_DISALLOW_COPY_AND_MOVE(DurableTable);

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  const std::string& dir() const { return dir_; }
  const RecoveryStats& recovery() const { return recovery_; }
  const WalWriter& wal() const { return *wal_; }
  const DurabilityManager& durability() const { return *manager_; }
  /// Consolidated durability health counters (see DurabilityStats).
  DurabilityStats durability_stats() const;

  /// Forces an fdatasync covering every record appended so far (useful
  /// before an orderly pause under sync=none/interval).
  Status SyncWal() { return wal_->SyncNow(); }

 private:
  DurableTable(std::string dir, std::unique_ptr<Table> table,
               std::unique_ptr<WalWriter> wal, RecoveryStats recovery);

  std::string dir_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<DurabilityManager> manager_;
  RecoveryStats recovery_;
};

}  // namespace deltamerge::persist
