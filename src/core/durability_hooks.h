// Copyright (c) 2026 The DeltaMerge Authors.
// The seam between the in-memory engine (src/core) and the durability
// subsystem (src/persist): Table calls these hooks, persist implements them.
//
// The paper's architecture makes the split natural: updates only ever land
// in the write-optimized delta, so the delta is the durability frontier — a
// write-ahead record per mutation is all the logging the system needs — and
// the merge rebuilds the read-optimized main wholesale, which is exactly a
// checkpoint boundary (Larson et al. describe the same log-the-delta /
// checkpoint-the-snapshot split for main-memory stores). Core stays
// ignorant of files, fsync, and formats; it only promises ordering:
//
//   * Log* hooks are invoked under the table's exclusive lock, in mutation
//     order, *before* the in-memory mutation — the WAL sequence is the
//     authoritative serialization of the write history;
//   * Acknowledge(lsn) is invoked after the lock is released and must not
//     return until the record is durable per the configured sync policy —
//     the caller's write is "acknowledged" only after that;
//   * OnMergeFreezeLocked runs inside the merge's freeze critical section:
//     every record logged before it describes a row that the pending merge
//     will fold into the main (or a tombstone the checkpoint's validity
//     prefix will cover), every record after it belongs to the fresh active
//     delta. Its return value is the WAL position the matching checkpoint
//     replays from;
//   * OnMergeCommitted receives a CheckpointCapture of the newly installed
//     main generation, taken under the commit lock but *serialized with no
//     lock held* — an epoch pin (the PR 2 machinery) keeps the captured
//     partitions alive even if further merges commit meanwhile, so writers
//     and readers never stall on checkpoint I/O.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "util/file_io.h"
#include "util/status.h"

namespace deltamerge {

/// One buffered write inside an optimistic multi-row transaction
/// (PartitionedTable::Transaction; a segment commits its share through
/// Table::CommitTxnOps). Ops apply in buffer order at commit; an update or
/// delete may target a row id the same transaction created earlier (by then
/// the row exists). The trio mirrors the single-row write API exactly —
/// a transaction is N of these made atomic by one commit timestamp and one
/// WAL record.
struct TxnOp {
  enum class Kind : uint8_t {
    kInsert = 0,
    kUpdate = 1,
    kDelete = 2,
  };
  Kind kind = Kind::kInsert;
  uint64_t target_row = 0;     ///< update/delete: the row to invalidate
  std::vector<uint64_t> keys;  ///< insert/update: one key per column
};

/// Everything a checkpoint needs from the commit instant, decoupled from
/// the table lock: closures over the immutable new main partitions plus a
/// copy of the validity prefix they cover. Holds an epoch pin; destroying
/// (or Release()ing) the capture unpins and lets superseded generations
/// reclaim.
struct CheckpointCapture {
  struct ColumnMain {
    size_t value_width = 0;
    /// Schema name, persisted so recovery can refuse a same-shape but
    /// differently-named schema instead of silently reinterpreting bytes.
    std::string name;
    /// Serializes the captured main partition (dictionary + packed codes).
    /// Valid while the capture's epoch pin is held.
    std::function<Status(FileWriter&)> serialize;
  };

  /// WAL position this checkpoint replays from (the freeze instant).
  uint64_t replay_lsn = 0;
  /// Rows covered by the checkpoint (== every column's new main size).
  uint64_t main_rows = 0;
  uint64_t valid_main_rows = 0;
  /// Validity bits for rows [0, main_rows), captured at the *freeze*
  /// instant so they reflect exactly the records below replay_lsn —
  /// tombstones landing during the merge body belong to the replay tail
  /// (recovery applies them only if their records became durable).
  std::vector<uint64_t> validity_words;
  /// The commit clock as of the freeze instant. Recovery seeds the table's
  /// clock to at least this value, so commit timestamps stay monotone
  /// across restarts (the covered rows need none: no snapshot survives a
  /// restart, so every later one holds them below its horizon).
  uint64_t commit_clock = 0;
  std::vector<ColumnMain> columns;

  CheckpointCapture() = default;
  ~CheckpointCapture() { Release(); }
  CheckpointCapture(CheckpointCapture&& other) noexcept {
    *this = std::move(other);
  }
  CheckpointCapture& operator=(CheckpointCapture&& other) noexcept {
    if (this != &other) {
      Release();
      replay_lsn = other.replay_lsn;
      main_rows = other.main_rows;
      valid_main_rows = other.valid_main_rows;
      validity_words = std::move(other.validity_words);
      commit_clock = other.commit_clock;
      columns = std::move(other.columns);
      epochs_ = other.epochs_;
      slot_ = other.slot_;
      other.epochs_ = nullptr;
    }
    return *this;
  }
  CheckpointCapture(const CheckpointCapture&) = delete;
  CheckpointCapture& operator=(const CheckpointCapture&) = delete;

  /// Drops the epoch pin (idempotent); call as soon as serialization is
  /// done so retired generations can reclaim.
  void Release() {
    if (epochs_ != nullptr) {
      epochs_->Unpin(slot_);
      epochs_->ReclaimExpired();
      epochs_ = nullptr;
    }
  }

  bool holds_pin() const { return epochs_ != nullptr; }

  /// Table installs the pin it took before the commit lock.
  void AdoptPin(EpochManager* epochs, uint32_t slot) {
    Release();
    epochs_ = epochs;
    slot_ = slot;
  }

 private:
  EpochManager* epochs_ = nullptr;
  uint32_t slot_ = 0;
};

/// A bulk-insert journal record encoded with NO lock held: the payload
/// bytes and their CRC are precomputed by PrepareInsertBatch so the locked
/// half of a batch insert (LogInsertBatch) is one buffered append — the
/// memcpy + checksum of a large batch never rides inside the table's
/// critical section.
struct PreparedBatch {
  std::vector<uint8_t> payload;
  uint32_t payload_crc = 0;
  uint64_t num_rows = 0;
};

/// The hook interface Table drives. Implemented by
/// persist::DurabilityManager; a null journal means a purely in-memory
/// table (the default, and the PR 2 behaviour).
class TableJournal {
 public:
  virtual ~TableJournal() = default;

  /// Write-path records (under the exclusive lock, pre-mutation). Each
  /// returns the record's log sequence number for Acknowledge.
  virtual uint64_t LogInsert(std::span<const uint64_t> keys) = 0;
  virtual uint64_t LogUpdate(uint64_t old_row,
                             std::span<const uint64_t> keys) = 0;
  virtual uint64_t LogDelete(uint64_t row) = 0;

  /// Encodes a row-major insert batch into one journal record. Called with
  /// NO lock held and must be thread-safe (no shared scratch state): this
  /// is where the serialization cost of a durable bulk ingest is paid, in
  /// parallel with other writers, not under the table lock.
  virtual PreparedBatch PrepareInsertBatch(
      std::span<const uint64_t> row_major_keys, uint64_t num_rows,
      uint64_t num_columns) const = 0;

  /// Logs a prepared batch (under the exclusive lock, pre-mutation) as ONE
  /// record covering batch.num_rows rows; returns its LSN — a single
  /// Acknowledge on it covers the whole batch, so group commit pays one
  /// fdatasync per batch instead of one per row.
  virtual uint64_t LogInsertBatch(const PreparedBatch& batch) = 0;

  /// Most keys (rows x columns) one batch record may carry. InsertRows
  /// chunks a larger bulk insert into several records — each record stays
  /// atomic, the chunk sequence recovers as an ordinary record prefix, and
  /// a record can never outgrow the log's frame-length field or replay's
  /// sanity cap on it. The default (8 MiB of keys) sits far below both.
  virtual uint64_t MaxBatchKeys() const { return uint64_t{1} << 20; }

  /// Encodes a whole transaction's op list into ONE journal record. Called
  /// with NO lock held and must be thread-safe, like PrepareInsertBatch —
  /// the commit's serialization cost is paid before (and regardless of)
  /// readset validation. A transaction is never chunked (that would break
  /// its atomicity); implementations must check the op list fits one
  /// record. Journals that predate transactions keep the failing default.
  virtual PreparedBatch PrepareTxnCommit(std::span<const TxnOp> ops,
                                         uint64_t num_columns) const {
    (void)ops;
    (void)num_columns;
    DM_CHECK_MSG(false, "this journal does not support transactions");
    return {};
  }

  /// Logs a prepared transaction (under the exclusive lock, post-validation,
  /// pre-mutation) as ONE record; returns its LSN. A single Acknowledge on
  /// it makes the whole transaction durable — and the frame CRC makes it
  /// atomic on replay: a torn commit record vanishes entirely, never
  /// applies an op prefix.
  virtual uint64_t LogTxnCommit(const PreparedBatch& txn) {
    (void)txn;
    DM_CHECK_MSG(false, "this journal does not support transactions");
    return 0;
  }

  /// Blocks until record `lsn` is durable per the sync policy (no lock
  /// held). sync=none returns immediately; sync=interval leaves a bounded
  /// loss window; sync=every-commit group-commits an fdatasync.
  virtual void Acknowledge(uint64_t lsn) = 0;

  /// Merge freeze instant (under the exclusive lock): the journal rotates
  /// to a fresh WAL segment and returns the LSN that cleanly partitions
  /// pre-freeze records (covered by the upcoming checkpoint) from
  /// post-freeze ones (the replay tail).
  virtual uint64_t OnMergeFreezeLocked() = 0;

  /// Merge commit completed (no lock held): write `capture` to a snapshot
  /// file and truncate the WAL to capture.replay_lsn. Failures must leave
  /// the previous checkpoint + full WAL intact.
  virtual void OnMergeCommitted(CheckpointCapture capture) = 0;

  /// Tombstone-compaction checkpoint for a sealed, delta-free table (no
  /// lock held): same install discipline as OnMergeCommitted — the capture
  /// re-serializes the *unchanged* final-merge main plus the current
  /// validity bits, so the tombstone records accumulated since the last
  /// checkpoint stop riding in the replay tail — but the outcome is
  /// reported, because no merge ran and the caller (the compaction
  /// trigger) must know whether to back off. Failures must leave the
  /// previous checkpoint + full WAL intact.
  virtual Status OnCompactionCheckpoint(CheckpointCapture capture) {
    OnMergeCommitted(std::move(capture));
    return Status::OK();
  }

  /// Journal records logged past the newest durably installed checkpoint —
  /// what a reopen would replay right now. The compaction trigger for
  /// sealed segments watches this count (their delta never grows again, so
  /// only this backlog measures their reopen cost). Thread-safe, lock-free
  /// (polled by the merge daemon every tick).
  virtual uint64_t UncheckpointedRecords() const { return 0; }
};

}  // namespace deltamerge
