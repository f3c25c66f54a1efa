// Copyright (c) 2026 The DeltaMerge Authors.

#include "core/table.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/cycle_clock.h"

namespace deltamerge {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  DM_CHECK_MSG(!schema_.columns.empty(), "a table needs at least one column");
  columns_.reserve(schema_.columns.size());
  for (const ColumnSpec& spec : schema_.columns) {
    columns_.push_back(MakeColumn(spec.value_width));
  }
}

Table::~Table() {
  DM_CHECK_MSG(epochs_.pinned_count() == 0,
               "Table destroyed while snapshots are still pinned");
}

std::unique_ptr<Table> Table::FromColumns(
    Schema schema, std::vector<std::unique_ptr<ColumnBase>> columns) {
  const uint64_t rows = columns.empty() ? 0 : columns[0]->size();
  ValidityVector validity;
  validity.Append(rows);
  return FromColumns(std::move(schema), std::move(columns),
                     std::move(validity));
}

std::unique_ptr<Table> Table::FromColumns(
    Schema schema, std::vector<std::unique_ptr<ColumnBase>> columns,
    ValidityVector validity) {
  auto t = std::make_unique<Table>(schema);
  DM_CHECK_MSG(columns.size() == t->columns_.size(),
               "column count does not match schema");
  const uint64_t rows = columns.empty() ? 0 : columns[0]->size();
  for (size_t i = 0; i < columns.size(); ++i) {
    DM_CHECK_MSG(columns[i]->value_width() == schema.columns[i].value_width,
                 "column width does not match schema");
    DM_CHECK_MSG(columns[i]->size() == rows, "columns have unequal row counts");
  }
  DM_CHECK_MSG(validity.size() == rows,
               "validity vector does not span the column rows");
  {
    // The table is not yet published, but validity_ is a guarded member:
    // take the writer lock so the assignment is well-formed under the
    // analysis (cold path — one uncontended acquisition per table build).
    WriterMutexLock lock(t->mu_);
    t->columns_ = std::move(columns);
    t->validity_ = std::move(validity);
  }
  return t;
}

uint64_t Table::num_rows() const {
  ReaderMutexLock lock(mu_);
  return validity_.size();
}

uint64_t Table::valid_rows() const {
  ReaderMutexLock lock(mu_);
  return validity_.valid_count();
}

size_t Table::memory_bytes() const {
  ReaderMutexLock lock(mu_);
  size_t total = 0;
  for (const auto& c : columns_) total += c->memory_bytes();
  return total;
}

uint64_t Table::InsertRow(std::span<const uint64_t> keys) {
  DM_CHECK_MSG(keys.size() == columns_.size(),
               "key count does not match column count");
  TableJournal* journal = nullptr;
  uint64_t lsn = 0;
  uint64_t row;
  {
    WriterMutexLock lock(mu_);
    journal = journal_;
    if (journal != nullptr) lsn = journal->LogInsert(keys);
    const uint64_t t0 = CycleClock::Now();
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c]->InsertKey(keys[c]);
    }
    // No reader depends on this clock bump: only tombstones carry
    // timestamps, and a snapshot captured earlier holds a smaller row
    // count, so its horizon hides the new row. It keeps every commit
    // advancing the clock, as EpochManager's commit-clock contract says.
    epochs_.AdvanceClock();
    row = validity_.Append(1);
    delta_update_cycles_.fetch_add(CycleClock::Now() - t0,
                                   std::memory_order_relaxed);
  }
  if (journal != nullptr) journal->Acknowledge(lsn);
  return row;
}

uint64_t Table::InsertRows(std::span<const uint64_t> row_major_keys,
                           uint64_t num_rows, TaskQueue* queue) {
  const size_t nc = columns_.size();
  DM_CHECK_MSG(row_major_keys.size() == num_rows * nc,
               "batch size does not match row count x column count");
  // Journal attach/detach is open/close-time only (see AttachJournal), so
  // the hook read here cannot race a detach; reading it *before* the
  // exclusive lock is what lets the whole batch record — header, row-major
  // key memcpy, and payload CRC — be framed with no lock held. Under the
  // lock the journal takes one buffered append per record (PreparedBatch +
  // Crc32Combine), and the batch is covered by a single Acknowledge: group
  // commit pays one fdatasync per batch, not per row. A batch beyond the
  // journal's per-record key bound is chunked into several records (still
  // framed out here, still one Acknowledge) so a record can never outgrow
  // the WAL's frame-length field or replay's cap on it; each chunk stays
  // atomic and a crash recovers a chunk prefix — all unacknowledged.
  TableJournal* journal = this->journal();
  std::vector<PreparedBatch> batches;
  if (journal != nullptr && num_rows > 0) {
    const uint64_t chunk_rows =
        std::max<uint64_t>(1, journal->MaxBatchKeys() / nc);
    for (uint64_t r = 0; r < num_rows; r += chunk_rows) {
      const uint64_t n = std::min(chunk_rows, num_rows - r);
      batches.push_back(journal->PrepareInsertBatch(
          row_major_keys.subspan(r * nc, n * nc), n, nc));
    }
  }
  uint64_t lsn = 0;
  uint64_t first;
  {
    WriterMutexLock lock(mu_);
    for (const PreparedBatch& batch : batches) {
      lsn = journal->LogInsertBatch(batch);
    }
    const uint64_t t0 = CycleClock::Now();
    // Each column takes the batch as one batch insert: its delta tree sorts
    // the column's keys once instead of descending once per row.
    if (queue == nullptr) {
      for (size_t c = 0; c < nc; ++c) {
        columns_[c]->InsertKeys(row_major_keys, c, nc);
      }
    } else {
      // Delta-update parallelization (§7.2): one task per column applies the
      // whole batch. Columns are independent, so no further locking is
      // needed.
      for (size_t c = 0; c < nc; ++c) {
        queue->Submit([this, row_major_keys, nc, c] {
          columns_[c]->InsertKeys(row_major_keys, c, nc);
        });
      }
      queue->WaitAll();
    }
    // As in InsertRow, nothing reads this bump; the horizon hides the batch.
    epochs_.AdvanceClock();
    first = validity_.Append(num_rows);
    delta_update_cycles_.fetch_add(CycleClock::Now() - t0,
                                   std::memory_order_relaxed);
  }
  // One durability wait covers the whole batch: the single batch record
  // must be durable before any of its rows count as acknowledged.
  if (journal != nullptr && num_rows > 0) journal->Acknowledge(lsn);
  return first;
}

uint64_t Table::UpdateRow(uint64_t row, std::span<const uint64_t> keys) {
  DM_CHECK_MSG(keys.size() == columns_.size(),
               "key count does not match column count");
  TableJournal* journal = nullptr;
  uint64_t lsn = 0;
  uint64_t new_row;
  {
    WriterMutexLock lock(mu_);
    journal = journal_;
    if (journal != nullptr) lsn = journal->LogUpdate(row, keys);
    const uint64_t t0 = CycleClock::Now();
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c]->InsertKey(keys[c]);
    }
    // One commit timestamp covers both halves of the update — the new
    // version and the old one's tombstone switch atomically at ts in every
    // snapshot's history (the new row by the snapshot's row-count horizon).
    const uint64_t ts = epochs_.AdvanceClock();
    new_row = validity_.Append(1);
    if (row < new_row) InvalidateLocked(row, ts);
    delta_update_cycles_.fetch_add(CycleClock::Now() - t0,
                                   std::memory_order_relaxed);
  }
  if (journal != nullptr) journal->Acknowledge(lsn);
  return new_row;
}

Status Table::DeleteRow(uint64_t row) {
  TableJournal* journal = nullptr;
  uint64_t lsn = 0;
  {
    WriterMutexLock lock(mu_);
    if (row >= validity_.size()) {
      return Status::OutOfRange("row id beyond table size");
    }
    journal = journal_;
    if (journal != nullptr) lsn = journal->LogDelete(row);
    InvalidateLocked(row, epochs_.AdvanceClock());
  }
  if (journal != nullptr) journal->Acknowledge(lsn);
  return Status::OK();
}

void Table::InvalidateLocked(uint64_t row, uint64_t ts) {
  validity_.Invalidate(row, ts);
  // Keep the tombstone log bounded: drop every entry at or below the
  // oldest pinned snapshot's read timestamp (such entries answer "invalid"
  // whether present or pruned). Safe under the exclusive lock — a snapshot
  // pins its slot (read ts 0, "unknown", which blocks pruning) before
  // taking the shared lock to capture and publish its real read ts, so any
  // capture still in flight holds the minimum at 0 and a capture that
  // starts later observes the post-prune state. With nothing pinned the
  // minimum is UINT64_MAX and the whole log drops.
  constexpr uint64_t kTombstonePruneThreshold = 4096;
  if (validity_.tombstone_log_size() >= kTombstonePruneThreshold) {
    validity_.PruneTombstonesBefore(epochs_.MinPinnedReadTs());
  }
}

// ---------------------------------------------------------------------------
// Optimistic multi-row transactions
// ---------------------------------------------------------------------------

Status Table::CommitTxnOps(std::span<const TxnOp> ops,
                           std::span<const TxnRead> readset) {
  for (const TxnOp& op : ops) {
    DM_CHECK_MSG(op.kind == TxnOp::Kind::kDelete ||
                     op.keys.size() == columns_.size(),
                 "txn op key count does not match column count");
  }
  // Frame the commit record with NO lock held (like PrepareInsertBatch) —
  // optimistically: an abort wastes the encode, a commit never pays it
  // inside the critical section.
  TableJournal* journal = this->journal();
  PreparedBatch prepared;
  if (journal != nullptr && !ops.empty()) {
    prepared = journal->PrepareTxnCommit(ops, num_columns());
  }
  uint64_t lsn = 0;
  Status st;
  {
    WriterMutexLock lock(mu_);
    st = CommitTxnLocked(ops, readset,
                         journal != nullptr ? &prepared : nullptr, &lsn);
    journal = journal_;  // the attach may have changed since begin
  }
  if (st.ok() && journal != nullptr && lsn != 0) journal->Acknowledge(lsn);
  return st;
}

bool Table::ValidateReadset(std::span<const TxnRead> readset) const {
  ReaderMutexLock lock(mu_);
  for (const TxnRead& e : readset) {
    const bool valid = e.row < validity_.size() && validity_.IsValid(e.row);
    if (valid != e.observed_valid) return false;
  }
  return true;
}

Status Table::CommitTxnLocked(std::span<const TxnOp> ops,
                              std::span<const TxnRead> readset,
                              const PreparedBatch* prepared,
                              uint64_t* out_lsn) {
  // Validate: every readset observation must still hold. Rows never
  // disappear (the table is insert-only), so a recorded row id is always
  // in range — unless it was recorded against a size the table has not
  // reached yet, which cannot happen (reads observe committed state).
  for (const TxnRead& e : readset) {
    const bool valid = e.row < validity_.size() && validity_.IsValid(e.row);
    if (valid != e.observed_valid) {
      return Status::Aborted("transaction readset conflict");
    }
  }
  if (ops.empty()) return Status::OK();
  // Log before mutating (the single-row discipline): the WAL sequence is
  // the authoritative serialization of the write history.
  if (journal_ != nullptr && prepared != nullptr) {
    *out_lsn = journal_->LogTxnCommit(*prepared);
  }
  // One commit timestamp for the whole transaction: every inserted row and
  // every tombstone it creates switches visibility atomically at `ts`.
  const uint64_t ts = epochs_.AdvanceClock();
  const uint64_t t0 = CycleClock::Now();
  for (const TxnOp& op : ops) {
    switch (op.kind) {
      case TxnOp::Kind::kInsert: {
        for (size_t c = 0; c < columns_.size(); ++c) {
          columns_[c]->InsertKey(op.keys[c]);
        }
        validity_.Append(1);
        break;
      }
      case TxnOp::Kind::kUpdate: {
        for (size_t c = 0; c < columns_.size(); ++c) {
          columns_[c]->InsertKey(op.keys[c]);
        }
        const uint64_t new_row = validity_.Append(1);
        // Liberal write, mirroring UpdateRow: an out-of-range or already-
        // dead target degrades to a plain insert of the new version.
        if (op.target_row < new_row) InvalidateLocked(op.target_row, ts);
        break;
      }
      case TxnOp::Kind::kDelete: {
        // Liberal write: deleting a dead or out-of-range row is a no-op
        // (replay must accept what the live commit accepted).
        if (op.target_row < validity_.size()) {
          InvalidateLocked(op.target_row, ts);
        }
        break;
      }
    }
  }
  delta_update_cycles_.fetch_add(CycleClock::Now() - t0,
                                 std::memory_order_relaxed);
  return Status::OK();
}

Snapshot Table::CreateSnapshot() const {
  // Pin first, capture second: any generation retired after this point
  // carries an epoch tag >= ours and therefore outlives this snapshot.
  const uint32_t slot = epochs_.Pin();
  const uint64_t pinned_epoch = epochs_.current_epoch();
  ReaderMutexLock lock(mu_);
  Snapshot snap(&epochs_, slot, pinned_epoch, &mu_, &validity_);
  snap.visible_rows_ = validity_.size();
  snap.valid_rows_ = validity_.valid_count();
  // The read timestamp must be taken under the lock, with the row count:
  // every commit already applied advanced the clock to its own timestamp
  // before releasing the exclusive lock (so its tombstones read as visible
  // here), and every later commit will advance past this value before
  // stamping (so its tombstones read as invisible) and appends its rows at
  // or past visible_rows_ (so the horizon hides them).
  snap.read_ts_ = epochs_.current_epoch();
  if (shared_scans_.load(std::memory_order_relaxed)) {
    snap.gate_ = &scan_gate_;
  }
  snap.cols_.reserve(columns_.size());
  for (const auto& c : columns_) {
    snap.cols_.push_back(c->CaptureView(snap.visible_rows_));
  }
  // Publish the read ts so tombstone pruning can advance past every entry
  // this snapshot will never consult.
  epochs_.PublishPinnedReadTs(slot, snap.read_ts_);
  return snap;
}

bool Table::IsRowValid(uint64_t row) const {
  ReaderMutexLock lock(mu_);
  return row < validity_.size() && validity_.IsValid(row);
}

const ColumnBase& Table::CheckedColumn(size_t col) const {
  DM_CHECK_MSG(col < columns_.size(), "column index out of range");
  return *columns_[col];
}

uint64_t Table::GetKey(size_t col, uint64_t row) const {
  const ColumnBase& c = CheckedColumn(col);
  ReaderMutexLock lock(mu_);
  DM_CHECK_MSG(row < validity_.size(), "row id beyond table size");
  return c.GetKey(row);
}

uint64_t Table::CountEquals(size_t col, uint64_t key) const {
  return CountRange(col, key, key);
}

// The non-snapshot aggregates add up the parts of one view of the column
// under a single shared-lock hold: no epoch pin, no views of other columns.
uint64_t Table::CountRange(size_t col, uint64_t lo, uint64_t hi) const {
  const ColumnBase& c = CheckedColumn(col);
  ReaderMutexLock lock(mu_);
  const std::unique_ptr<ColumnReadView> view = c.CaptureView(c.size());
  uint64_t n = 0;
  for (const auto part : ColumnReadView::kParts) {
    n += view->Count(part, lo, hi, nullptr);
  }
  return n;
}

uint64_t Table::SumColumn(size_t col) const {
  const ColumnBase& c = CheckedColumn(col);
  ReaderMutexLock lock(mu_);
  const std::unique_ptr<ColumnReadView> view = c.CaptureView(c.size());
  uint64_t sum = 0;
  for (const auto part : ColumnReadView::kParts) {
    sum += view->Sum(part, nullptr);
  }
  return sum;
}

uint64_t Table::delta_rows() const {
  ReaderMutexLock lock(mu_);
  // All columns receive every row, so any column's delta size is the count.
  return columns_.empty() ? 0 : columns_[0]->delta_size();
}

Table::DeltaFill Table::delta_fill() const {
  ReaderMutexLock lock(mu_);
  if (columns_.empty()) return {};
  return {columns_[0]->main_size(), columns_[0]->delta_size()};
}

void Table::AttachJournal(TableJournal* journal) {
  WriterMutexLock lock(mu_);
  journal_ = journal;
}

TableJournal* Table::journal() const {
  ReaderMutexLock lock(mu_);
  return journal_;
}

CheckpointCapture Table::BuildCheckpointCaptureLocked(
    uint64_t replay_lsn) const {
  // Shape and column serializers only — the validity bits come from the
  // freeze instant (see Merge), because the checkpoint must reflect
  // exactly the records below replay_lsn.
  CheckpointCapture cap;
  cap.replay_lsn = replay_lsn;
  cap.main_rows = columns_.empty() ? 0 : columns_[0]->main_size();
  cap.columns.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    cap.columns.push_back({columns_[i]->value_width(),
                           schema_.columns[i].name,
                           columns_[i]->CaptureMainSerializer()});
  }
  return cap;
}

Result<TableMergeReport> Table::Merge(const TableMergeOptions& options) {
  bool expected = false;
  if (!merge_running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("a merge is already in progress");
  }

  const uint64_t t0 = CycleClock::Now();
  TableMergeReport report;

  // Phase A (brief exclusive lock): freeze every column's delta. With a
  // journal attached, the freeze instant also rotates the WAL: records
  // before it describe rows this merge folds into main (the checkpoint will
  // cover them), records after it are the post-checkpoint replay tail. The
  // checkpoint's validity bits are captured HERE, not at commit: they must
  // reflect exactly the records below replay_lsn — a tombstone applied
  // in-memory during the merge body belongs to the replay tail, and baking
  // it into the checkpoint would make recovery reflect a record that may
  // never have become durable (not a prefix of the logged history).
  TableJournal* journal = nullptr;
  uint64_t replay_lsn = 0;
  std::vector<uint64_t> freeze_validity_words;
  uint64_t freeze_commit_clock = 0;
  uint64_t freeze_rows = 0;
  uint64_t freeze_valid_rows = 0;
  {
    WriterMutexLock lock(mu_);
    journal = journal_;
    for (auto& c : columns_) c->FreezeDelta();
    report.rows_merged = columns_.empty() ? 0 : columns_[0]->frozen_size();
    if (journal != nullptr) {
      replay_lsn = journal->OnMergeFreezeLocked();
      // At the freeze instant the fresh active delta is empty, so every
      // existing row is about to be folded into the new main: the full
      // validity prefix is exactly what the checkpoint covers. The commit
      // clock rides along so recovery keeps timestamps monotone; rows carry
      // no timestamp to save.
      freeze_rows = validity_.size();
      freeze_validity_words = validity_.CopyWordsPrefix(freeze_rows);
      freeze_commit_clock = epochs_.current_epoch();
      freeze_valid_rows = validity_.valid_count();
    }
  }

  // Phase B (no lock): merge each column against its frozen snapshot.
  // Inserts continue into the fresh active deltas; readers see main +
  // frozen + active.
  if (options.parallelism == MergeParallelism::kColumnTasks &&
      options.num_threads > 1) {
    TaskQueue queue(options.num_threads);
    std::mutex stats_mu;
    for (auto& c : columns_) {
      ColumnBase* col = c.get();
      queue.Submit([col, &options, &stats_mu, &report] {
        MergeStats s = col->PrepareMerge(options.merge, nullptr);
        std::lock_guard<std::mutex> g(stats_mu);
        report.stats.Accumulate(s);
      });
    }
    queue.WaitAll();
  } else if (options.parallelism == MergeParallelism::kIntraColumn &&
             options.num_threads > 1) {
    ThreadTeam team(options.num_threads);
    for (auto& c : columns_) {
      report.stats.Accumulate(c->PrepareMerge(options.merge, &team));
      if (options.inter_column_delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options.inter_column_delay_us));
      }
    }
  } else {
    for (auto& c : columns_) {
      report.stats.Accumulate(c->PrepareMerge(options.merge, nullptr));
      if (options.inter_column_delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options.inter_column_delay_us));
      }
    }
  }

  // Phase C (brief exclusive lock): atomically install all merged mains.
  // Superseded generations are retired, not destroyed — snapshots pinned
  // before this instant may still be scanning them.
  //
  // With a journal attached, pin an epoch *before* the lock (Pin can spin
  // for a free slot; never do that under the exclusive lock) so the newly
  // installed mains survive later commits while the checkpoint serializes
  // them lock-free.
  uint32_t ckpt_slot = 0;
  if (journal != nullptr) ckpt_slot = epochs_.Pin();
  CheckpointCapture capture;
  {
    WriterMutexLock lock(mu_);
    for (auto& c : columns_) c->CommitMerge(&epochs_);
    if (journal != nullptr) {
      capture = BuildCheckpointCaptureLocked(replay_lsn);
      DM_CHECK_MSG(capture.main_rows == freeze_rows,
                   "merged main does not match the freeze-instant rows");
      capture.validity_words = std::move(freeze_validity_words);
      capture.commit_clock = freeze_commit_clock;
      capture.valid_main_rows = freeze_valid_rows;
      capture.AdoptPin(&epochs_, ckpt_slot);
      // Publish UINT64_MAX — "consults nothing" — so the pin never blocks
      // tombstone pruning (the capture carries its own validity copy).
      epochs_.PublishPinnedReadTs(ckpt_slot, UINT64_MAX);
    }
  }
  epochs_.ReclaimExpired();

  report.wall_cycles = CycleClock::Now() - t0;
  // Release the merge slot BEFORE the checkpoint I/O: the capture's epoch
  // pin keeps the serialized mains alive even if the next merge commits
  // while the file is still being written, so checkpoint latency must not
  // throttle the merge cadence (the journal serializes concurrent
  // checkpoint writes internally).
  merge_running_.store(false);
  if (journal != nullptr) {
    journal->OnMergeCommitted(std::move(capture));
  }
  return report;
}

Result<uint64_t> Table::CompactCheckpoint() {
  // Take the merge slot for the whole capture: the freeze/commit sections
  // of a concurrent merge must not interleave with the rotation (the
  // replay LSN would no longer cleanly partition the history), and the
  // slot also guarantees no frozen delta exists while we hold it.
  bool expected = false;
  if (!merge_running_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("a merge is already in progress");
  }
  // Pin before the lock (Pin can spin for a free slot; never do that under
  // the exclusive lock) so the captured mains survive later merge commits
  // while the checkpoint serializes lock-free.
  const uint32_t ckpt_slot = epochs_.Pin();
  CheckpointCapture capture;
  TableJournal* journal = nullptr;
  Status precondition = Status::OK();
  {
    WriterMutexLock lock(mu_);
    journal = journal_;
    const uint64_t delta_tuples =
        columns_.empty() ? 0
                         : columns_[0]->delta_size() + columns_[0]->frozen_size();
    if (journal == nullptr) {
      precondition = Status::FailedPrecondition(
          "compaction checkpoint requires an attached journal");
    } else if (delta_tuples != 0) {
      precondition = Status::FailedPrecondition(
          "compaction checkpoint requires an empty delta (merge first)");
    } else {
      // Same freeze discipline as a merge: rotate the WAL so records below
      // the returned LSN are exactly the ones this checkpoint covers, then
      // capture the validity bits at the very same instant. Unlike a merge
      // there is no body for tombstones to race — the whole capture sits
      // inside one critical section.
      const uint64_t replay_lsn = journal->OnMergeFreezeLocked();
      capture = BuildCheckpointCaptureLocked(replay_lsn);
      DM_CHECK_MSG(capture.main_rows == validity_.size(),
                   "compaction capture must cover every row (empty delta)");
      capture.validity_words = validity_.CopyWordsPrefix(validity_.size());
      capture.commit_clock = epochs_.current_epoch();
      capture.valid_main_rows = validity_.valid_count();
      capture.AdoptPin(&epochs_, ckpt_slot);
      // Publish UINT64_MAX — "consults nothing" — so the pin never blocks
      // tombstone pruning (the capture carries its own validity copy).
      epochs_.PublishPinnedReadTs(ckpt_slot, UINT64_MAX);
    }
  }
  if (!precondition.ok()) {
    epochs_.Unpin(ckpt_slot);
    merge_running_.store(false);
    return precondition;
  }
  const uint64_t replay_lsn = capture.replay_lsn;
  // Release the merge slot BEFORE the checkpoint I/O (the discipline Merge
  // documents): the capture's epoch pin keeps the serialized mains alive
  // even if a merge commits while the file is still being written.
  merge_running_.store(false);
  DM_RETURN_NOT_OK(journal->OnCompactionCheckpoint(std::move(capture)));
  return replay_lsn;
}

}  // namespace deltamerge
