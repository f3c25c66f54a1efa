// Copyright (c) 2026 The DeltaMerge Authors.

#include "persist/durable_table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "parallel/task_queue.h"
#include "util/crc32.h"

namespace deltamerge::persist {

namespace {

void AppendU64(std::vector<uint8_t>* buf, uint64_t v) {
  const size_t offset = buf->size();
  buf->resize(offset + 8);
  std::memcpy(buf->data() + offset, &v, 8);
}

uint64_t ReadU64At(std::span<const uint8_t> bytes, size_t offset) {
  uint64_t v;
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

}  // namespace

// --- DurabilityManager ------------------------------------------------------

DurabilityManager::DurabilityManager(std::string dir, WalWriter* wal,
                                     uint64_t installed_replay_lsn)
    : dir_(std::move(dir)),
      wal_(wal),
      last_installed_replay_lsn_(installed_replay_lsn),
      installed_replay_lsn_(installed_replay_lsn) {
  DM_CHECK(wal_ != nullptr);
}

uint64_t DurabilityManager::LogInsert(std::span<const uint64_t> keys) {
  scratch_.clear();
  for (uint64_t k : keys) AppendU64(&scratch_, k);
  return wal_->Append(WalRecordType::kInsert, scratch_);
}

uint64_t DurabilityManager::LogUpdate(uint64_t old_row,
                                      std::span<const uint64_t> keys) {
  scratch_.clear();
  AppendU64(&scratch_, old_row);
  for (uint64_t k : keys) AppendU64(&scratch_, k);
  return wal_->Append(WalRecordType::kUpdate, scratch_);
}

uint64_t DurabilityManager::LogDelete(uint64_t row) {
  scratch_.clear();
  AppendU64(&scratch_, row);
  return wal_->Append(WalRecordType::kDelete, scratch_);
}

PreparedBatch DurabilityManager::PrepareInsertBatch(
    std::span<const uint64_t> row_major_keys, uint64_t num_rows,
    uint64_t num_columns) const {
  // No lock is held here and several threads may prepare concurrently, so
  // everything lands in the caller-owned PreparedBatch (never scratch_).
  PreparedBatch batch;
  batch.num_rows = num_rows;
  batch.payload.resize(16 + row_major_keys.size() * 8);
  std::memcpy(batch.payload.data(), &num_rows, 8);
  std::memcpy(batch.payload.data() + 8, &num_columns, 8);
  std::memcpy(batch.payload.data() + 16, row_major_keys.data(),
              row_major_keys.size() * 8);
  batch.payload_crc = Crc32(batch.payload.data(), batch.payload.size());
  return batch;
}

uint64_t DurabilityManager::LogInsertBatch(const PreparedBatch& batch) {
  return wal_->Append(WalRecordType::kInsertBatch, batch.payload,
                      batch.payload_crc);
}

PreparedBatch DurabilityManager::PrepareTxnCommit(std::span<const TxnOp> ops,
                                                  uint64_t num_columns) const {
  // Like PrepareInsertBatch: no lock held, possibly concurrent with other
  // preparers, so everything lands in the caller-owned PreparedBatch.
  // payload: u64 num_ops + u64 num_columns, then per op u64 kind +
  // u64 target_row + (insert/update) num_columns x u64 keys.
  uint64_t words = 2;
  for (const TxnOp& op : ops) {
    words += 2;
    if (op.kind != TxnOp::Kind::kDelete) {
      DM_CHECK_MSG(op.keys.size() == num_columns,
                   "txn op key count does not match column count");
      words += num_columns;
    }
  }
  // A transaction must fit in ONE record — chunking would break its
  // atomicity — so oversized op lists fail loudly instead of splitting.
  DM_CHECK_MSG(words <= 2 + MaxBatchKeys(),
               "transaction too large for one WAL record");
  PreparedBatch txn;
  txn.num_rows = ops.size();
  txn.payload.resize(words * 8);
  uint8_t* out = txn.payload.data();
  const uint64_t num_ops = ops.size();
  std::memcpy(out, &num_ops, 8);
  std::memcpy(out + 8, &num_columns, 8);
  size_t off = 16;
  for (const TxnOp& op : ops) {
    const uint64_t kind = static_cast<uint64_t>(op.kind);
    std::memcpy(out + off, &kind, 8);
    std::memcpy(out + off + 8, &op.target_row, 8);
    off += 16;
    if (op.kind != TxnOp::Kind::kDelete) {
      std::memcpy(out + off, op.keys.data(), num_columns * 8);
      off += num_columns * 8;
    }
  }
  txn.payload_crc = Crc32(txn.payload.data(), txn.payload.size());
  return txn;
}

uint64_t DurabilityManager::LogTxnCommit(const PreparedBatch& txn) {
  return wal_->Append(WalRecordType::kTxnCommit, txn.payload,
                      txn.payload_crc);
}

Status DurabilityManager::InstallCheckpoint(CheckpointCapture capture,
                                            bool* installed) {
  if (installed != nullptr) *installed = false;
  // Table::Merge releases its merge slot before calling in, so a second
  // merger can commit (and land here) while this checkpoint still writes.
  // Serialize them: concurrent writes could otherwise collide on the same
  // .tmp path when no records separate the two freezes.
  MutexLock lock(checkpoint_mu_);
  const uint64_t replay_lsn = capture.replay_lsn;
  // A capture that lost the race to a newer one must not be installed:
  // its WAL segments were already dropped by the newer checkpoint's
  // cleanup, so the stale file could only mislead a later corrupt-fallback
  // recovery into a hard "WAL gap" failure. (Equal LSNs mean an identical
  // logical state — nothing to add either.)
  if (replay_lsn <= last_installed_replay_lsn_) {
    capture.Release();
    return Status::OK();
  }
  const Status st = WriteCheckpoint(dir_, capture);
  capture.Release();  // unpin before the (slow) cleanup below
  if (!st.ok()) {
    // Keep running on the previous checkpoint + an uncut WAL: durability is
    // unaffected, only the replay tail stays longer than intended.
    checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "deltamerge: checkpoint failed: %s\n",
                 st.ToString().c_str());
    return st;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  last_installed_replay_lsn_ = replay_lsn;
  installed_replay_lsn_.store(replay_lsn, std::memory_order_release);
  if (installed != nullptr) *installed = true;
  // The new checkpoint is durably installed: everything below its replay
  // LSN is now redundant.
  Status cleanup = DropCheckpointsBefore(dir_, replay_lsn);
  if (cleanup.ok()) cleanup = wal_->DropSegmentsBefore(replay_lsn);
  if (!cleanup.ok()) {
    cleanup_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "deltamerge: checkpoint cleanup failed: %s\n",
                 cleanup.ToString().c_str());
  }
  return Status::OK();
}

void DurabilityManager::OnMergeCommitted(CheckpointCapture capture) {
  // The merge already succeeded; a failed checkpoint write only lengthens
  // the replay tail (counted + reported inside InstallCheckpoint).
  (void)InstallCheckpoint(std::move(capture), nullptr);
}

Status DurabilityManager::OnCompactionCheckpoint(CheckpointCapture capture) {
  bool installed = false;
  DM_RETURN_NOT_OK(InstallCheckpoint(std::move(capture), &installed));
  if (installed) {
    compaction_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

uint64_t DurabilityManager::UncheckpointedRecords() const {
  // Records in [max(installed, 1), frontier) are not covered by any
  // durable checkpoint: a reopen right now replays exactly them. Both
  // reads are lock-free mirrors, so the daemon can poll this every tick
  // without contending with appenders or an in-flight checkpoint write.
  const uint64_t frontier = wal_->frontier_lsn();
  uint64_t installed = installed_replay_lsn_.load(std::memory_order_acquire);
  if (installed < 1) installed = 1;  // LSNs start at 1
  return frontier > installed ? frontier - installed : 0;
}

// --- recovery ---------------------------------------------------------------

DurableTable::DurableTable(std::string dir, std::unique_ptr<Table> table,
                           std::unique_ptr<WalWriter> wal,
                           RecoveryStats recovery)
    : dir_(std::move(dir)),
      table_(std::move(table)),
      wal_(std::move(wal)),
      recovery_(recovery) {
  // Seed the installed-LSN guard with what recovery loaded: the records a
  // reopen just replayed are the un-checkpointed backlog, not zero — a
  // sealed segment's compaction trigger must keep counting across reopens.
  manager_ = std::make_unique<DurabilityManager>(
      dir_, wal_.get(), recovery_.checkpoint_replay_lsn);
  table_->AttachJournal(manager_.get());
}

DurabilityStats DurableTable::durability_stats() const {
  DurabilityStats s;
  s.checkpoints_written = manager_->checkpoints_written();
  s.compaction_checkpoints = manager_->compaction_checkpoints_written();
  s.checkpoint_failures = manager_->checkpoint_failures();
  s.cleanup_failures = manager_->cleanup_failures();
  s.installed_replay_lsn = manager_->installed_replay_lsn();
  s.uncheckpointed_records = manager_->UncheckpointedRecords();
  return s;
}

DurableTable::~DurableTable() {
  if (table_ != nullptr) table_->AttachJournal(nullptr);
  // wal_ destructor flushes + syncs (clean shutdown).
}

Result<std::unique_ptr<DurableTable>> DurableTable::Open(
    const std::string& dir, Schema schema, DurableTableOptions options) {
  DM_RETURN_NOT_OK(EnsureDir(dir));
  RecoveryStats stats;

  // 0. Sweep checkpoint temp files a crash mid-write left behind (they
  //    were never renamed into place, so they carry no information).
  {
    DM_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDir(dir));
    for (const std::string& name : names) {
      if (name.size() > 9 && name.substr(name.size() - 9) == ".dmck.tmp") {
        (void)RemoveFile(dir + "/" + name);
      }
    }
  }

  // 1. Newest checkpoint that validates; corrupt ones fall back to older
  //    files (which are only deleted after a successor became durable).
  DM_ASSIGN_OR_RETURN(const auto checkpoint_files, ListCheckpoints(dir));
  CheckpointContents checkpoint;
  std::vector<std::string> corrupt_newer;
  for (auto it = checkpoint_files.rbegin(); it != checkpoint_files.rend();
       ++it) {
    auto loaded = ReadCheckpoint(dir + "/" + it->second);
    if (loaded.ok()) {
      checkpoint = std::move(loaded).ValueOrDie();
      stats.checkpoint_loaded = true;
      break;
    }
    ++stats.invalid_checkpoints;
    corrupt_newer.push_back(it->second);
    std::fprintf(stderr, "deltamerge: skipping bad checkpoint %s: %s\n",
                 it->second.c_str(), loaded.status().ToString().c_str());
  }

  // 2. Rebuild the table from the checkpoint (or empty from the schema).
  std::unique_ptr<Table> table;
  if (stats.checkpoint_loaded) {
    stats.checkpoint_replay_lsn = checkpoint.replay_lsn;
    stats.checkpoint_rows = checkpoint.main_rows;
    if (checkpoint.columns.size() != schema.columns.size()) {
      return Status::InvalidArgument(
          "schema column count does not match checkpoint");
    }
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (checkpoint.columns[i]->value_width() !=
          schema.columns[i].value_width) {
        return Status::InvalidArgument(
            "schema column width does not match checkpoint");
      }
      if (checkpoint.column_names[i] != schema.columns[i].name) {
        return Status::InvalidArgument(
            "schema column name '" + schema.columns[i].name +
            "' does not match checkpoint column '" +
            checkpoint.column_names[i] + "'");
      }
    }
    table = Table::FromColumns(schema, std::move(checkpoint.columns),
                               std::move(checkpoint.validity));
    // Restored rows lie below every later snapshot's horizon. Seed the
    // commit clock from the checkpoint BEFORE replay so replayed tail
    // records and later commits stamp above every pre-crash timestamp: the
    // clock stays monotone across restarts.
    table->epoch_manager().EnsureClockAtLeast(checkpoint.commit_clock);
  } else {
    table = std::make_unique<Table>(schema);
  }

  // 3. Replay the WAL tail through the ordinary write path (no journal
  //    attached yet, so replay does not re-log). Invalidations that also
  //    appear in the checkpoint's validity prefix reapply idempotently.
  //
  //    First, refuse gaps: the oldest surviving segment must start at or
  //    below the LSN we replay from (segments below a checkpoint's replay
  //    LSN are deleted only after that checkpoint became durable). A later
  //    start means history is missing — e.g. the newest checkpoint was
  //    corrupt and the older one's segments are gone — and silently
  //    continuing would drop acknowledged writes.
  const size_t nc = schema.columns.size();
  const uint64_t min_lsn =
      stats.checkpoint_loaded ? checkpoint.replay_lsn : 1;
  {
    DM_ASSIGN_OR_RETURN(const auto segments, ListWalSegments(dir));
    if (!segments.empty() && segments.front().first > min_lsn) {
      return Status::Internal(
          "WAL gap: oldest segment starts after the recovery replay LSN "
          "(a corrupt or missing checkpoint?)");
    }
  }
  // The fallback succeeded (the replay history is complete from min_lsn):
  // corrupt newer checkpoint files carry nothing recoverable and would be
  // retried — with stderr noise — on every reopen until some future
  // checkpoint happens to pass their LSN. Sweep them now, mirroring what
  // the partitioned manifest path does for its corrupt_newer set.
  if (!corrupt_newer.empty()) {
    for (const std::string& name : corrupt_newer) {
      DM_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
    }
    DM_RETURN_NOT_OK(SyncDir(dir));
  }
  std::vector<uint64_t> keys(nc);
  // Batch records replay through the same column-parallel InsertRows path
  // the live write uses; the queue is created lazily so row-only logs (and
  // empty directories) never pay the worker-thread spawn.
  std::unique_ptr<TaskQueue> replay_queue;
  std::vector<uint64_t> batch_keys;
  auto replayed = ReplayWal(
      dir, min_lsn, [&](const WalRecordView& rec) -> Status {
        switch (rec.type) {
          case WalRecordType::kInsert: {
            if (rec.payload.size() != nc * 8) {
              return Status::Internal("insert record has wrong key count");
            }
            for (size_t c = 0; c < nc; ++c) {
              keys[c] = ReadU64At(rec.payload, c * 8);
            }
            table->InsertRow(keys);
            stats.wal_ops_applied += 1;
            return Status::OK();
          }
          case WalRecordType::kUpdate: {
            if (rec.payload.size() != 8 + nc * 8) {
              return Status::Internal("update record has wrong key count");
            }
            const uint64_t old_row = ReadU64At(rec.payload, 0);
            for (size_t c = 0; c < nc; ++c) {
              keys[c] = ReadU64At(rec.payload, 8 + c * 8);
            }
            // No range check: the live write path accepts (and logs) any
            // old_row — UpdateRow appends the new version and only
            // invalidates targets below the pre-append row count. Replay
            // must mirror that exactly or acknowledged updates become
            // unrecoverable.
            table->UpdateRow(old_row, keys);
            stats.wal_ops_applied += 1;
            return Status::OK();
          }
          case WalRecordType::kDelete: {
            if (rec.payload.size() != 8) {
              return Status::Internal("delete record has wrong size");
            }
            // Count only after DeleteRow succeeds: a failed open must not
            // report a stat that includes the op that failed it.
            const Status st = table->DeleteRow(ReadU64At(rec.payload, 0));
            if (st.ok()) stats.wal_ops_applied += 1;
            return st;
          }
          case WalRecordType::kInsertBatch: {
            // payload: u64 num_rows + u64 num_columns + row-major keys.
            // Every bound is checked by division against the *actual*
            // payload size (which the CRC vouches for) so a hostile or
            // colliding record can never drive an allocation or read from
            // the declared counts alone.
            if (rec.payload.size() < 16 || rec.payload.size() % 8 != 0) {
              return Status::Internal("batch record has torn header");
            }
            const uint64_t num_rows = ReadU64At(rec.payload, 0);
            const uint64_t num_cols = ReadU64At(rec.payload, 8);
            if (num_cols != nc) {
              return Status::Internal("batch record has wrong column count");
            }
            const uint64_t key_words = (rec.payload.size() - 16) / 8;
            if (key_words % nc != 0 || key_words / nc != num_rows) {
              return Status::Internal("batch record has wrong key count");
            }
            batch_keys.resize(key_words);
            std::memcpy(batch_keys.data(), rec.payload.data() + 16,
                        key_words * 8);
            if (replay_queue == nullptr && num_rows > 1) {
              const unsigned hw = std::thread::hardware_concurrency();
              replay_queue = std::make_unique<TaskQueue>(
                  static_cast<int>(std::min(4u, hw == 0 ? 1u : hw)));
            }
            table->InsertRows(batch_keys, num_rows, replay_queue.get());
            stats.wal_ops_applied += num_rows;
            return Status::OK();
          }
          case WalRecordType::kTxnCommit: {
            // payload: u64 num_ops + u64 num_columns, then per op u64 kind
            // + u64 target_row + (insert/update) num_columns x u64 keys.
            // Every bound is checked against the actual payload size (which
            // the CRC vouches for), never the declared counts alone.
            if (rec.payload.size() < 16 || rec.payload.size() % 8 != 0) {
              return Status::Internal("txn record has torn header");
            }
            const uint64_t num_ops = ReadU64At(rec.payload, 0);
            const uint64_t num_cols = ReadU64At(rec.payload, 8);
            if (num_cols != nc) {
              return Status::Internal("txn record has wrong column count");
            }
            const size_t total = rec.payload.size();
            std::vector<TxnOp> ops;
            size_t off = 16;
            for (uint64_t i = 0; i < num_ops; ++i) {
              if (off + 16 > total) {
                return Status::Internal("txn record is short an op header");
              }
              const uint64_t kind = ReadU64At(rec.payload, off);
              const uint64_t target = ReadU64At(rec.payload, off + 8);
              off += 16;
              if (kind > 2) {
                return Status::Internal("txn record has unknown op kind");
              }
              TxnOp op{static_cast<TxnOp::Kind>(kind), target, {}};
              if (op.kind != TxnOp::Kind::kDelete) {
                if (off + nc * 8 > total) {
                  return Status::Internal("txn record is short an op's keys");
                }
                op.keys.resize(nc);
                for (size_t c = 0; c < nc; ++c) {
                  op.keys[c] = ReadU64At(rec.payload, off + c * 8);
                }
                off += nc * 8;
              }
              ops.push_back(std::move(op));
            }
            if (off != total) {
              return Status::Internal("txn record has trailing bytes");
            }
            // Re-commit through the live commit step with an empty readset
            // (validation trivially passes — the record only exists because
            // the original validation passed) and no journal attached, so
            // nothing re-logs. The whole op list applies under one commit
            // timestamp, atomically — exactly the live commit.
            const Status st = table->CommitTxnOps(ops, {});
            if (st.ok()) stats.wal_ops_applied += num_ops;
            return st;
          }
        }
        return Status::Internal("unknown WAL record type");
      });
  DM_RETURN_NOT_OK(replayed.status());
  const WalReplayResult& replay = replayed.ValueOrDie();
  stats.wal_records_applied = replay.applied;
  stats.wal_records_skipped = replay.skipped;
  stats.wal_segments = replay.segments;
  stats.torn_tail = replay.torn_tail;
  stats.lsn_gap = replay.lsn_gap;
  stats.recovered_lsn =
      std::max(replay.last_lsn,
               stats.checkpoint_loaded ? checkpoint.replay_lsn - 1 : 0);

  // Replay stopped at an LSN discontinuity: the segments past the gap
  // belong to a dead timeline (their row-id arithmetic referenced history
  // that was lost). They must be deleted NOW — the new session reuses the
  // LSNs after recovered_lsn, and a later recovery would otherwise splice
  // the dead records back in the moment the sequence numbers happen to
  // line up again.
  if (replay.lsn_gap) {
    DM_ASSIGN_OR_RETURN(const auto segments, ListWalSegments(dir));
    for (const auto& [start_lsn, name] : segments) {
      if (start_lsn > stats.recovered_lsn) {
        DM_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
      }
    }
    DM_RETURN_NOT_OK(SyncDir(dir));
  }

  // 4. Continue the LSN sequence in a fresh segment; old segments stay
  //    until the next checkpoint drops them.
  const uint64_t next_lsn = stats.recovered_lsn + 1;
  DM_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal,
                      WalWriter::Open(dir, next_lsn, options.wal));

  return std::unique_ptr<DurableTable>(new DurableTable(
      dir, std::move(table), std::move(wal), stats));
}

}  // namespace deltamerge::persist
