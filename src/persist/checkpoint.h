// Copyright (c) 2026 The DeltaMerge Authors.
// Checkpoint files: the durable image of a merge commit.
//
// A checkpoint is exactly what the merge installs — each column's new main
// generation (sorted dictionary + packed codes) plus the validity bits for
// the rows it covers — tagged with the WAL LSN of the freeze instant and
// the commit clock. The dictionary is stored raw or as packed gaps,
// whichever is smaller. Rows carry no insert timestamp: every restored row
// lies below every post-restart snapshot's row-count horizon. The
// pair (newest valid checkpoint, WAL tail from its replay_lsn) is the
// complete durable state of a table; rows that live in the active delta at
// the commit instant are deliberately *not* in the file, because their WAL
// records sit at or after replay_lsn and are replayed on recovery.
//
// Crash discipline: the file is written to a .tmp name, fsynced, then
// atomically renamed to `ckpt-<replay_lsn>.dmck` (+ directory fsync). The
// whole body after the magic is covered by a trailing CRC-32; a reader that
// sees a short or CRC-failing file treats it as absent and falls back to
// the previous checkpoint, which is only deleted after the new one is
// durably installed.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/column_handle.h"
#include "core/durability_hooks.h"
#include "storage/validity.h"
#include "util/file_io.h"
#include "util/result.h"
#include "util/status.h"

namespace deltamerge::persist {

/// `ckpt-<replay_lsn>.dmck`.
std::string CheckpointFileName(uint64_t replay_lsn);

/// Serializes `capture` into `dir` with the write-tmp/fsync/rename
/// discipline. Invoked by DurabilityManager on the merging thread with no
/// table lock held (the capture's epoch pin keeps the partitions alive).
Status WriteCheckpoint(const std::string& dir,
                       const CheckpointCapture& capture);

/// A decoded checkpoint: rebuilt columns (empty deltas) + validity.
struct CheckpointContents {
  uint64_t replay_lsn = 0;
  uint64_t main_rows = 0;
  /// The commit clock at the capture instant; recovery seeds the table's
  /// clock to at least this so commit timestamps stay monotone across
  /// restarts.
  uint64_t commit_clock = 0;
  std::vector<std::unique_ptr<ColumnBase>> columns;
  std::vector<std::string> column_names;  ///< schema names, for validation
  ValidityVector validity;  ///< bits; the tombstone log starts empty
};

/// Reads and validates one checkpoint file (CRC, shape invariants).
Result<CheckpointContents> ReadCheckpoint(const std::string& path);

/// (replay_lsn, filename) of every checkpoint file in `dir`, sorted by
/// replay LSN ascending.
Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    const std::string& dir);

/// Deletes every checkpoint whose replay LSN is below `lsn` (called once a
/// newer checkpoint is durably installed).
Status DropCheckpointsBefore(const std::string& dir, uint64_t lsn);

}  // namespace deltamerge::persist
