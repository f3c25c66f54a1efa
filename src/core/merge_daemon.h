// Copyright (c) 2026 The DeltaMerge Authors.
// The online-merge trigger of §4 and §9.
//
// "In our system, we trigger the merging of partitions when the number of
// tuples N_D in the delta partition is greater than a certain pre-defined
// fraction of tuples in the main partition N_M" (§4) — EvaluateMergeTrigger
// is that fill trigger, augmented with two §9-flavoured policies:
//
//   * a cost-model hint: projected merge duration (the §6/§7.4 model
//     evaluated on the table's current cardinalities) is kept under a
//     budget by merging *before* the backlog makes the merge pause longer
//     than the operator allows;
//   * a rate lookahead: the observed delta growth rate is extrapolated one
//     poll interval ahead, so a burst of updates starts the merge just
//     before — not just after — the threshold is crossed.
//
// With rate_lookahead off and no cost budget the policy is the bare §4
// trigger: N_D >= min_delta_rows && N_D > delta_fraction * N_M.
//
// The background driver is PartitionedMergeDaemon (core/partitioned_table.h):
// each poll runs PartitionedTable::MergeDueSegments, which applies this
// trigger to the open tail segment. A monolithic table is a PartitionedTable
// with segment capacity UINT64_MAX — one segment that never seals — so the
// same daemon drives it. Every merge commit retires the superseded
// generation into the segment's EpochManager: readers that pinned a snapshot
// before the commit keep a consistent view, and the old main is freed only
// when their epochs drain.

#pragma once

#include <cstdint>
#include <vector>

#include "core/table.h"
#include "model/cost_model.h"
#include "model/machine_profile.h"

namespace deltamerge {

/// Why (or that no) merge was started at a poll.
enum class MergeTrigger : uint8_t {
  kNone = 0,
  kDeltaSize,      ///< N_D > delta_fraction * N_M (§4)
  kCostBudget,     ///< projected merge time reached the budget (§9 hint)
  kRateLookahead,  ///< extrapolated N_D crosses the threshold next poll
};

struct MergeDaemonPolicy {
  /// §4's pre-defined fraction (Figure 9 uses 1%).
  double delta_fraction = 0.01;
  /// Floor so freshly created tables don't merge on every insert.
  uint64_t min_delta_rows = 1024;
  /// Merge once the §6 model projects the merge to take this long
  /// (seconds, summed over columns). 0 disables the cost hint.
  double max_projected_merge_seconds = 0.0;
  /// Extrapolate delta growth one poll ahead of the size trigger.
  bool rate_lookahead = true;
  /// Poll cadence of the watcher thread.
  uint64_t poll_interval_us = 1000;
  /// Machine model the cost hint projects against.
  MachineProfile profile = MachineProfile::Paper();
  /// Sealed-segment tombstone compaction, applied by every MergeDueSegments
  /// pass: once a sealed, final-merged segment's journal holds this many
  /// records past its newest durable checkpoint — only tombstones from
  /// later deletes/updates of its rows can accumulate there — the pass
  /// rewrites a validity-only compaction checkpoint (Table::
  /// CompactCheckpoint) so the segment's reopen replay stays bounded by
  /// this threshold instead of growing with lifetime deletes. 0 disables.
  uint64_t compact_uncheckpointed_records = 0;
};

/// Projected wall-clock seconds for merging columns of the given shapes
/// (the §6 model evaluated per column and summed), used by the kCostBudget
/// trigger (Table::column_shapes() captures them under the table lock).
double ProjectedMergeSeconds(const std::vector<Table::ColumnShape>& shapes,
                             const MachineProfile& m, int threads);

/// Pure trigger decision for one poll; `delta_rows_per_sec` is the caller's
/// current estimate of the update arrival rate (0 disables lookahead).
/// Column state is read once, consistently, via Table::column_shapes().
MergeTrigger EvaluateMergeTrigger(const Table& table,
                                  const MergeDaemonPolicy& policy,
                                  int merge_threads,
                                  double delta_rows_per_sec);

/// EWMA estimate of the delta arrival rate, kept by PartitionedMergeDaemon's
/// poll loop (watcher thread only — no internal synchronization). Merges
/// shrink the delta; only growth counts as arrival, and the smoothing
/// keeps one idle poll from erasing a burst.
class DeltaRateEstimator {
 public:
  /// Re-anchors the estimate at Start() time.
  void Reset(uint64_t delta_rows_now);

  /// Folds one poll's observation in; returns the rows-per-second
  /// estimate for the trigger's lookahead.
  double Update(uint64_t delta_rows_now);

  /// Re-anchors the row count after a merge pass shrank the delta, so the
  /// shrink is not mistaken for zero arrival next poll.
  void Rebase(uint64_t delta_rows_now) { last_delta_rows_ = delta_rows_now; }

 private:
  uint64_t last_delta_rows_ = 0;
  uint64_t last_poll_cycles_ = 0;
  double delta_rows_per_sec_ = 0.0;
};

}  // namespace deltamerge
