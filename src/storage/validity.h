// Copyright (c) 2026 The DeltaMerge Authors.
// ValidityVector: the insert-only table's tombstone bitmap + row timestamps.
//
// "Updates are always modeled as new inserts and deletes only invalidate
// rows. We keep the insertion order of tuples and only the lastly inserted
// version is valid." (paper §3). One bit per table row; set = visible.
//
// MVCC support (Hekaton-style, Larson et al.): every row carries the commit
// timestamp of the write that inserted it, and every invalidation is logged
// with the commit timestamp of the write that killed it. A reader that
// captured read timestamp R reconstructs the bitmap as of R in O(1) per
// row: the row existed at R iff insert_ts <= R, and was still alive iff its
// bit is set now or its invalidation timestamp is > R. Timestamps come from
// the table's commit clock (EpochManager): every committing write advances
// the clock and stamps with the NEW value, so they are strictly monotone in
// commit order — which makes the tombstone log monotone too, and pruning a
// prefix of it sound. Timestamp 0 is the "outside any snapshot's history"
// sentinel: a ts-0 insert is visible to every read timestamp, a ts-0
// invalidation to none. A committing write never stamps 0, but every row a
// checkpoint restores carries it: no snapshot survives a restart, so none
// can precede those rows (plain unit tests stamp 0 too).
//
// The log orders pruning: entries at or below every pinned snapshot's read
// timestamp answer "invalid" exactly like an absent entry, so they can be
// dropped (see Table).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/macros.h"

namespace deltamerge {

class ValidityVector {
 public:
  ValidityVector() = default;

  /// Appends `n` rows, all valid, stamped with commit timestamp `ts`.
  /// Returns the first new row id.
  uint64_t Append(uint64_t n = 1, uint64_t ts = 0);

  /// Marks a row invisible (delete / superseded version) and logs the
  /// transition at commit timestamp `ts`. Idempotent: an already-invalid
  /// row is not re-logged.
  void Invalidate(uint64_t row, uint64_t ts = 0);

  bool IsValid(uint64_t row) const {
    DM_DCHECK(row < size_);
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  uint64_t size() const { return size_; }
  uint64_t valid_count() const { return valid_count_; }

  // --- snapshot hooks -------------------------------------------------------

  /// Was `row` alive at read timestamp `read_ts`? O(1). Requires that
  /// tombstone entries above `read_ts` have not been pruned (the min-pinned
  /// prune discipline guarantees this for every live snapshot).
  bool IsValidAtTs(uint64_t row, uint64_t read_ts) const;

  /// Commit timestamp of the insert that created `row` (0 = before any
  /// snapshot: restored by a checkpoint, or appended without a stamp).
  uint64_t insert_ts(uint64_t row) const {
    DM_DCHECK(row < size_);
    return insert_ts_[row];
  }

  /// Entries currently buffered (prune-pressure signal for the owner).
  uint64_t tombstone_log_size() const { return tombstones_.size(); }

  /// Drops the whole log. Only legal while no snapshot that could consult
  /// the dropped entries is pinned.
  void PruneTombstones();

  /// Drops the log prefix whose invalidation timestamps are <= `limit_ts` —
  /// for such an entry every live read timestamp R >= limit_ts answers
  /// "invalid" whether the entry is present or pruned, so nothing a pinned
  /// snapshot could consult is lost. The log stays bounded by the span
  /// between the oldest pinned snapshot and now even under continuous
  /// reader load.
  void PruneTombstonesBefore(uint64_t limit_ts);

  /// Calls fn(row) for every valid row in order.
  template <typename Fn>
  void ForEachValid(Fn&& fn) const {
    for (uint64_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        const uint64_t row = (w << 6) + static_cast<uint64_t>(b);
        if (row < size_) fn(row);
      }
    }
  }

  void Clear();

  // --- durability (checkpoint files; see src/persist) -----------------------

  /// The words covering the first `rows` rows, with bits at or beyond `rows`
  /// cleared — what a checkpoint persists for the main-partition prefix.
  /// Cheap (one memcpy); safe to call under the table's commit lock.
  std::vector<uint64_t> CopyWordsPrefix(uint64_t rows) const;

  /// The validity bitmap AS OF read timestamp `read_ts`, for the first
  /// `rows` rows: the current words with every row whose invalidation
  /// committed after `read_ts` resurrected from the tombstone log. O(words
  /// + log-suffix). Feeds the validity-masked SIMD kernels: a snapshot
  /// copies its at-ts bitmap once under the shared lock, then sweeps the
  /// pinned main with no lock held. Requires every row < `rows` to have
  /// been inserted at or before `read_ts` (always true for a Snapshot's
  /// visible prefix — insert timestamps are monotone, which is also how
  /// the precondition is DCHECKed) and, like IsValidAtTs, that entries
  /// above `read_ts` have not been pruned.
  std::vector<uint64_t> CopyWordsAtTs(uint64_t rows, uint64_t read_ts) const;

  /// Valid rows among the first `rows` rows.
  uint64_t CountValidPrefix(uint64_t rows) const;

  /// Rebuilds a vector of `rows` rows from checkpoint words (the inverse of
  /// CopyWordsPrefix), every row stamped ts 0; the tombstone log starts
  /// empty — recovery has no pinned snapshots.
  static ValidityVector FromWords(std::vector<uint64_t> words, uint64_t rows);

 private:
  struct Tombstone {
    uint64_t row;
    uint64_t ts;  ///< commit timestamp of the invalidation
  };

  std::vector<uint64_t> words_;
  uint64_t size_ = 0;
  uint64_t valid_count_ = 0;
  /// Per-row insert commit timestamp (size_ entries).
  std::vector<uint64_t> insert_ts_;
  /// Invalidation order == commit order, so ts is monotone non-decreasing.
  std::vector<Tombstone> tombstones_;
  /// row -> its invalidation ts, for unpruned entries only.
  std::unordered_map<uint64_t, uint64_t> inv_ts_by_row_;
};

}  // namespace deltamerge
