// Copyright (c) 2026 The DeltaMerge Authors.
// ValidityVector: the insert-only table's tombstone bitmap + tombstone log.
//
// "Updates are always modeled as new inserts and deletes only invalidate
// rows. We keep the insertion order of tuples and only the lastly inserted
// version is valid." (paper §3). One bit per table row; set = visible.
//
// MVCC support (Hekaton-style, Larson et al.): every invalidation is logged
// with the commit timestamp of the write that killed it. Rows carry no
// insert timestamp: they append in commit order, and a reader captures the
// row count under the same lock as its read timestamp R, so "the row was
// inserted at or before R" is exactly "the row lies below the captured
// count" — the begin-timestamp test, answered by the reader's horizon. Below
// that horizon a row was still alive at R iff its bit is set now or its
// invalidation timestamp is > R. Timestamps come from the table's commit
// clock (EpochManager): every committing write advances the clock and
// stamps with the NEW value, so they are strictly monotone in commit order
// — which makes the tombstone log monotone too, and pruning a prefix of it
// sound. Timestamp 0 is the "outside any snapshot's history" sentinel: a
// ts-0 invalidation reads as dead at every read timestamp. A committing
// write never stamps 0 (plain unit tests do).
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

  /// Appends `n` rows, all valid, setting their bits a word at a time.
  /// Returns the first new row id.
  uint64_t Append(uint64_t n = 1);

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

  /// Was `row` alive at read timestamp `read_ts`? O(1): reads the bit and,
  /// for an invalid row, the tombstone map. Whether the row existed at
  /// `read_ts` is the caller's horizon check — `row` must lie below the row
  /// count captured with `read_ts`. Requires that tombstone entries above
  /// `read_ts` have not been pruned (the min-pinned prune discipline
  /// guarantees this for every live snapshot).
  bool IsValidAtTs(uint64_t row, uint64_t read_ts) const;

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
  /// pinned main with no lock held. Requires `rows` to be the row count
  /// captured with `read_ts` (a Snapshot's horizon) and, like IsValidAtTs,
  /// that entries above `read_ts` have not been pruned.
  std::vector<uint64_t> CopyWordsAtTs(uint64_t rows, uint64_t read_ts) const;

  /// Valid rows among the first `rows` rows.
  uint64_t CountValidPrefix(uint64_t rows) const;

  /// Rebuilds a vector of `rows` rows from checkpoint words (the inverse of
  /// CopyWordsPrefix), taking the words as they are; the tombstone log
  /// starts empty — recovery has no pinned snapshots.
  static ValidityVector FromWords(std::vector<uint64_t> words, uint64_t rows);

 private:
  struct Tombstone {
    uint64_t row;
    uint64_t ts;  ///< commit timestamp of the invalidation
  };

  std::vector<uint64_t> words_;
  uint64_t size_ = 0;
  uint64_t valid_count_ = 0;
  /// Invalidation order == commit order, so ts is monotone non-decreasing.
  std::vector<Tombstone> tombstones_;
  /// row -> its invalidation ts, for unpruned entries only.
  std::unordered_map<uint64_t, uint64_t> inv_ts_by_row_;
};

}  // namespace deltamerge
