// Copyright (c) 2026 The DeltaMerge Authors.
// Single-threaded reference model for differential tests.
//
// Replays the same insert/update/delete schedule as a Table in plain
// vectors and answers the same queries by brute force. Semantics mirror the
// insert-only design of §3 exactly:
//
//   * every version of every row is kept; counts, sums, group counts and
//     conjunctions span all versions, as every read does at
//     only_valid = false (it scans all partitions);
//   * validity is a per-row flag flipped by deletes and supersession, and
//     the only_valid forms count, sum and collect the valid rows only;
//   * a 4-byte column truncates keys to 32 bits on insert AND on probe,
//     because FixedValue<4>::FromKey does (8- and 16-byte columns carry the
//     full 64-bit ordering key);
//   * transactions (ApplyTxn) apply a buffered op set in order — atomically
//     or not at all, meaning callers must never hand the model a partial
//     transaction (ModelPrefix enforces the boundary when replaying a
//     schedule prefix).
//
// The model is cheaply copyable: a copy taken at the instant a Snapshot is
// pinned is the ground truth that snapshot must agree with forever after,
// no matter how many merges commit in between. ExpectSnapshotMatchesModel
// checks every read of a Snapshot or a PartitionedSnapshot against it.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/durability_hooks.h"
#include "core/snapshot.h"
#include "util/random.h"

namespace deltamerge::testref {

class ReferenceModel {
 public:
  explicit ReferenceModel(std::vector<size_t> widths)
      : widths_(std::move(widths)) {}

  static uint64_t Mask(uint64_t key, size_t width) {
    return width == 4 ? (key & 0xffffffffull) : key;
  }

  uint64_t Insert(std::span<const uint64_t> keys) {
    std::vector<uint64_t> row(widths_.size());
    for (size_t c = 0; c < widths_.size(); ++c) {
      row[c] = Mask(keys[c], widths_[c]);
    }
    rows_.push_back(std::move(row));
    valid_.push_back(true);
    ++valid_count_;
    return rows_.size() - 1;
  }

  uint64_t Update(uint64_t row, std::span<const uint64_t> keys) {
    const uint64_t new_row = Insert(keys);
    if (row < new_row) Delete(row);
    return new_row;
  }

  void Delete(uint64_t row) {
    if (row < valid_.size() && valid_[row]) {
      valid_[row] = false;
      --valid_count_;
    }
  }

  /// Txn-aware mode: applies a whole buffered transaction in op order. The
  /// table's transaction layer uses the same liberal write semantics as the
  /// single-op path (an update of a dead/out-of-range row degrades to a
  /// plain insert; a delete of one is a no-op), so each TxnOp maps onto the
  /// existing model methods. Callers must hand over the complete op set —
  /// a crash-recovered table either contains all of these effects or none.
  void ApplyTxn(std::span<const TxnOp> ops) {
    for (const TxnOp& op : ops) {
      switch (op.kind) {
        case TxnOp::Kind::kInsert:
          Insert(op.keys);
          break;
        case TxnOp::Kind::kUpdate:
          Update(op.target_row, op.keys);
          break;
        case TxnOp::Kind::kDelete:
          Delete(op.target_row);
          break;
      }
    }
  }

  uint64_t size() const { return rows_.size(); }

  uint64_t valid_count() const { return valid_count_; }

  bool IsValid(uint64_t row) const {
    return row < valid_.size() && valid_[row];
  }

  uint64_t Key(uint64_t row, size_t col) const { return rows_[row][col]; }

  /// Versions whose key equals `key` (probe masked like the table's).
  uint64_t CountEquals(size_t col, uint64_t key,
                       bool only_valid = false) const {
    return CountRange(col, key, key, only_valid);
  }

  uint64_t CountRange(size_t col, uint64_t lo, uint64_t hi,
                      bool only_valid = false) const {
    return CollectRange(col, lo, hi, only_valid).size();
  }

  /// Sum of keys over the versions, mod 2^64.
  uint64_t Sum(size_t col, bool only_valid = false) const {
    uint64_t s = 0;
    for (uint64_t row = 0; row < rows_.size(); ++row) {
      if (!only_valid || valid_[row]) s += rows_[row][col];
    }
    return s;
  }

  /// Versions per distinct key, ascending by key.
  KeyCounts GroupCount(size_t col) const {
    std::map<uint64_t, uint64_t> groups;
    for (const auto& r : rows_) ++groups[r[col]];
    return KeyCounts(groups.begin(), groups.end());
  }

  /// Versions satisfying every predicate.
  uint64_t CountConjunction(std::span<const RangePredicate> preds) const {
    uint64_t n = 0;
    for (const auto& r : rows_) {
      bool all = true;
      for (const RangePredicate& p : preds) {
        const uint64_t key = r[p.column];
        all = all && key >= Mask(p.lo, widths_[p.column]) &&
              key <= Mask(p.hi, widths_[p.column]);
      }
      n += all ? 1 : 0;
    }
    return n;
  }

  std::vector<uint64_t> CollectEquals(size_t col, uint64_t key,
                                      bool only_valid) const {
    return CollectRange(col, key, key, only_valid);
  }

  std::vector<uint64_t> CollectRange(size_t col, uint64_t lo, uint64_t hi,
                                     bool only_valid) const {
    const uint64_t l = Mask(lo, widths_[col]);
    const uint64_t h = Mask(hi, widths_[col]);
    std::vector<uint64_t> out;
    for (uint64_t row = 0; row < rows_.size(); ++row) {
      if (rows_[row][col] >= l && rows_[row][col] <= h &&
          (!only_valid || valid_[row])) {
        out.push_back(row);
      }
    }
    return out;
  }

 private:
  std::vector<size_t> widths_;
  std::vector<std::vector<uint64_t>> rows_;
  std::vector<bool> valid_;
  uint64_t valid_count_ = 0;
};

/// A key of column `col` that some row at or past `main_rows` holds and no
/// row below it does, or nullopt when there is none. With `main_rows` the
/// row count of the main partitions, this is a key only a delta holds.
inline std::optional<uint64_t> DeltaOnlyKey(const ReferenceModel& model,
                                            uint64_t main_rows, size_t col) {
  std::vector<uint64_t> main_keys;
  for (uint64_t r = 0; r < main_rows; ++r) {
    main_keys.push_back(model.Key(r, col));
  }
  std::sort(main_keys.begin(), main_keys.end());
  for (uint64_t r = main_rows; r < model.size(); ++r) {
    const uint64_t key = model.Key(r, col);
    if (!std::binary_search(main_keys.begin(), main_keys.end(), key)) {
      return key;
    }
  }
  return std::nullopt;
}

/// Every public read of `snap` (a Snapshot or a PartitionedSnapshot) on
/// every column, checked against `model`, the model copy taken at the
/// snapshot's capture instant. Probe keys come from [0, domain), plus a key
/// only rows at or past `main_rows` hold (see DeltaOnlyKey).
template <typename Snap>
void ExpectSnapshotMatchesModel(const Snap& snap, const ReferenceModel& model,
                                uint64_t main_rows, Rng& rng,
                                uint64_t domain) {
  ASSERT_EQ(snap.num_rows(), model.size());
  ASSERT_EQ(snap.valid_rows(), model.valid_count());
  EXPECT_FALSE(snap.IsRowValid(model.size() + 5));
  if (model.size() == 0) return;
  const size_t columns = snap.num_columns();

  // Random rows plus the newest one, which lives in the active prefix
  // whenever the snapshot has one.
  for (const uint64_t row : {rng.Below(model.size()), rng.Below(model.size()),
                             rng.Below(model.size()), model.size() - 1}) {
    EXPECT_EQ(snap.IsRowValid(row), model.IsValid(row)) << "row " << row;
    for (size_t col = 0; col < columns; ++col) {
      EXPECT_EQ(snap.GetKey(col, row), model.Key(row, col))
          << "row " << row << " col " << col;
    }
  }

  // One random range per column, and each delta-only key.
  std::vector<RangePredicate> ranged, delta_only;
  for (size_t col = 0; col < columns; ++col) {
    // Equality probes: a random domain key, a key some row holds, a key
    // absent from every partition, and a key only a delta holds.
    std::vector<uint64_t> keys = {
        rng.Below(domain), model.Key(rng.Below(model.size()), col),
        domain + 12345};
    if (const auto k = DeltaOnlyKey(model, main_rows, col)) keys.push_back(*k);
    for (const uint64_t k : keys) {
      for (const bool only_valid : {false, true}) {
        EXPECT_EQ(snap.CountEquals(col, k, only_valid),
                  model.CountEquals(col, k, only_valid))
            << "col " << col << " key " << k << " only_valid " << only_valid;
        EXPECT_EQ(snap.CollectEquals(col, k, only_valid),
                  model.CollectEquals(col, k, only_valid))
            << "col " << col << " key " << k << " only_valid " << only_valid;
      }
    }

    // Range probes: a random range, single-key ranges on the present key
    // and the delta-only key, an inverted range (hi < lo), and a range
    // past every key.
    const uint64_t lo = rng.Below(domain);
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {
        {lo, lo + rng.Below(domain / 4 + 1)},
        {keys[1], keys[1]},
        {lo + 1, lo},
        {domain + 1, domain + 100}};
    if (keys.size() > 3) ranges.emplace_back(keys[3], keys[3]);
    for (const auto& [l, h] : ranges) {
      for (const bool only_valid : {false, true}) {
        EXPECT_EQ(snap.CountRange(col, l, h, only_valid),
                  model.CountRange(col, l, h, only_valid))
            << "col " << col << " range " << l << ".." << h;
        EXPECT_EQ(snap.CollectRange(col, l, h, only_valid),
                  model.CollectRange(col, l, h, only_valid))
            << "col " << col << " range " << l << ".." << h;
      }
    }

    EXPECT_EQ(snap.SumColumn(col), model.Sum(col)) << "col " << col;
    EXPECT_EQ(snap.SumColumn(col, true), model.Sum(col, true))
        << "col " << col;
    EXPECT_EQ(snap.GroupCount(col), model.GroupCount(col)) << "col " << col;
    ranged.push_back({col, lo, lo + domain / 4 + rng.Below(domain / 4 + 1)});
    if (keys.size() > 3) delta_only.push_back({col, keys[3], keys[3]});
  }

  // Conjunctions: every random range together, the full domain (which
  // every row satisfies), a leg past every key (which no row does), and
  // each single leg alone and beside a wide range on column 0 (for column
  // 0's legs, the same column twice).
  std::vector<RangePredicate> full;
  for (size_t col = 0; col < columns; ++col) {
    full.push_back({col, 0, ~uint64_t{0}});
  }
  std::vector<std::vector<RangePredicate>> conjunctions = {
      ranged, full, {full[0], {columns - 1, domain + 1, domain + 100}}};
  for (const auto* legs : {&ranged, &delta_only}) {
    for (const RangePredicate& leg : *legs) {
      conjunctions.push_back({leg});
      conjunctions.push_back({leg, {0, 0, domain / 2}});
    }
  }
  for (const auto& preds : conjunctions) {
    EXPECT_EQ(snap.CountConjunction(preds), model.CountConjunction(preds))
        << "conjunction of " << preds.size() << " legs, first on col "
        << preds[0].column;
  }
  EXPECT_EQ(snap.CountConjunction(full), model.size());
}

}  // namespace deltamerge::testref
