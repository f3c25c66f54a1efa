// Copyright (c) 2026 The DeltaMerge Authors.
// DeltaPartition<W>: the write-optimized, uncompressed half of a column.
//
// "Incoming updates are accumulated in the write-optimized delta partition
// ... data in the delta partition is not compressed. In addition ... a CSB+
// tree with all the unique uncompressed values of the delta partition is
// maintained per column." (paper §3)
//
// Values are appended in arrival order (the tuple offset inside the delta is
// the tuple id the CSB+ postings record); reads materialize directly from the
// value array — the "forced materialization" cost §4 charges to large deltas.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "storage/csb_tree.h"
#include "util/fixed_value.h"
#include "util/macros.h"

namespace deltamerge {

template <size_t W>
class DeltaPartition {
 public:
  using Value = FixedValue<W>;

  DeltaPartition() = default;
  DM_DISALLOW_COPY(DeltaPartition);
  DeltaPartition(DeltaPartition&&) noexcept = default;
  DeltaPartition& operator=(DeltaPartition&&) noexcept = default;

  /// Appends a value; returns its delta-local tuple id.
  uint32_t Insert(const Value& v) {
    const uint32_t tid = static_cast<uint32_t>(values_.size());
    values_.push_back(v);
    tree_.Insert(v, tid);
    return tid;
  }

  /// Appends `vs` in order; returns the first one's delta-local tuple id.
  /// Same contents as Insert on each value, built by one tree batch insert.
  uint32_t InsertBatch(std::span<const Value> vs) {
    const uint32_t first = static_cast<uint32_t>(values_.size());
    values_.insert(values_.end(), vs.begin(), vs.end());
    tree_.InsertBatch(std::span<const Value>(values_).subspan(first), first);
    return first;
  }

  /// N_D for this column.
  uint64_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// |U_D|: distinct values currently in the delta.
  uint64_t unique_values() const { return tree_.unique_keys(); }

  /// Uncompressed read (no dictionary indirection — delta reads are direct).
  const Value& Get(uint64_t tid) const {
    DM_DCHECK(tid < values_.size());
    return values_[tid];
  }

  std::span<const Value> values() const { return values_; }
  const CsbTree<W>& tree() const { return tree_; }

  /// Uncompressed bytes held (E_j * N_D) plus index overhead.
  size_t memory_bytes() const {
    return values_.size() * sizeof(Value) + tree_.memory_bytes();
  }

  void Clear() {
    values_.clear();
    tree_.Clear();
  }

 private:
  std::vector<Value> values_;
  CsbTree<W> tree_;
};

}  // namespace deltamerge
