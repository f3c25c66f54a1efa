// Copyright (c) 2026 The DeltaMerge Authors.
// Type-erased column handle. Tables mix columns of different value-lengths
// (§2's analysis: 2..399 columns per table, E_j in {4, 8, 16}); ColumnBase
// erases the width so Table can hold a heterogeneous vector, while
// ColumnHandle<W> carries the typed storage and dispatches to the templated
// merge and query code. Virtual dispatch appears only at per-operation
// granularity (a whole merge step, a whole scan), never per tuple.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/merge_algorithms.h"
#include "core/merge_types.h"
#include "core/snapshot.h"
#include "storage/column.h"
#include "util/macros.h"

namespace deltamerge {

class ColumnBase {
 public:
  virtual ~ColumnBase() = default;

  // --- shape ---
  virtual size_t value_width() const = 0;
  virtual uint64_t size() const = 0;
  virtual uint64_t main_size() const = 0;
  virtual uint64_t delta_size() const = 0;
  virtual uint64_t frozen_size() const = 0;
  virtual uint64_t main_unique() const = 0;
  virtual uint64_t delta_unique() const = 0;
  virtual size_t memory_bytes() const = 0;

  // --- writes (row id comes from the table; values are ordering keys) ---
  virtual uint64_t InsertKey(uint64_t key) = 0;
  /// Appends column `col` of a row-major batch of `num_columns`-key rows as
  /// one batch insert: the same contents as InsertKey on each row's key in
  /// order. Returns the first new row id.
  virtual uint64_t InsertKeys(std::span<const uint64_t> row_major_keys,
                              size_t col, size_t num_columns) = 0;

  // --- reads ---
  /// The integer ordering key stored at `row` (across all partitions).
  virtual uint64_t GetKey(uint64_t row) const = 0;
  /// Captures a consistent view of this column spanning the first
  /// `visible_rows` global rows — the scan sources every aggregate
  /// evaluates. Must be called under the table lock (any mode); the view
  /// stays readable for as long as that lock is held or the caller's epoch
  /// pin keeps the captured partitions alive.
  virtual std::unique_ptr<ColumnReadView> CaptureView(
      uint64_t visible_rows) const = 0;

  // --- durability (checkpoint capture; see core/durability_hooks.h) ---
  /// A closure serializing the column's *current* main partition
  /// (dictionary + packed codes). Capture under the table lock; invoke
  /// while an epoch pinned at or before capture time is still held — the
  /// pin keeps the partition object alive across later merge commits.
  virtual std::function<Status(FileWriter&)> CaptureMainSerializer()
      const = 0;

  // --- merge protocol (driven by Table / MergeManager) ---
  virtual void FreezeDelta() = 0;
  /// Runs the merge of main + frozen into a staged main partition. Must be
  /// preceded by FreezeDelta(); safe without the table lock.
  virtual MergeStats PrepareMerge(const MergeOptions& options,
                                  ThreadTeam* team) = 0;
  /// Installs the staged partition. O(1); called under the table lock.
  /// Superseded partitions go to `retire` (for epoch-deferred reclamation)
  /// or are destroyed immediately when `retire` is null.
  virtual void CommitMerge(RetireSink* retire = nullptr) = 0;
  virtual void AbortMerge(RetireSink* retire = nullptr) = 0;
  virtual bool merge_in_progress() const = 0;
};

template <size_t W>
class ColumnHandle final : public ColumnBase {
 public:
  using Value = FixedValue<W>;

  ColumnHandle() = default;
  explicit ColumnHandle(Column<W> column) : column_(std::move(column)) {}

  Column<W>& column() { return column_; }
  const Column<W>& column() const { return column_; }

  size_t value_width() const override { return W; }
  uint64_t size() const override { return column_.size(); }
  uint64_t main_size() const override { return column_.main_size(); }
  uint64_t delta_size() const override { return column_.delta_size(); }
  uint64_t frozen_size() const override { return column_.frozen_size(); }
  uint64_t main_unique() const override {
    return column_.main().unique_values();
  }
  uint64_t delta_unique() const override {
    return column_.delta().unique_values();
  }
  size_t memory_bytes() const override { return column_.memory_bytes(); }

  uint64_t InsertKey(uint64_t key) override {
    return column_.Insert(Value::FromKey(key));
  }

  uint64_t InsertKeys(std::span<const uint64_t> row_major_keys, size_t col,
                      size_t num_columns) override {
    std::vector<Value> values(row_major_keys.size() / num_columns);
    for (size_t r = 0; r < values.size(); ++r) {
      values[r] = Value::FromKey(row_major_keys[r * num_columns + col]);
    }
    return column_.InsertBatch(values);
  }

  uint64_t GetKey(uint64_t row) const override {
    return column_.Get(row).key();
  }

  std::unique_ptr<ColumnReadView> CaptureView(
      uint64_t visible_rows) const override {
    const uint64_t pinned = column_.main_size() + column_.frozen_size();
    DM_CHECK_MSG(visible_rows >= pinned && visible_rows <= column_.size(),
                 "snapshot row count outside the column's bounds");
    return std::make_unique<ColumnSnapshotView<W>>(
        &column_.main(), column_.frozen(), &column_.delta(),
        visible_rows - pinned);
  }

  std::function<Status(FileWriter&)> CaptureMainSerializer() const override {
    const MainPartition<W>* main = &column_.main();
    return [main](FileWriter& out) { return main->Serialize(out); };
  }

  void FreezeDelta() override { column_.FreezeDelta(); }

  MergeStats PrepareMerge(const MergeOptions& options,
                          ThreadTeam* team) override {
    DM_CHECK_MSG(column_.merge_in_progress(),
                 "PrepareMerge requires FreezeDelta first");
    MergeStats stats;
    staged_ = MergeColumnPartitions<W>(column_.main(), *column_.frozen(),
                                       options, team, &stats);
    has_staged_ = true;
    return stats;
  }

  void CommitMerge(RetireSink* retire = nullptr) override {
    DM_CHECK_MSG(has_staged_, "CommitMerge without PrepareMerge");
    auto retired = column_.CommitMerge(std::move(staged_));
    if (retire != nullptr) {
      retire->Retire(std::shared_ptr<void>(std::move(retired.main)));
      retire->Retire(std::shared_ptr<void>(std::move(retired.frozen)));
    }
    staged_ = MainPartition<W>();
    has_staged_ = false;
  }

  void AbortMerge(RetireSink* retire = nullptr) override {
    auto retired = column_.AbortMerge();
    if (retire != nullptr) {
      retire->Retire(std::shared_ptr<void>(std::move(retired.frozen)));
      retire->Retire(std::shared_ptr<void>(std::move(retired.active)));
    }
    staged_ = MainPartition<W>();
    has_staged_ = false;
  }

  bool merge_in_progress() const override {
    return column_.merge_in_progress();
  }

 private:
  Column<W> column_;
  MainPartition<W> staged_;
  bool has_staged_ = false;
};

/// Factory for the supported widths.
std::unique_ptr<ColumnBase> MakeColumn(size_t value_width);

inline std::unique_ptr<ColumnBase> MakeColumn(size_t value_width) {
  switch (value_width) {
    case 4:
      return std::make_unique<ColumnHandle<4>>();
    case 8:
      return std::make_unique<ColumnHandle<8>>();
    case 16:
      return std::make_unique<ColumnHandle<16>>();
    default:
      DM_CHECK_MSG(false, "unsupported value width (use 4, 8 or 16)");
      return nullptr;
  }
}

/// Recovery inverse of ColumnBase::CaptureMainSerializer: reads one main
/// partition of the given width from a checkpoint stream and wraps it in a
/// fresh column (empty delta — the WAL tail repopulates it).
inline Result<std::unique_ptr<ColumnBase>> DeserializeColumnMain(
    size_t value_width, FileReader& in) {
  switch (value_width) {
    case 4: {
      DM_ASSIGN_OR_RETURN(MainPartition<4> m, MainPartition<4>::Deserialize(in));
      return std::unique_ptr<ColumnBase>(
          std::make_unique<ColumnHandle<4>>(Column<4>(std::move(m))));
    }
    case 8: {
      DM_ASSIGN_OR_RETURN(MainPartition<8> m, MainPartition<8>::Deserialize(in));
      return std::unique_ptr<ColumnBase>(
          std::make_unique<ColumnHandle<8>>(Column<8>(std::move(m))));
    }
    case 16: {
      DM_ASSIGN_OR_RETURN(MainPartition<16> m,
                          MainPartition<16>::Deserialize(in));
      return std::unique_ptr<ColumnBase>(
          std::make_unique<ColumnHandle<16>>(Column<16>(std::move(m))));
    }
    default:
      return Status::Internal("unsupported value width in checkpoint");
  }
}

}  // namespace deltamerge
