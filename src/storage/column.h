// Copyright (c) 2026 The DeltaMerge Authors.
// Column<W>: one attribute of a table — a compressed main partition, an
// active write-optimized delta, and (while a merge is running) a frozen
// delta snapshot.
//
// "During the merge, incoming updates are stored in a temporary second
// delta, which becomes the primary delta when the merge result is committed"
// (§3). Freeze/commit are O(1) pointer swaps; the merge itself runs against
// immutable state, which is what lets it proceed without the table lock.
//
// Row addressing: the tuple offset is the implicit surrogate id (§3). Rows
// [0, main.size()) live in main, then frozen-delta rows, then active-delta
// rows. A merge concatenates main + frozen in order, so global row ids are
// stable across merges.
//
// Generation pinning: every partition lives behind a unique_ptr, so its
// address is stable across freeze (the active delta *object* becomes the
// frozen one) and commit (a fresh merged main is installed next to the old
// one). CommitMerge/AbortMerge hand the superseded partition objects back
// to the caller instead of destroying them — a snapshot reader that pinned
// an epoch before the commit may still be scanning them (see
// core/snapshot.h for the reclamation protocol).

#pragma once

#include <memory>
#include <span>
#include <utility>

#include "storage/delta_partition.h"
#include "storage/main_partition.h"
#include "util/macros.h"

namespace deltamerge {

template <size_t W>
class Column {
 public:
  using Value = FixedValue<W>;

  /// The partition objects a commit or abort superseded; the caller either
  /// destroys them (no concurrent readers) or retires them to an epoch
  /// manager until every snapshot that could reference them drains.
  struct RetiredParts {
    std::unique_ptr<MainPartition<W>> main;
    std::unique_ptr<DeltaPartition<W>> frozen;
    std::unique_ptr<DeltaPartition<W>> active;
  };

  Column()
      : main_(std::make_unique<MainPartition<W>>()),
        delta_(std::make_unique<DeltaPartition<W>>()) {}
  explicit Column(MainPartition<W> main)
      : main_(std::make_unique<MainPartition<W>>(std::move(main))),
        delta_(std::make_unique<DeltaPartition<W>>()) {}
  DM_DISALLOW_COPY(Column);
  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;

  /// Appends to the active delta; returns the new global row id.
  uint64_t Insert(const Value& v) {
    const uint64_t base = main_->size() + frozen_size();
    return base + delta_->Insert(v);
  }

  /// Appends `vs` to the active delta as one batch; returns the first new
  /// global row id.
  uint64_t InsertBatch(std::span<const Value> vs) {
    const uint64_t base = main_->size() + frozen_size();
    return base + delta_->InsertBatch(vs);
  }

  uint64_t main_size() const { return main_->size(); }
  uint64_t delta_size() const { return delta_->size(); }
  uint64_t frozen_size() const { return frozen_ ? frozen_->size() : 0; }
  uint64_t size() const { return main_size() + frozen_size() + delta_size(); }

  bool merge_in_progress() const { return frozen_ != nullptr; }

  /// Materializes the value at a global row id, whichever partition holds it.
  Value Get(uint64_t row) const {
    if (row < main_->size()) return main_->GetValue(row);
    row -= main_->size();
    const uint64_t fs = frozen_size();
    if (row < fs) return frozen_->Get(row);
    return delta_->Get(row - fs);
  }

  const MainPartition<W>& main() const { return *main_; }
  const DeltaPartition<W>& delta() const { return *delta_; }
  const DeltaPartition<W>* frozen() const { return frozen_.get(); }

  /// Starts a merge epoch: the active delta becomes the frozen snapshot and
  /// a fresh active delta accepts subsequent inserts. The frozen partition
  /// keeps its heap address, so readers holding a pre-freeze pointer to the
  /// then-active delta keep reading the same (now immutable) object.
  /// Requires no merge in progress.
  void FreezeDelta() {
    DM_CHECK_MSG(!merge_in_progress(), "merge already in progress");
    frozen_ = std::move(delta_);
    delta_ = std::make_unique<DeltaPartition<W>>();
  }

  /// Finishes a merge epoch: installs the merged main (which must contain
  /// main + frozen) and returns the superseded old main and frozen delta.
  RetiredParts CommitMerge(MainPartition<W> merged) {
    DM_CHECK_MSG(merge_in_progress(), "no merge in progress");
    DM_CHECK_MSG(merged.size() == main_->size() + frozen_->size(),
                 "merged partition has wrong cardinality");
    RetiredParts retired;
    retired.main = std::move(main_);
    retired.frozen = std::move(frozen_);
    main_ = std::make_unique<MainPartition<W>>(std::move(merged));
    return retired;
  }

  /// Abandons a merge epoch without installing a result, returning the
  /// frozen tuples to the head of the active delta (re-inserted in order so
  /// row ids are preserved). The superseded frozen and active partition
  /// objects are returned for deferred reclamation.
  RetiredParts AbortMerge() {
    DM_CHECK_MSG(merge_in_progress(), "no merge in progress");
    RetiredParts retired;
    retired.frozen = std::move(frozen_);
    retired.active = std::move(delta_);
    delta_ = std::make_unique<DeltaPartition<W>>();
    delta_->InsertBatch(retired.frozen->values());
    delta_->InsertBatch(retired.active->values());
    return retired;
  }

  size_t memory_bytes() const {
    return main_->memory_bytes() + delta_->memory_bytes() +
           (frozen_ ? frozen_->memory_bytes() : 0);
  }

 private:
  std::unique_ptr<MainPartition<W>> main_;
  std::unique_ptr<DeltaPartition<W>> delta_;
  std::unique_ptr<DeltaPartition<W>> frozen_;
};

}  // namespace deltamerge
