// Copyright (c) 2026 The DeltaMerge Authors.
// Epoch-based snapshot reads for the online merge (§3, §9).
//
// The merge body runs with no lock held; only the freeze and commit
// instants take the table's exclusive lock. That leaves one hazard: a
// reader that started a multi-operation scan before the commit still holds
// pointers into the pre-merge generation (old main + frozen delta), which
// the commit supersedes. The classic fix — and what Larson et al. and the
// multiversion literature converge on — is epoch-based reclamation:
//
//   * a reader pins the current epoch in a shared slot before capturing its
//     view, and clears the slot when the snapshot is released;
//   * the commit does not destroy the superseded partitions; it *retires*
//     them, tagged with the epoch at retirement;
//   * a retired object is destroyed only once every pinned epoch is newer
//     than its tag — i.e. when the epochs that could reference it drained.
//
// A Snapshot is therefore a lightweight handle: one slot CAS + a pointer
// capture under a brief shared lock. Its reads are repeatable: the same
// query against the same snapshot returns the same answer regardless of
// concurrent inserts, deletes, or a full merge commit in between.
//
// Memory-safety split: main/frozen partitions referenced by a snapshot are
// immutable (epoch pinning keeps them alive) and are scanned with NO lock
// held — the bulk of every read. Only the captured prefix of the *active*
// delta, which keeps growing under the writer, is read under the table's
// shared lock (briefly, never across a merge body); a snapshot whose
// active prefix is empty never touches the lock at all. Validity is
// versioned by ValidityVector's tombstone log.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "query/aggregate.h"
#include "query/range_select.h"
#include "query/shared_scan.h"
#include "storage/delta_partition.h"
#include "storage/main_partition.h"
#include "storage/validity.h"
#include "util/macros.h"
#include "util/thread_annotations.h"

namespace deltamerge {

/// Where superseded partition generations go instead of the destructor.
class RetireSink {
 public:
  virtual ~RetireSink() = default;
  virtual void Retire(std::shared_ptr<void> obj) = 0;
};

/// The epoch clock, reader registry, and retire list for one table.
///
/// Epochs start at 1 (0 marks a free reader slot) and advance on every
/// retirement. Readers publish the epoch they observed into a cache-line-
/// aligned slot; a retired object with tag T is reclaimable once every
/// occupied slot holds an epoch > T. A reader slot may hold a slightly
/// stale epoch (loaded before a concurrent retirement) — that only delays
/// reclamation, never breaks it, because the reader captures its pointers
/// under the shared lock *after* publishing, and so can only reference
/// objects that were still installed at that point.
class EpochManager final : public RetireSink {
 public:
  /// Upper bound on concurrently pinned snapshots; Pin() spins (yielding)
  /// when all slots are busy.
  static constexpr uint32_t kMaxPinnedSnapshots = 128;

  EpochManager() = default;
  ~EpochManager() override;
  DM_DISALLOW_COPY_AND_MOVE(EpochManager);

  /// Publishes the current epoch in a free slot; returns the slot index.
  /// The slot's read timestamp starts at 0 ("unknown": blocks tombstone
  /// pruning) until PublishPinnedReadTs.
  uint32_t Pin();

  /// Clears the slot. The caller should follow with ReclaimExpired().
  void Unpin(uint32_t slot);

  /// Records the read timestamp the snapshot in `slot` captured, so
  /// tombstone-log entries at or below every pinned read timestamp can be
  /// pruned (validity.h).
  void PublishPinnedReadTs(uint32_t slot, uint64_t read_ts);

  /// Smallest read timestamp any pinned snapshot may consult; UINT64_MAX
  /// when nothing is pinned. A snapshot between Pin and PublishPinnedReadTs
  /// counts as 0 (nothing below it may be pruned).
  uint64_t MinPinnedReadTs() const;

  /// Tags `obj` with the current epoch, queues it, and advances the clock.
  void Retire(std::shared_ptr<void> obj) override DM_EXCLUDES(retired_mu_);

  /// Destroys every retired object whose tag is older than all pinned
  /// epochs. Returns how many were reclaimed.
  size_t ReclaimExpired() DM_EXCLUDES(retired_mu_);

  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  // --- commit clock (optimistic MVCC, Larson et al.) ------------------------
  //
  // The epoch counter doubles as the table's commit-timestamp clock. A
  // committing write calls AdvanceClock() under the table's exclusive lock
  // BEFORE stamping its rows/tombstones, so its timestamp is strictly
  // greater than the read timestamp of any snapshot captured earlier (a
  // snapshot reads current_epoch() under the shared lock). Retire() bumps
  // the same counter; commit timestamps simply skip those values — the
  // clock only ever needs to be monotone, not dense.

  /// Bumps the clock and returns the NEW value — the commit timestamp for
  /// the write being committed.
  uint64_t AdvanceClock() {
    return epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Recovery hook: raises the clock to at least `ts` (the checkpointed
  /// commit clock / replayed commit timestamps). Without this, restored
  /// rows stamped above the clock would be invisible to every new snapshot.
  void EnsureClockAtLeast(uint64_t ts);
  uint32_t pinned_count() const;
  /// Retired objects still awaiting a drained epoch.
  size_t retired_count() const DM_EXCLUDES(retired_mu_);
  uint64_t reclaimed_total() const {
    return reclaimed_total_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t MinPinnedEpoch() const;

  struct DM_CACHELINE_ALIGNED Slot {
    std::atomic<uint64_t> epoch{0};    ///< 0 = free, else the pinned epoch
    std::atomic<uint64_t> read_ts{0};  ///< captured read ts; 0 = unknown
  };

  std::atomic<uint64_t> epoch_{1};
  std::array<Slot, kMaxPinnedSnapshots> slots_;
  mutable Mutex retired_mu_;
  std::vector<std::pair<uint64_t, std::shared_ptr<void>>> retired_
      DM_GUARDED_BY(retired_mu_);
  std::atomic<uint64_t> reclaimed_total_{0};
};

/// One leg of a conjunction: column `column`'s key lies in [lo, hi]
/// (inclusive; equality is [k, k]).
struct RangePredicate {
  size_t column = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// A per-value group count: (key, tuples holding it) pairs, ascending by key.
using KeyCounts = std::vector<std::pair<uint64_t, uint64_t>>;

/// Adds `more` into `*counts`, summing the counts of equal keys; both are
/// ascending, and so is the result.
void AddKeyCounts(const KeyCounts& more, KeyCounts* counts);

/// Type-erased consistent view of one column: the three scan sources every
/// read adds up — the main partition, the frozen delta and the visible
/// prefix of the active delta — with the global-row-id arithmetic baked in.
/// Built by ColumnBase::CaptureView under the table lock.
///
/// What protects a read depends on its part:
///   * kMain and kFrozen are immutable objects the epoch pin keeps alive,
///     readable with NO lock held; this is the bulk of every scan, and it
///     proceeds at full speed while a merge commits or a writer appends;
///   * kActive covers the first `active_prefix` tuples of the still-growing
///     active delta — the caller must hold the table's shared lock (appends
///     mutate the value array and CSB tree).
///
/// A `valid` argument is a word array of validity bits indexed by GLOBAL
/// row id (bit r set = row r valid), covering every row of the part read;
/// null reads every row.
class ColumnReadView {
 public:
  enum class Part { kMain, kFrozen, kActive };
  static constexpr Part kParts[] = {Part::kMain, Part::kFrozen,
                                    Part::kActive};

  ColumnReadView(uint64_t pinned, uint64_t active)
      : rows(pinned + active), pinned_rows(pinned), active_prefix(active) {}
  virtual ~ColumnReadView() = default;
  DM_DISALLOW_COPY_AND_MOVE(ColumnReadView);

  /// Rows this view spans (== the snapshot's visible row count).
  const uint64_t rows;
  /// Rows living in the immutable pinned generation (main + frozen).
  const uint64_t pinned_rows;
  /// Rows of the active delta visible to this view (rows - pinned_rows).
  const uint64_t active_prefix;

  /// The key at global `row` (< rows); rows past pinned_rows are kActive.
  virtual uint64_t GetKey(uint64_t row) const = 0;
  /// [lo, hi] over the main partition in code form — what a ScanGate
  /// batches; query::CountMain(MainSpec(lo, hi), valid) is kMain's Count.
  virtual query::PackedScanSpec MainSpec(uint64_t lo, uint64_t hi) const = 0;
  /// Tuples of `part` whose key lies in [lo, hi] (equality is [k, k]).
  virtual uint64_t Count(Part part, uint64_t lo, uint64_t hi,
                         const uint64_t* valid) const = 0;
  /// Appends the global row ids of `part`'s tuples whose key lies in
  /// [lo, hi], in no particular order.
  virtual void Collect(Part part, uint64_t lo, uint64_t hi,
                       std::vector<uint64_t>* out) const = 0;
  /// Sum (mod 2^64) of `part`'s keys.
  virtual uint64_t Sum(Part part, const uint64_t* valid) const = 0;
  /// `part`'s tuples per distinct key.
  virtual KeyCounts GroupCount(Part part) const = 0;
};

/// The typed view implementation for value width W.
template <size_t W>
class ColumnSnapshotView final : public ColumnReadView {
 public:
  using Value = FixedValue<W>;

  ColumnSnapshotView(const MainPartition<W>* main,
                     const DeltaPartition<W>* frozen,
                     const DeltaPartition<W>* active, uint64_t prefix)
      : ColumnReadView(
            main->size() + (frozen != nullptr ? frozen->size() : 0), prefix),
        main_(main),
        frozen_(frozen),
        active_(active) {}

  uint64_t GetKey(uint64_t row) const override {
    DM_DCHECK(row < rows);
    if (row < main_->size()) return main_->GetValue(row).key();
    if (row < pinned_rows) return frozen_->Get(row - main_->size()).key();
    return active_->Get(row - pinned_rows).key();
  }

  query::PackedScanSpec MainSpec(uint64_t lo, uint64_t hi) const override {
    return query::MainSpec(*main_, Value::FromKey(lo), Value::FromKey(hi));
  }

  uint64_t Count(Part part, uint64_t lo, uint64_t hi,
                 const uint64_t* valid) const override {
    if (part == Part::kMain) return query::CountMain(MainSpec(lo, hi), valid);
    const DeltaPrefix d = Delta(part);
    if (d.delta == nullptr) return 0;
    return query::CountDelta(*d.delta, Value::FromKey(lo), Value::FromKey(hi),
                             d.prefix, d.base, valid);
  }

  void Collect(Part part, uint64_t lo, uint64_t hi,
               std::vector<uint64_t>* out) const override {
    if (part == Part::kMain) {
      query::CollectMain(MainSpec(lo, hi), out);
      return;
    }
    const DeltaPrefix d = Delta(part);
    if (d.delta == nullptr) return;
    query::CollectDelta(*d.delta, Value::FromKey(lo), Value::FromKey(hi),
                        d.prefix, d.base, out);
  }

  uint64_t Sum(Part part, const uint64_t* valid) const override {
    if (part == Part::kMain) return query::SumMain(*main_, valid);
    const DeltaPrefix d = Delta(part);
    if (d.delta == nullptr) return 0;
    return query::SumDelta(*d.delta, d.prefix, d.base, valid);
  }

  /// Main: a histogram over the packed codes, keyed through the dictionary.
  /// A delta: the CSB+ tree's sorted walk, counting visible postings.
  KeyCounts GroupCount(Part part) const override {
    KeyCounts out;
    if (part == Part::kMain) {
      const std::vector<uint64_t> keys = query::DictionaryKeyTable(*main_);
      std::vector<uint64_t> counts(keys.size(), 0);
      if (!main_->empty()) {
        simd::HistogramPacked(main_->codes(), 0, main_->size(), counts.data());
      }
      for (size_t c = 0; c < keys.size(); ++c) {
        if (counts[c] > 0) out.emplace_back(keys[c], counts[c]);
      }
      return out;
    }
    const DeltaPrefix d = Delta(part);
    if (d.delta == nullptr) return out;
    d.delta->tree().ForEachSorted([&](const Value& v, PostingsCursor c) {
      uint64_t n = 0;
      for (; !c.Done(); c.Advance()) n += c.TupleId() < d.prefix ? 1 : 0;
      if (n > 0) out.emplace_back(v.key(), n);
    });
    return out;
  }

 private:
  /// A delta part: its partition (the frozen one is null when no merge is
  /// in flight), the tuples visible to this view, and the global row id of
  /// its tuple 0.
  struct DeltaPrefix {
    const DeltaPartition<W>* delta;
    uint64_t prefix;
    uint64_t base;
  };

  DeltaPrefix Delta(Part part) const {
    if (part == Part::kFrozen) {
      return {frozen_, pinned_rows - main_->size(), main_->size()};
    }
    return {active_, active_prefix, pinned_rows};
  }

  const MainPartition<W>* main_;
  const DeltaPartition<W>* frozen_;
  const DeltaPartition<W>* active_;
};

/// A pinned, consistent read view of a whole table: every column at the
/// same row count, plus validity as of the capture instant. Movable,
/// non-copyable; releasing (destruction) unpins the epoch and triggers
/// reclamation. Must not outlive the Table it came from. A released or
/// moved-from handle spans zero rows, and every read on it aborts.
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot() { Release(); }

  Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }
  Snapshot& operator=(Snapshot&& other) noexcept;
  DM_DISALLOW_COPY(Snapshot);

  bool valid() const { return epochs_ != nullptr; }
  /// Unpins and empties the handle; idempotent.
  void Release();

  // --- shape (captured; no lock needed) ---
  uint64_t num_rows() const { return visible_rows_; }
  uint64_t valid_rows() const { return valid_rows_; }
  size_t num_columns() const { return cols_.size(); }
  /// The epoch this snapshot pinned (diagnostic).
  uint64_t epoch() const { return pinned_epoch_; }
  /// The commit-clock value this snapshot reads as of: writes with commit
  /// timestamp <= read_ts() are visible, later ones are not.
  uint64_t read_ts() const { return read_ts_; }

  // --- reads (consistent as of the capture instant) ---
  //
  // `only_valid` restricts a read to the rows valid as of the snapshot;
  // otherwise it spans every row version. A valid-only aggregate gives the
  // same answer as filtering CollectRange(..., true), with no row
  // materialization: the snapshot copies its validity bits once
  // (CopyWordsAtTs — current words with post-read_ts tombstones
  // resurrected), then the pinned partitions sweep lock-free through the
  // masked kernels. Masked counts never enroll in a ScanGate — a validity
  // mask is per-snapshot, so masked sweeps are not shareable.
  uint64_t GetKey(size_t col, uint64_t row) const;
  bool IsRowValid(uint64_t row) const;
  uint64_t CountEquals(size_t col, uint64_t key,
                       bool only_valid = false) const;
  uint64_t CountRange(size_t col, uint64_t lo, uint64_t hi,
                      bool only_valid = false) const;
  uint64_t SumColumn(size_t col, bool only_valid = false) const;
  /// Row ids (ascending) whose value equals `key`.
  std::vector<uint64_t> CollectEquals(size_t col, uint64_t key,
                                      bool only_valid) const;
  /// Row ids (ascending) whose value lies in [lo, hi].
  std::vector<uint64_t> CollectRange(size_t col, uint64_t lo, uint64_t hi,
                                     bool only_valid) const;
  /// Row versions satisfying every predicate (at least one). Main runs one
  /// fused sweep over all the predicates' packed codes; each delta part
  /// intersects the predicates' matching rows.
  uint64_t CountConjunction(std::span<const RangePredicate> preds) const;
  /// Row versions per distinct key of `col`, ascending by key.
  KeyCounts GroupCount(size_t col) const;

  /// The scan gate this snapshot's main-partition counts enroll in, or
  /// null when sharing is disabled (Table::EnableSharedScans).
  query::ScanGate* scan_gate() const { return gate_; }

 private:
  friend class Table;

  Snapshot(EpochManager* epochs, uint32_t slot, uint64_t pinned_epoch,
           SharedMutex* mu, const ValidityVector* validity)
      : epochs_(epochs),
        slot_(slot),
        pinned_epoch_(pinned_epoch),
        mu_(mu),
        validity_(validity) {}

  bool IsRowValidLocked(uint64_t row) const DM_REQUIRES_SHARED(*mu_) {
    return row < visible_rows_ && validity_->IsValidAtTs(row, read_ts_);
  }

  /// cols_[col], DM_CHECKed: column ids come from callers, and a released
  /// handle has no columns.
  const ColumnReadView& View(size_t col) const;

  /// fn(part, valid) added up over `view`'s three parts. The active prefix
  /// is read under the shared lock, and skipped with no lock when empty.
  /// `masked` copies the validity bits as of read_ts once, in the same lock
  /// hold, and hands them to every part.
  template <typename Fn>
  uint64_t AddParts(const ColumnReadView& view, bool masked, Fn&& fn) const;

  EpochManager* epochs_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t pinned_epoch_ = 0;
  /// The owning table's lock; the active-delta prefix and validity log are
  /// read under it (shared).
  SharedMutex* mu_ = nullptr;
  const ValidityVector* validity_ = nullptr;
  /// Cooperative scan gate (owned by the table); null = solo scans.
  query::ScanGate* gate_ = nullptr;
  uint64_t visible_rows_ = 0;
  uint64_t valid_rows_ = 0;
  uint64_t read_ts_ = 0;
  std::vector<std::unique_ptr<ColumnReadView>> cols_;
};

}  // namespace deltamerge
