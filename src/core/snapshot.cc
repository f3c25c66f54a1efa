// Copyright (c) 2026 The DeltaMerge Authors.

#include "core/snapshot.h"

#include <algorithm>
#include <iterator>
#include <thread>

namespace deltamerge {

using Part = ColumnReadView::Part;

void AddKeyCounts(const KeyCounts& more, KeyCounts* counts) {
  KeyCounts merged;
  merged.reserve(counts->size() + more.size());
  std::merge(counts->begin(), counts->end(), more.begin(), more.end(),
             std::back_inserter(merged),
             [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t n = 0;
  for (const auto& kc : merged) {
    if (n > 0 && merged[n - 1].first == kc.first) {
      merged[n - 1].second += kc.second;
    } else {
      merged[n++] = kc;
    }
  }
  merged.resize(n);
  *counts = std::move(merged);
}

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

EpochManager::~EpochManager() {
  DM_CHECK_MSG(pinned_count() == 0,
               "EpochManager destroyed with snapshots still pinned");
  // No readers left: everything retired is reclaimable.
  MutexLock lock(retired_mu_);
  reclaimed_total_.fetch_add(retired_.size(), std::memory_order_relaxed);
  retired_.clear();
}

uint32_t EpochManager::Pin() {
  for (;;) {
    const uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (uint32_t i = 0; i < kMaxPinnedSnapshots; ++i) {
      uint64_t expected = 0;
      if (slots_[i].epoch.compare_exchange_strong(
              expected, e, std::memory_order_seq_cst)) {
        return i;
      }
    }
    // All slots busy: wait for another snapshot to release.
    std::this_thread::yield();
  }
}

void EpochManager::Unpin(uint32_t slot) {
  DM_DCHECK(slot < kMaxPinnedSnapshots);
  DM_DCHECK(slots_[slot].epoch.load(std::memory_order_seq_cst) != 0);
  // Reset the read ts before freeing the slot so the next pinner starts in
  // the conservative "unknown" state — a pruner that sees the slot occupied
  // in between reads ts 0, which blocks pruning, never a stale value.
  slots_[slot].read_ts.store(0, std::memory_order_seq_cst);
  slots_[slot].epoch.store(0, std::memory_order_seq_cst);
}

void EpochManager::PublishPinnedReadTs(uint32_t slot, uint64_t read_ts) {
  DM_DCHECK(slot < kMaxPinnedSnapshots);
  slots_[slot].read_ts.store(read_ts, std::memory_order_seq_cst);
}

uint64_t EpochManager::MinPinnedReadTs() const {
  uint64_t min_ts = UINT64_MAX;
  for (const Slot& s : slots_) {
    if (s.epoch.load(std::memory_order_seq_cst) == 0) continue;
    const uint64_t ts = s.read_ts.load(std::memory_order_seq_cst);
    if (ts < min_ts) min_ts = ts;
  }
  return min_ts;
}

void EpochManager::EnsureClockAtLeast(uint64_t ts) {
  uint64_t cur = epoch_.load(std::memory_order_seq_cst);
  while (cur < ts &&
         !epoch_.compare_exchange_weak(cur, ts, std::memory_order_seq_cst)) {
  }
}

void EpochManager::Retire(std::shared_ptr<void> obj) {
  if (obj == nullptr) return;
  MutexLock lock(retired_mu_);
  // Tag with the epoch readers could have pinned, then advance the clock so
  // later pins are distinguishable from earlier ones.
  const uint64_t tag = epoch_.fetch_add(1, std::memory_order_seq_cst);
  retired_.emplace_back(tag, std::move(obj));
}

size_t EpochManager::ReclaimExpired() {
  // The horizon must be read BEFORE the slot scan: an object retired after
  // the scan could carry a tag this scan's min does not account for (its
  // referencing reader may pin concurrently and be missed), but such a tag
  // is necessarily >= the horizon, so bounding the reclaim by both closes
  // the window.
  const uint64_t horizon = epoch_.load(std::memory_order_seq_cst);
  const uint64_t min_pinned = MinPinnedEpoch();
  const uint64_t limit = min_pinned < horizon ? min_pinned : horizon;
  std::vector<std::shared_ptr<void>> doomed;
  {
    MutexLock lock(retired_mu_);
    auto keep = retired_.begin();
    for (auto& entry : retired_) {
      if (entry.first < limit) {
        doomed.push_back(std::move(entry.second));
      } else {
        *keep++ = std::move(entry);
      }
    }
    retired_.erase(keep, retired_.end());
  }
  // Destruction happens outside the lock — partition destructors can be
  // arbitrarily expensive (freeing gigabytes of codes).
  reclaimed_total_.fetch_add(doomed.size(), std::memory_order_relaxed);
  return doomed.size();
}

uint64_t EpochManager::MinPinnedEpoch() const {
  uint64_t min_pinned = UINT64_MAX;
  for (const Slot& s : slots_) {
    const uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e != 0 && e < min_pinned) min_pinned = e;
  }
  return min_pinned;
}

uint32_t EpochManager::pinned_count() const {
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    n += (s.epoch.load(std::memory_order_seq_cst) != 0) ? 1 : 0;
  }
  return n;
}

size_t EpochManager::retired_count() const {
  MutexLock lock(retired_mu_);
  return retired_.size();
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    epochs_ = other.epochs_;
    slot_ = other.slot_;
    pinned_epoch_ = other.pinned_epoch_;
    mu_ = other.mu_;
    validity_ = other.validity_;
    gate_ = other.gate_;
    visible_rows_ = other.visible_rows_;
    valid_rows_ = other.valid_rows_;
    read_ts_ = other.read_ts_;
    cols_ = std::move(other.cols_);
    other.epochs_ = nullptr;
    other.visible_rows_ = 0;
    other.valid_rows_ = 0;
  }
  return *this;
}

void Snapshot::Release() {
  if (epochs_ == nullptr) return;
  // Drop the view objects first — after Unpin their targets may be
  // reclaimed at any time.
  cols_.clear();
  visible_rows_ = 0;
  valid_rows_ = 0;
  EpochManager* epochs = epochs_;
  epochs_ = nullptr;
  epochs->Unpin(slot_);
  epochs->ReclaimExpired();
}

const ColumnReadView& Snapshot::View(size_t col) const {
  DM_CHECK_MSG(valid(), "read on a released snapshot");
  DM_CHECK_MSG(col < cols_.size(), "column index out of range");
  return *cols_[col];
}

template <typename Fn>
uint64_t Snapshot::AddParts(const ColumnReadView& view, bool masked,
                            Fn&& fn) const {
  std::vector<uint64_t> mask;
  uint64_t active = 0;
  if (masked || view.active_prefix > 0) {
    ReaderMutexLock lock(*mu_);
    if (masked) mask = validity_->CopyWordsAtTs(visible_rows_, read_ts_);
    if (view.active_prefix > 0) {
      active = fn(Part::kActive, masked ? mask.data() : nullptr);
    }
  }
  const uint64_t* valid = masked ? mask.data() : nullptr;
  return fn(Part::kMain, valid) + fn(Part::kFrozen, valid) + active;
}

uint64_t Snapshot::GetKey(size_t col, uint64_t row) const {
  const ColumnReadView& view = View(col);
  DM_CHECK_MSG(row < visible_rows_, "row beyond the snapshot horizon");
  if (row < view.pinned_rows) return view.GetKey(row);
  ReaderMutexLock lock(*mu_);
  return view.GetKey(row);
}

bool Snapshot::IsRowValid(uint64_t row) const {
  DM_CHECK_MSG(valid(), "read on a released snapshot");
  if (row >= visible_rows_) return false;
  ReaderMutexLock lock(*mu_);
  return validity_->IsValidAtTs(row, read_ts_);
}

uint64_t Snapshot::CountEquals(size_t col, uint64_t key,
                               bool only_valid) const {
  return CountRange(col, key, key, only_valid);
}

uint64_t Snapshot::CountRange(size_t col, uint64_t lo, uint64_t hi,
                              bool only_valid) const {
  const ColumnReadView& view = View(col);
  return AddParts(view, only_valid, [&](Part part, const uint64_t* valid) {
    // With a gate, the main partition's unmasked share enrolls in the
    // cooperative sweep (possibly riding a batch with concurrent queries).
    if (part == Part::kMain && gate_ != nullptr && valid == nullptr) {
      return gate_->Count(col, view.MainSpec(lo, hi));
    }
    return view.Count(part, lo, hi, valid);
  });
}

uint64_t Snapshot::SumColumn(size_t col, bool only_valid) const {
  const ColumnReadView& view = View(col);
  return AddParts(view, only_valid, [&](Part part, const uint64_t* valid) {
    return view.Sum(part, valid);
  });
}

std::vector<uint64_t> Snapshot::CollectEquals(size_t col, uint64_t key,
                                              bool only_valid) const {
  return CollectRange(col, key, key, only_valid);
}

std::vector<uint64_t> Snapshot::CollectRange(size_t col, uint64_t lo,
                                             uint64_t hi,
                                             bool only_valid) const {
  const ColumnReadView& view = View(col);
  std::vector<uint64_t> rows;
  view.Collect(Part::kMain, lo, hi, &rows);
  view.Collect(Part::kFrozen, lo, hi, &rows);
  if (view.active_prefix > 0 || only_valid) {
    ReaderMutexLock lock(*mu_);
    if (view.active_prefix > 0) view.Collect(Part::kActive, lo, hi, &rows);
    if (only_valid) {
      // Explicit compaction instead of std::erase_if: the analysis treats a
      // lambda as a separate function that does not hold *mu_, so the
      // IsRowValidLocked call must stay in this (locked) scope.
      size_t kept = 0;
      for (const uint64_t r : rows) {
        if (IsRowValidLocked(r)) rows[kept++] = r;
      }
      rows.resize(kept);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

uint64_t Snapshot::CountConjunction(
    std::span<const RangePredicate> preds) const {
  DM_CHECK_MSG(!preds.empty(), "a conjunction needs a predicate");
  const auto count_part = [&](Part part) -> uint64_t {
    if (part == Part::kMain) {
      // Every column merges together, so the main partitions share one
      // row count and one fused sweep covers them all.
      std::vector<simd::ConjunctPredicate> fused;
      uint64_t tuples = 0;
      for (const RangePredicate& p : preds) {
        const query::PackedScanSpec spec = View(p.column).MainSpec(p.lo, p.hi);
        if (!spec.match) return 0;
        fused.push_back({spec.codes, spec.c_lo, spec.c_hi});
        tuples = spec.tuples;
      }
      return simd::CountConjunctionPacked(fused, 0, tuples);
    }
    std::vector<uint64_t> hits;
    for (size_t i = 0; i < preds.size(); ++i) {
      std::vector<uint64_t> rows;
      View(preds[i].column).Collect(part, preds[i].lo, preds[i].hi, &rows);
      std::sort(rows.begin(), rows.end());
      if (i > 0) {
        std::vector<uint64_t> both;
        std::set_intersection(hits.begin(), hits.end(), rows.begin(),
                              rows.end(), std::back_inserter(both));
        rows = std::move(both);
      }
      hits = std::move(rows);
      if (hits.empty()) break;
    }
    return hits.size();
  };
  // Every view shares one active prefix, so the first one stands for all.
  return AddParts(View(preds[0].column), false,
                  [&](Part part, const uint64_t*) { return count_part(part); });
}

KeyCounts Snapshot::GroupCount(size_t col) const {
  const ColumnReadView& view = View(col);
  KeyCounts active;
  if (view.active_prefix > 0) {
    ReaderMutexLock lock(*mu_);
    active = view.GroupCount(Part::kActive);
  }
  KeyCounts counts = view.GroupCount(Part::kMain);
  AddKeyCounts(view.GroupCount(Part::kFrozen), &counts);
  AddKeyCounts(active, &counts);
  return counts;
}

}  // namespace deltamerge
