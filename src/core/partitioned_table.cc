// Copyright (c) 2026 The DeltaMerge Authors.

#include "core/partitioned_table.h"

#include <algorithm>
#include <latch>
#include <utility>

#include "util/cycle_clock.h"

namespace deltamerge {

// ---------------------------------------------------------------------------
// PartitionedTable
// ---------------------------------------------------------------------------

PartitionedTable::PartitionedTable(Schema schema, uint64_t segment_capacity,
                                   SegmentHooks* hooks,
                                   std::span<const RecoveredSegment> recovered)
    : schema_(std::move(schema)),
      segment_capacity_(segment_capacity),
      hooks_(hooks) {
  DM_CHECK_MSG(segment_capacity_ >= 1, "segment capacity must be positive");
  if (recovered.empty()) {
    auto seg = std::make_shared<Segment>();
    seg->base = 0;
    if (hooks_ != nullptr) {
      seg->table = hooks_->CreateSegment(0);
      DM_CHECK_MSG(seg->table != nullptr, "segment hook returned no table");
    } else {
      seg->owned = std::make_unique<Table>(schema_);
      seg->table = seg->owned.get();
    }
    segments_.push_back(std::move(seg));
    return;
  }
  for (size_t i = 0; i < recovered.size(); ++i) {
    DM_CHECK_MSG(recovered[i].table != nullptr,
                 "recovered segment without a table");
    const bool must_be_sealed = i + 1 < recovered.size();
    DM_CHECK_MSG(recovered[i].sealed == must_be_sealed,
                 "exactly the non-tail segments must be sealed");
    DM_CHECK_MSG(!must_be_sealed ||
                     recovered[i].table->num_rows() == segment_capacity_,
                 "a sealed segment must hold exactly the segment capacity");
    DM_CHECK_MSG(recovered[i].table->num_rows() <= segment_capacity_,
                 "a recovered segment exceeds the segment capacity");
    auto seg = std::make_shared<Segment>();
    seg->table = recovered[i].table;
    seg->base = i * segment_capacity_;
    seg->sealed.store(recovered[i].sealed, std::memory_order_relaxed);
    segments_.push_back(std::move(seg));
  }
}

size_t PartitionedTable::num_segments() const {
  ReaderMutexLock lock(segments_mu_);
  return segments_.size();
}

uint64_t PartitionedTable::num_rows() const {
  ReaderMutexLock lock(segments_mu_);
  const Segment& tail = *segments_.back();
  return tail.base + tail.table->num_rows();
}

std::vector<std::shared_ptr<PartitionedTable::Segment>>
PartitionedTable::CaptureSegments() const {
  ReaderMutexLock lock(segments_mu_);
  return segments_;
}

void PartitionedTable::EnableSharedScans(bool on) {
  // Flag write and current-segment sweep are one critical section on
  // segments_mu_, and rollover consults the flag under the same lock at
  // push time — so a racing rollover's segment either gets toggled by this
  // sweep (pushed first) or toggles itself (observed the flag). No segment
  // can miss the policy.
  WriterMutexLock lock(segments_mu_);
  shared_scans_.store(on, std::memory_order_relaxed);
  for (const auto& seg : segments_) {
    seg->table->EnableSharedScans(on);
  }
}

query::ScanGate::Stats PartitionedTable::shared_scan_stats() const {
  query::ScanGate::Stats total;
  for (const auto& seg : CaptureSegments()) {
    const query::ScanGate::Stats s = seg->table->shared_scan_stats();
    total.sweeps += s.sweeps;
    total.queries_served += s.queries_served;
    total.shared_queries += s.shared_queries;
    total.bypasses += s.bypasses;
  }
  return total;
}

std::shared_ptr<PartitionedTable::Segment> PartitionedTable::SlotAt(
    size_t i) const {
  ReaderMutexLock lock(segments_mu_);
  DM_CHECK_MSG(i < segments_.size(), "segment index out of range");
  return segments_[i];
}

template <typename Fn>
uint64_t PartitionedTable::FanOutSum(Fn&& fn) const {
  const std::vector<std::shared_ptr<Segment>> segs = CaptureSegments();
  TaskQueue* pool = read_pool_.load(std::memory_order_acquire);
  if (pool == nullptr || segs.size() < 2) {
    uint64_t total = 0;
    for (const auto& s : segs) total += fn(*s);
    return total;
  }
  // Per-call completion latch rather than TaskQueue::WaitAll: WaitAll
  // drains the whole pool, so one reader's aggregate would wait on every
  // other reader's (and a batch writer's) in-flight tasks — on a busy
  // shared pool that couples unrelated latencies and can starve a read.
  // The caller scans the last segment itself instead of parking in the
  // wait: same work, one fewer queued task, never an idle core.
  //
  // One slot per CACHE LINE, not per uint64_t: adjacent bare slots put up
  // to 8 workers' result stores on one line, and the resulting ownership
  // ping-pong taxes every fan-out read on multi-core hosts (quantified by
  // bench_sharded_scale's fan-out rows in the CI trajectory artifact).
  struct DM_CACHELINE_ALIGNED PaddedSum {
    uint64_t v = 0;
  };
  std::vector<PaddedSum> partial(segs.size());
  const size_t pooled = segs.size() - 1;
  std::latch done(static_cast<std::ptrdiff_t>(pooled));
  for (size_t i = 0; i < pooled; ++i) {
    pool->Submit([&fn, &partial, &segs, &done, i] {
      partial[i].v = fn(*segs[i]);
      done.count_down();
    });
  }
  partial[pooled].v = fn(*segs[pooled]);
  done.wait();
  uint64_t total = 0;
  for (const PaddedSum& p : partial) total += p.v;
  return total;
}

uint64_t PartitionedTable::valid_rows() const {
  return FanOutSum([](const Segment& s) { return s.table->valid_rows(); });
}

uint64_t PartitionedTable::delta_rows() const {
  return FanOutSum([](const Segment& s) { return s.table->delta_rows(); });
}

uint64_t PartitionedTable::tail_delta_rows() const {
  std::shared_ptr<Segment> tail;
  {
    ReaderMutexLock lock(segments_mu_);
    tail = segments_.back();
  }
  return tail->table->delta_rows();
}

std::shared_ptr<PartitionedTable::Segment> PartitionedTable::TailLocked()
    const {
  ReaderMutexLock lock(segments_mu_);
  return segments_.back();
}

void PartitionedTable::RollOverIfFullLocked() {
  // tail_mu_ (held) keeps the tail identity stable: rollover is the vector's
  // only mutator and every rollover holds tail_mu_. The vector accesses
  // themselves still go through segments_mu_ — briefly shared for the reads
  // below, exclusively for the push — so every touch of segments_ is under
  // its guarding lock, on the writer path too.
  std::shared_ptr<Segment> tail;
  size_t index;
  {
    ReaderMutexLock lock(segments_mu_);
    tail = segments_.back();
    index = segments_.size();
  }
  if (tail->table->num_rows() < segment_capacity_) return;
  tail->sealed.store(true, std::memory_order_release);
  auto seg = std::make_shared<Segment>();
  seg->base = index * segment_capacity_;
  if (hooks_ != nullptr) {
    // The hook installs the segment durably (manifest fsync) before
    // returning — deliberately outside segments_mu_, so readers are never
    // blocked behind rollover I/O.
    seg->table = hooks_->CreateSegment(index);
    DM_CHECK_MSG(seg->table != nullptr, "segment hook returned no table");
  } else {
    seg->owned = std::make_unique<Table>(schema_);
    seg->table = seg->owned.get();
  }
  WriterMutexLock lock(segments_mu_);
  // Policy check under segments_mu_: EnableSharedScans sweeps the vector
  // under the same lock, so this push either observes its flag write or
  // happens first and is covered by its sweep — no segment is missed.
  if (shared_scans_.load(std::memory_order_relaxed)) {
    seg->table->EnableSharedScans(true);
  }
  segments_.push_back(std::move(seg));
}

std::shared_ptr<PartitionedTable::Segment>
PartitionedTable::AcquireTailForAppendLocked() {
  // The only fill read an appender may trust is one taken under the tail's
  // commit lock: a predecessor appender that entered that lock under an
  // EARLIER tail_mu_ hold (and has since released tail_mu_) may fill the
  // last slot while we wait on the lock, so the rollover pre-check below is
  // stale by the time the lock comes through. Re-check under the lock and
  // retry: the fill is monotone (appends only; deletes just invalidate), so
  // a full-under-lock read stays full, the retry's rollover takes it, and —
  // because tail_mu_ (held throughout) is the only gate to a tail commit
  // lock for appenders — the fresh tail cannot fill behind us: the loop
  // runs at most twice.
  for (;;) {
    RollOverIfFullLocked();
    std::shared_ptr<Segment> tail = TailLocked();
    tail->commit_mu.lock();
    if (tail->table->num_rows() < segment_capacity_) return tail;
    tail->commit_mu.unlock();
  }
}

uint64_t PartitionedTable::InsertRow(std::span<const uint64_t> keys) {
  // tail_mu_ covers only rollover + tail selection + commit-lock entry;
  // the append itself runs under the tail's commit lock alone, so inserts
  // overlap with commits into sealed segments. The returned tail has its
  // fill verified UNDER the commit lock (see AcquireTailForAppendLocked),
  // so the row cannot overflow the capacity.
  tail_mu_.lock();
  const std::shared_ptr<Segment> tail = AcquireTailForAppendLocked();
  AssertCommitHeld(*tail);
  tail_mu_.unlock();
  const uint64_t row = tail->table->InsertRow(keys);
  tail->commit_mu.unlock();
  return tail->base + row;
}

uint64_t PartitionedTable::InsertRows(std::span<const uint64_t> row_major_keys,
                                      uint64_t num_rows, TaskQueue* queue) {
  const size_t nc = schema_.columns.size();
  DM_CHECK_MSG(row_major_keys.size() == num_rows * nc,
               "batch size does not match row count x column count");
  // Sharing one queue between batch ingest and fan-out reads deadlocks:
  // the segment's InsertRows drains the queue while holding its exclusive
  // lock, and a concurrent reader's fan-out task needs that lock shared.
  DM_CHECK_MSG(queue == nullptr ||
                   queue != read_pool_.load(std::memory_order_acquire),
               "the batch queue must not be the attached read pool");
  MutexLock lock(tail_mu_);
  if (num_rows == 0) {
    const std::shared_ptr<Segment> tail = TailLocked();
    return tail->base + tail->table->num_rows();
  }
  uint64_t first = 0;
  bool first_set = false;
  uint64_t done = 0;
  while (done < num_rows) {
    RollOverIfFullLocked();
    const std::shared_ptr<Segment> tail = TailLocked();
    // The chunk appends under the tail's commit lock (the per-segment
    // append invariant); tail_mu_ stays held across the loop so the batch
    // remains one contiguous run of global row ids across rollovers.
    MutexLock commit_lock(tail->commit_mu);
    const uint64_t room = segment_capacity_ - tail->table->num_rows();
    if (room == 0) continue;  // pre-check was stale (a predecessor appender
                              // filled the tail while we waited on its
                              // commit lock); the re-run rollover sees the
                              // full segment and rolls over for real.
    const uint64_t n = std::min(room, num_rows - done);
    const uint64_t local =
        tail->table->InsertRows(row_major_keys.subspan(done * nc, n * nc), n,
                                queue);
    if (!first_set) {
      first = tail->base + local;
      first_set = true;
    }
    done += n;
  }
  return first;
}

uint64_t PartitionedTable::UpdateRow(uint64_t global_row,
                                     std::span<const uint64_t> keys) {
  // Like InsertRow, only a fill read taken under the tail's commit lock is
  // trustworthy — the rollover pre-check can go stale while we wait on a
  // predecessor appender holding that lock. Unlike InsertRow the routing
  // depends on the segment list (tail-owner vs cross-segment vs beyond-
  // size), and the cross-segment path must take the owner's commit lock
  // BEFORE the tail's (ascending order), so the re-check cannot be folded
  // into AcquireTailForAppendLocked: each retry releases every commit
  // lock, rolls over, and re-classifies from scratch — a tail-owner update
  // whose tail just sealed correctly re-routes to the cross-segment path.
  // The fill is monotone and tail_mu_ (held) gates all tail appenders, so
  // the loop runs at most twice.
  tail_mu_.lock();
  for (;;) {
    RollOverIfFullLocked();
    std::shared_ptr<Segment> tail;
    std::shared_ptr<Segment> old_seg;
    size_t num_segs;
    {
      ReaderMutexLock slock(segments_mu_);
      tail = segments_.back();
      num_segs = segments_.size();
      const size_t owner =
          static_cast<size_t>(global_row / segment_capacity_);
      if (owner + 1 < num_segs) old_seg = segments_[owner];
    }
    // Out-of-range targets are accepted exactly like Table::UpdateRow: the
    // fresh version is appended and nothing is invalidated. The live path
    // and WAL replay must agree on this, so the sharded front door must not
    // be stricter than the segment write path it logs through.
    const size_t owner = static_cast<size_t>(global_row / segment_capacity_);
    if (owner + 1 == num_segs) {
      // The superseded row lives in the open tail: the segment's own
      // insert-only update is one atomic operation (and, durably, ONE
      // kUpdate record — both halves recover or neither does).
      tail->commit_mu.lock();
      if (tail->table->num_rows() == segment_capacity_) {
        tail->commit_mu.unlock();
        continue;  // stale pre-check: re-roll and re-classify
      }
      tail_mu_.unlock();
      const uint64_t new_row =
          tail->table->UpdateRow(global_row - tail->base, keys);
      tail->commit_mu.unlock();
      return tail->base + new_row;
    }
    // Cross-segment (or out-of-range): commit locks ascending — the owner
    // (when it exists) is always below the tail — then release tail_mu_ so
    // disjoint writers proceed. Fresh version into the tail FIRST, then the
    // tombstone in the owning sealed segment — the same insert-then-
    // invalidate order a single-segment update applies, so a crash between
    // the halves leaves a state on the schedule's single-row-operation
    // prefix lattice, never an invented one (the recovery tests rely on
    // this order).
    if (old_seg == nullptr) {
      // Beyond-size target: liberal degrade to a plain tail insert.
      tail->commit_mu.lock();
      if (tail->table->num_rows() == segment_capacity_) {
        tail->commit_mu.unlock();
        continue;  // stale pre-check: re-roll and re-classify
      }
      tail_mu_.unlock();
      const uint64_t new_row = tail->base + tail->table->InsertRow(keys);
      tail->commit_mu.unlock();
      return new_row;
    }
    old_seg->commit_mu.lock();
    tail->commit_mu.lock();
    if (tail->table->num_rows() == segment_capacity_) {
      tail->commit_mu.unlock();
      old_seg->commit_mu.unlock();
      continue;  // stale pre-check: re-roll and re-classify
    }
    tail_mu_.unlock();
    const uint64_t new_row = tail->base + tail->table->InsertRow(keys);
    (void)old_seg->table->DeleteRow(global_row - old_seg->base);
    tail->commit_mu.unlock();
    old_seg->commit_mu.unlock();
    return new_row;
  }
}

Status PartitionedTable::DeleteRow(uint64_t global_row) {
  // Never touches tail_mu_: a tombstone in segment k only needs k's commit
  // lock, so deletes into sealed segments run concurrently with tail
  // ingest and with commits into other segments.
  const size_t owner = static_cast<size_t>(global_row / segment_capacity_);
  std::shared_ptr<Segment> seg;
  {
    ReaderMutexLock slock(segments_mu_);
    if (owner >= segments_.size()) {
      return Status::OutOfRange("row id beyond table size");
    }
    seg = segments_[owner];
  }
  MutexLock commit_lock(seg->commit_mu);
  return seg->table->DeleteRow(global_row - seg->base);
}

// ---------------------------------------------------------------------------
// Optimistic multi-row transactions
// ---------------------------------------------------------------------------

bool PartitionedTable::Transaction::ReadRowValid(uint64_t global_row) {
  DM_CHECK_MSG(table_ != nullptr, "transaction already committed or aborted");
  const bool valid = table_->IsRowValid(global_row);
  readset_.push_back(TxnRead{global_row, valid});
  return valid;
}

void PartitionedTable::Transaction::Insert(std::span<const uint64_t> keys) {
  DM_CHECK_MSG(table_ != nullptr, "transaction already committed or aborted");
  DM_CHECK_MSG(keys.size() == table_->num_columns(),
               "key count does not match column count");
  ops_.push_back(TxnOp{TxnOp::Kind::kInsert, 0,
                       std::vector<uint64_t>(keys.begin(), keys.end())});
}

void PartitionedTable::Transaction::Update(uint64_t global_row,
                                           std::span<const uint64_t> keys) {
  DM_CHECK_MSG(table_ != nullptr, "transaction already committed or aborted");
  DM_CHECK_MSG(keys.size() == table_->num_columns(),
               "key count does not match column count");
  ops_.push_back(TxnOp{TxnOp::Kind::kUpdate, global_row,
                       std::vector<uint64_t>(keys.begin(), keys.end())});
}

void PartitionedTable::Transaction::Delete(uint64_t global_row) {
  DM_CHECK_MSG(table_ != nullptr, "transaction already committed or aborted");
  ops_.push_back(TxnOp{TxnOp::Kind::kDelete, global_row, {}});
}

void PartitionedTable::Transaction::Abort() {
  ops_.clear();
  readset_.clear();
  table_ = nullptr;
}

Status PartitionedTable::Transaction::Commit() {
  DM_CHECK_MSG(table_ != nullptr, "transaction already committed or aborted");
  PartitionedTable* table = table_;
  table_ = nullptr;  // consumed either way
  const Status st = table->CommitTxn(ops_, readset_);
  ops_.clear();
  readset_.clear();
  return st;
}

// --- SegmentCommitLockSet -------------------------------------------------

PartitionedTable::SegmentCommitLockSet::SegmentCommitLockSet(
    std::vector<std::shared_ptr<Segment>> segments)
    : segments_(std::move(segments)) {
  // DM_NO_THREAD_SAFETY_ANALYSIS: a vector of capabilities is
  // inexpressible to the analysis. The deadlock-freedom invariant —
  // ascending segment order — is checked here instead.
  for (size_t i = 0; i < segments_.size(); ++i) {
    DM_CHECK_MSG(i == 0 || segments_[i - 1]->base < segments_[i]->base,
                 "commit locks must be acquired in ascending segment order");
    segments_[i]->commit_mu.lock();
  }
}

PartitionedTable::SegmentCommitLockSet::~SegmentCommitLockSet() {
  for (size_t i = segments_.size(); i-- > 0;) {
    segments_[i]->commit_mu.unlock();
  }
}

void PartitionedTable::SegmentCommitLockSet::Add(
    std::shared_ptr<Segment> seg) {
  DM_CHECK_MSG(segments_.empty() || segments_.back()->base < seg->base,
               "commit locks must be acquired in ascending segment order");
  seg->commit_mu.lock();
  segments_.push_back(std::move(seg));
}

// --- commit decomposition -------------------------------------------------

namespace {

/// One per-segment run of a decomposed transaction, in buffer order.
struct OpGroup {
  size_t seg_index;
  std::vector<TxnOp> ops;  ///< target rows rebased to the segment
};

/// Decomposes a global-row op buffer into per-segment groups (contiguous
/// runs in buffer order, target rows rebased to the segment). The tail is
/// simulated from (tail_index, tail_rows) so inserts past the capacity
/// route to the segment a mid-commit rollover will create. Pure: the
/// caller supplies a fill read under the tail's commit lock, so the
/// simulation matches what the apply phase will do.
std::vector<OpGroup> BuildGroups(std::span<const TxnOp> ops,
                                 uint64_t segment_capacity, size_t tail_index,
                                 uint64_t tail_rows) {
  std::vector<OpGroup> groups;
  const auto route = [&groups](size_t seg_index) -> std::vector<TxnOp>& {
    if (groups.empty() || groups.back().seg_index != seg_index) {
      groups.push_back(OpGroup{seg_index, {}});
    }
    return groups.back().ops;
  };
  size_t sim_tail = tail_index;
  uint64_t sim_tail_rows = tail_rows;
  for (const TxnOp& op : ops) {
    switch (op.kind) {
      case TxnOp::Kind::kInsert:
      case TxnOp::Kind::kUpdate: {
        // Both append a fresh version to the (possibly rolled-over) tail.
        if (sim_tail_rows == segment_capacity) {
          ++sim_tail;
          sim_tail_rows = 0;
        }
        const size_t owner =
            static_cast<size_t>(op.target_row / segment_capacity);
        if (op.kind == TxnOp::Kind::kUpdate && owner == sim_tail) {
          // Superseded row lives in the open tail: the segment's own
          // insert-only update stays one atomic op inside its group.
          route(sim_tail).push_back(
              TxnOp{TxnOp::Kind::kUpdate,
                    op.target_row - sim_tail * segment_capacity, op.keys});
          ++sim_tail_rows;
          break;
        }
        const uint64_t sim_rows = sim_tail * segment_capacity + sim_tail_rows;
        route(sim_tail).push_back(TxnOp{TxnOp::Kind::kInsert, 0, op.keys});
        ++sim_tail_rows;
        if (op.kind == TxnOp::Kind::kUpdate && op.target_row < sim_rows) {
          // Cross-segment update: fresh version first (just routed), then
          // the tombstone in the owning segment — the same
          // insert-then-invalidate order the single-row path applies.
          route(owner).push_back(
              TxnOp{TxnOp::Kind::kDelete,
                    op.target_row - owner * segment_capacity, {}});
        }
        // An update whose target is beyond every (simulated) row degrades
        // to a plain insert — the liberal contract UpdateRow documents.
        break;
      }
      case TxnOp::Kind::kDelete: {
        const uint64_t sim_rows = sim_tail * segment_capacity + sim_tail_rows;
        if (op.target_row >= sim_rows) break;  // liberal no-op
        const size_t owner =
            static_cast<size_t>(op.target_row / segment_capacity);
        route(owner).push_back(
            TxnOp{TxnOp::Kind::kDelete,
                  op.target_row - owner * segment_capacity, {}});
        break;
      }
    }
  }
  return groups;
}

/// The segment indices a transaction's locks must cover before validation:
/// owners of every readset row and every update/delete target, clipped to
/// the segments that exist (`num_segments`). Ascending and deduplicated —
/// the acquisition order SegmentCommitLockSet enforces.
std::vector<size_t> TouchedSegments(std::span<const TxnOp> ops,
                                    std::span<const TxnRead> readset,
                                    uint64_t segment_capacity,
                                    size_t num_segments) {
  std::vector<size_t> indices;
  const auto add = [&](uint64_t global_row) {
    const size_t owner = static_cast<size_t>(global_row / segment_capacity);
    if (owner < num_segments) indices.push_back(owner);
  };
  for (const TxnRead& e : readset) add(e.row);
  for (const TxnOp& op : ops) {
    if (op.kind != TxnOp::Kind::kInsert) add(op.target_row);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

}  // namespace

Status PartitionedTable::CommitSegmentGroupLocked(
    Segment& seg, std::span<const TxnOp> ops,
    std::span<const TxnRead> readset) {
  // One atomic Table-level step: validate + stamp + apply + journal under
  // a single exclusive acquisition of the segment's internal lock, as ONE
  // kTxnCommit record acknowledged through the group-commit boarding path
  // — committers of different segments acknowledge genuinely concurrently.
  return seg.table->CommitTxnOps(ops, readset);
}

Status PartitionedTable::CommitTxn(std::span<const TxnOp> ops,
                                   std::span<const TxnRead> readset) {
  // Classify at commit time: a transaction with no appends (deletes +
  // reads only) never needs the tail and never touches tail_mu_; an
  // append-bearing one coordinates rollover and tail selection through a
  // short tail_mu_ section and keeps it across the apply only when it
  // straddles a rollover.
  size_t appends = 0;
  for (const TxnOp& op : ops) {
    if (op.kind != TxnOp::Kind::kDelete) ++appends;
  }
  const Status st = appends == 0 ? CommitSealedOnlyTxn(ops, readset)
                                 : CommitAppendTxn(ops, readset, appends);
  if (st.ok()) {
    txn_commits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    txn_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Status PartitionedTable::CommitSealedOnlyTxn(std::span<const TxnOp> ops,
                                             std::span<const TxnRead> readset) {
  // Sealed-only shape (the tail may still be touched by a delete or a
  // readset row — then its commit lock joins the set like any other
  // owner's). No tail_mu_, so the segment list can grow between the
  // capture and the lock acquisition: re-capture after locking and extend
  // the set until it covers every touched owner that exists. New segments
  // only ever append at larger indices, so every extension stays ascending
  // and each round either finishes or locks at least one more of the
  // finitely many touched owners.
  SegmentCommitLockSet locks;
  std::vector<std::shared_ptr<Segment>> segs;
  for (;;) {
    segs = CaptureSegments();
    const std::vector<size_t> need =
        TouchedSegments(ops, readset, segment_capacity_, segs.size());
    bool extended = false;
    for (const size_t idx : need) {
      if (locks.segments().empty() ||
          segs[idx]->base > locks.segments().back()->base) {
        locks.Add(segs[idx]);
        extended = true;
      }
    }
    if (!extended) break;
  }
  const uint64_t tail_rows = segs.back()->table->num_rows();
  return CommitTxnLockedSet(ops, readset, /*appends=*/0, segs, &locks,
                            /*straddles=*/false, tail_rows);
}

Status PartitionedTable::CommitAppendTxn(std::span<const TxnOp> ops,
                                         std::span<const TxnRead> readset,
                                         size_t appends) {
  // Append-bearing: tail_mu_ freezes the segment list (rollover is its
  // only mutator), so one capture is authoritative. Acquire the commit
  // locks of every touched segment plus the tail, ascending (the tail is
  // always the maximum index).
  tail_mu_.lock();
  RollOverIfFullLocked();
  const std::vector<std::shared_ptr<Segment>> segs = CaptureSegments();
  std::vector<size_t> need =
      TouchedSegments(ops, readset, segment_capacity_, segs.size());
  if (need.empty() || need.back() != segs.size() - 1) {
    need.push_back(segs.size() - 1);
  }
  SegmentCommitLockSet locks;
  for (const size_t idx : need) locks.Add(segs[idx]);
  // The fill read under the tail's commit lock is frozen: every appender
  // holds that lock (a waiter who queued behind us at RollOverIfFullLocked
  // time may have filled the tail before our commit lock came through —
  // this read, not the rollover check, is what the classification trusts).
  const uint64_t tail_rows = segs.back()->table->num_rows();
  if (tail_rows + appends <= segment_capacity_) {
    // Fast path: the transaction fits the open tail, so no mid-commit
    // rollover can occur — release tail_mu_ before validate/apply and let
    // disjoint writers commit in parallel.
    tail_mu_.unlock();
    return CommitTxnLockedSet(ops, readset, appends, segs, &locks,
                              /*straddles=*/false, tail_rows);
  }
  // Straddling path: the commit spans a rollover, which must happen under
  // tail_mu_ — keep it for the whole apply (at most one commit per
  // segment_capacity fills pays this serialization).
  const Status st = CommitTxnLockedSet(ops, readset, appends, segs, &locks,
                                       /*straddles=*/true, tail_rows);
  tail_mu_.unlock();
  return st;
}

Status PartitionedTable::CommitTxnLockedSet(
    std::span<const TxnOp> ops, std::span<const TxnRead> readset,
    size_t appends, const std::vector<std::shared_ptr<Segment>>& segs,
    SegmentCommitLockSet* locks, bool straddles, uint64_t tail_rows) {
  // Readset rows whose owner segment does not exist serialize this
  // transaction BEFORE any transaction that creates them: the observation
  // must have been "invalid", and it holds at our serialization point
  // because the segment list was re-checked after every lock was taken
  // (sealed-only path) or is frozen under tail_mu_ (append paths).
  for (const TxnRead& e : readset) {
    const size_t owner = static_cast<size_t>(e.row / segment_capacity_);
    if (owner >= segs.size() && e.observed_valid) {
      return Status::Aborted("transaction readset conflict");
    }
  }

  // Single-segment classification: every op and every existing readset row
  // lands in ONE segment — validate + apply through that segment Table's
  // atomic CommitTxnOps, with rows rebased to its local domain. This is
  // the disjoint-writer fast path: nothing here touches any shared
  // PartitionedTable state.
  const std::vector<OpGroup> groups =
      BuildGroups(ops, segment_capacity_, segs.size() - 1, tail_rows);
  if (locks->segments().size() == 1 &&
      (groups.empty() ||
       (groups.size() == 1 && groups[0].seg_index < segs.size() &&
        segs[groups[0].seg_index].get() == locks->segments()[0].get()))) {
    Segment& seg = *locks->segments()[0];
    std::vector<TxnRead> local_reads;
    local_reads.reserve(readset.size());
    for (const TxnRead& e : readset) {
      const size_t owner = static_cast<size_t>(e.row / segment_capacity_);
      if (owner >= segs.size()) continue;  // validated above
      local_reads.push_back(TxnRead{e.row - seg.base, e.observed_valid});
    }
    AssertCommitHeld(seg);
    const std::span<const TxnOp> local_ops =
        groups.empty() ? std::span<const TxnOp>()
                       : std::span<const TxnOp>(groups[0].ops);
    return CommitSegmentGroupLocked(seg, local_ops, local_reads);
  }

  // Cross-segment: two-phase validate-then-install. Phase 1 validates each
  // involved segment's readset slice under its (held) commit lock; phase 2
  // installs the groups in buffer order with empty readsets — each as ONE
  // journaled kTxnCommit record, acknowledged before the next group
  // appends, so recovery can only tear at group boundaries (invariant 14).
  for (const std::shared_ptr<Segment>& seg : locks->segments()) {
    std::vector<TxnRead> local_reads;
    for (const TxnRead& e : readset) {
      const size_t owner = static_cast<size_t>(e.row / segment_capacity_);
      if (owner < segs.size() && segs[owner].get() == seg.get()) {
        local_reads.push_back(TxnRead{e.row - seg->base, e.observed_valid});
      }
    }
    if (!local_reads.empty() && !seg->table->ValidateReadset(local_reads)) {
      return Status::Aborted("transaction readset conflict");
    }
  }
  if (ops.empty()) return Status::OK();

  for (const OpGroup& group : groups) {
    std::shared_ptr<Segment> seg;
    if (group.seg_index < segs.size()) {
      seg = segs[group.seg_index];
    } else {
      // The simulation filled the previous tail exactly; materialize the
      // next segment (legal: the straddling path holds tail_mu_, and a
      // new segment's index exceeds every held lock, so adding it keeps
      // the acquisition order ascending). A transaction whose op buffer
      // revisits the rolled-over segment (insert, delete, insert) hits
      // this branch twice for the same index — materialization is
      // idempotent and locks each new segment exactly once.
      DM_CHECK_MSG(straddles && appends > 0,
                   "only a straddling commit can roll the tail over");
      seg = MaterializeTailForCommitLocked(group.seg_index, locks);
    }
    // A miss here would be an appender or tombstoner outside its lock —
    // TouchedSegments plus the tail covers every routed group by
    // construction; keep the invariant loud.
    DM_CHECK_MSG(locks->Holds(*seg),
                 "commit group outside the acquired lock set");
    AssertCommitHeld(*seg);
    const Status st = CommitSegmentGroupLocked(*seg, group.ops, {});
    DM_CHECK_MSG(st.ok(), "a readset-free group commit cannot abort");
  }
  return Status::OK();
}

std::shared_ptr<PartitionedTable::Segment>
PartitionedTable::MaterializeTailForCommitLocked(size_t seg_index,
                                                 SegmentCommitLockSet* locks) {
  RollOverIfFullLocked();
  std::shared_ptr<Segment> seg = SlotAt(seg_index);
  if (!locks->Holds(*seg)) locks->Add(seg);
  return seg;
}

uint64_t PartitionedTable::GetKey(size_t col, uint64_t global_row) const {
  const size_t owner = global_row / segment_capacity_;
  std::shared_ptr<Segment> seg;
  {
    ReaderMutexLock lock(segments_mu_);
    DM_CHECK_MSG(owner < segments_.size(), "global row id beyond table size");
    seg = segments_[owner];
  }
  return seg->table->GetKey(col, global_row - seg->base);
}

bool PartitionedTable::IsRowValid(uint64_t global_row) const {
  const size_t owner = global_row / segment_capacity_;
  std::shared_ptr<Segment> seg;
  {
    ReaderMutexLock lock(segments_mu_);
    if (owner >= segments_.size()) return false;
    seg = segments_[owner];
  }
  return seg->table->IsRowValid(global_row - seg->base);
}

uint64_t PartitionedTable::CountEquals(size_t col, uint64_t key) const {
  return FanOutSum(
      [&](const Segment& s) { return s.table->CountEquals(col, key); });
}

uint64_t PartitionedTable::CountRange(size_t col, uint64_t lo,
                                      uint64_t hi) const {
  return FanOutSum(
      [&](const Segment& s) { return s.table->CountRange(col, lo, hi); });
}

uint64_t PartitionedTable::SumColumn(size_t col) const {
  return FanOutSum([&](const Segment& s) { return s.table->SumColumn(col); });
}

PartitionedSnapshot PartitionedTable::CreateSnapshot() const {
  PartitionedSnapshot out;
  // Atomic at logical-operation granularity: tail_mu_ excludes rollovers
  // and straddling commits, and holding EVERY segment's commit lock
  // excludes the commits that no longer serialize on tail_mu_ (fast-path
  // transactions, sealed-only transactions, bare deletes) — so no
  // cross-segment operation is mid-flight while the per-segment epochs
  // pin. tail_mu_ first, commit locks ascending: the global lock order.
  // Readers are unaffected (they take none of these locks), and
  // per-segment merge commits need no exclusion — each segment Snapshot
  // is commit-proof on its own.
  //
  // COST (deliberate, documented in the header and ARCHITECTURE.md):
  // capture blocks every writer for its duration, and that duration is
  // O(num_segments) lock acquisitions plus the drain of any in-flight
  // commit — including a single-row writer's group-commit fsync, which is
  // acknowledged under its segment's commit lock. The per-segment shared-
  // capture scheme this replaced (PR 5) was cheaper to create but could
  // interleave with the multi-segment commits PR 9 introduced, tearing a
  // cross-segment transaction in the capture. Snapshot-heavy workloads
  // should amortize: one capture serves any number of reads. Revisit with
  // per-segment epoch capture + a validation pass if capture latency ever
  // shows up in bench_sharded_scale's snapshot rows.
  MutexLock wlock(tail_mu_);
  SegmentCommitLockSet locks(CaptureSegments());
  out.segment_capacity_ = segment_capacity_;
  out.num_columns_ = schema_.columns.size();
  out.segments_.reserve(locks.segments().size());
  for (const auto& s : locks.segments()) {
    PartitionedSnapshot::SegmentView v;
    v.base = s->base;
    v.snap = s->table->CreateSnapshot();
    out.valid_rows_ += v.snap.valid_rows();
    out.segments_.push_back(std::move(v));
  }
  const PartitionedSnapshot::SegmentView& tail = out.segments_.back();
  out.visible_rows_ = tail.base + tail.snap.num_rows();
  return out;
}

PartitionedMergeReport PartitionedTable::MergeDueSegments(
    const MergeDaemonPolicy& policy, const TableMergeOptions& options,
    double tail_delta_rows_per_sec, std::atomic<bool>* merge_in_flight) {
  PartitionedMergeReport report;
  const std::vector<std::shared_ptr<Segment>> segs = CaptureSegments();
  for (const auto& seg : segs) {
    const bool sealed = seg->sealed.load(std::memory_order_acquire);
    if (sealed && seg->final_merged.load(std::memory_order_acquire)) {
      // Final-merged segments never merge again — but their journals keep
      // accumulating tombstone records from later deletes/updates of their
      // rows, and without re-checkpointing that backlog replays on every
      // reopen, forever. Evaluate the compaction trigger instead.
      CompactIfDue(*seg, policy, &report);
      continue;
    }
    bool is_final = false;
    if (sealed) {
      // A sealed segment never gains delta tuples again (only tombstones),
      // so any delta it still carries gets one final merge; a clean one is
      // marked delta-free without merging.
      if (seg->table->delta_rows() == 0) {
        seg->final_merged.store(true, std::memory_order_release);
        continue;
      }
      is_final = true;
    } else if (EvaluateMergeTrigger(*seg->table, policy, options.num_threads,
                                    tail_delta_rows_per_sec) ==
               MergeTrigger::kNone) {
      continue;
    }
    if (merge_in_flight != nullptr) {
      merge_in_flight->store(true, std::memory_order_release);
    }
    auto result = seg->table->Merge(options);
    if (merge_in_flight != nullptr) {
      merge_in_flight->store(false, std::memory_order_release);
    }
    if (!result.ok()) {  // segment merge already running; skip
      ++report.failed_merges;
      continue;
    }
    const TableMergeReport& r = result.ValueOrDie();
    report.table.stats.Accumulate(r.stats);
    report.table.wall_cycles += r.wall_cycles;
    report.table.rows_merged += r.rows_merged;
    report.max_segment_wall_cycles =
        std::max(report.max_segment_wall_cycles, r.wall_cycles);
    ++report.segments_merged;
    if (is_final && seg->table->delta_rows() == 0) {
      seg->final_merged.store(true, std::memory_order_release);
      ++report.final_merges;
    }
  }
  return report;
}

void PartitionedTable::CompactIfDue(Segment& seg,
                                    const MergeDaemonPolicy& policy,
                                    PartitionedMergeReport* report) {
  if (policy.compact_uncheckpointed_records == 0) return;  // disabled
  TableJournal* journal = seg.table->journal();
  if (journal == nullptr) return;  // in-memory segment: nothing to replay
  const uint64_t backlog = journal->UncheckpointedRecords();
  if (backlog < policy.compact_uncheckpointed_records) return;
  if (backlog <= seg.compact_failed_at.load(std::memory_order_acquire)) {
    return;  // already failed at this backlog; wait for it to grow
  }
  if (seg.table->CompactCheckpoint().ok()) {
    seg.compact_failed_at.store(0, std::memory_order_release);
    ++report->segments_compacted;
  } else {
    seg.compact_failed_at.store(backlog, std::memory_order_release);
    ++report->failed_compactions;
  }
}

PartitionedMergeReport PartitionedTable::MergeAll(
    const TableMergeOptions& options) {
  MergeDaemonPolicy everything;
  everything.delta_fraction = 0.0;
  everything.min_delta_rows = 1;
  everything.rate_lookahead = false;
  return MergeDueSegments(everything, options);
}

// ---------------------------------------------------------------------------
// PartitionedSnapshot
// ---------------------------------------------------------------------------

PartitionedSnapshot& PartitionedSnapshot::operator=(
    PartitionedSnapshot&& other) noexcept {
  if (this != &other) {
    segments_ = std::exchange(other.segments_, {});
    segment_capacity_ = other.segment_capacity_;
    visible_rows_ = std::exchange(other.visible_rows_, 0);
    valid_rows_ = std::exchange(other.valid_rows_, 0);
    num_columns_ = std::exchange(other.num_columns_, 0);
  }
  return *this;
}

void PartitionedSnapshot::Release() {
  segments_.clear();
  visible_rows_ = 0;
  valid_rows_ = 0;
  num_columns_ = 0;
}

const std::vector<PartitionedSnapshot::SegmentView>&
PartitionedSnapshot::Segments() const {
  DM_CHECK_MSG(valid(), "read on a released snapshot");
  return segments_;
}

uint64_t PartitionedSnapshot::GetKey(size_t col, uint64_t global_row) const {
  const std::vector<SegmentView>& segs = Segments();
  DM_CHECK_MSG(global_row < visible_rows_, "row beyond the snapshot horizon");
  const SegmentView& v = segs[global_row / segment_capacity_];
  return v.snap.GetKey(col, global_row - v.base);
}

bool PartitionedSnapshot::IsRowValid(uint64_t global_row) const {
  const std::vector<SegmentView>& segs = Segments();
  if (global_row >= visible_rows_) return false;
  const SegmentView& v = segs[global_row / segment_capacity_];
  return v.snap.IsRowValid(global_row - v.base);
}

uint64_t PartitionedSnapshot::CountEquals(size_t col, uint64_t key,
                                          bool only_valid) const {
  return CountRange(col, key, key, only_valid);
}

uint64_t PartitionedSnapshot::CountRange(size_t col, uint64_t lo, uint64_t hi,
                                         bool only_valid) const {
  return SumSegments([&](const Snapshot& s) {
    return s.CountRange(col, lo, hi, only_valid);
  });
}

uint64_t PartitionedSnapshot::SumColumn(size_t col, bool only_valid) const {
  return SumSegments(
      [&](const Snapshot& s) { return s.SumColumn(col, only_valid); });
}

std::vector<uint64_t> PartitionedSnapshot::CollectEquals(
    size_t col, uint64_t key, bool only_valid) const {
  return CollectRange(col, key, key, only_valid);
}

std::vector<uint64_t> PartitionedSnapshot::CollectRange(
    size_t col, uint64_t lo, uint64_t hi, bool only_valid) const {
  std::vector<uint64_t> out;
  for (const SegmentView& v : Segments()) {
    // Per-segment results are ascending and bases are increasing, so the
    // concatenation stays globally sorted.
    for (uint64_t local : v.snap.CollectRange(col, lo, hi, only_valid)) {
      out.push_back(v.base + local);
    }
  }
  return out;
}

uint64_t PartitionedSnapshot::CountConjunction(
    std::span<const RangePredicate> preds) const {
  return SumSegments(
      [&](const Snapshot& s) { return s.CountConjunction(preds); });
}

KeyCounts PartitionedSnapshot::GroupCount(size_t col) const {
  KeyCounts counts;
  for (const SegmentView& v : Segments()) {
    AddKeyCounts(v.snap.GroupCount(col), &counts);
  }
  return counts;
}

// ---------------------------------------------------------------------------
// PartitionedMergeDaemon
// ---------------------------------------------------------------------------

PartitionedMergeDaemon::PartitionedMergeDaemon(PartitionedTable* table,
                                               MergeDaemonPolicy policy,
                                               TableMergeOptions options)
    : table_(table),
      policy_(policy),
      options_(options),
      poller_(policy.poll_interval_us, [this] { PollOnce(); }) {
  DM_CHECK(table != nullptr);
}

PartitionedMergeDaemon::~PartitionedMergeDaemon() { Stop(); }

void PartitionedMergeDaemon::Start() {
  MutexLock lock(lifecycle_mu_);
  if (poller_.running()) return;
  rate_.Reset(table_->tail_delta_rows());
  poller_.Start();
}

void PartitionedMergeDaemon::Stop() { poller_.Stop(); }

void PartitionedMergeDaemon::Nudge() { poller_.Nudge(); }

void PartitionedMergeDaemon::Pause() { poller_.Pause(); }

void PartitionedMergeDaemon::Resume() { poller_.Resume(); }

bool PartitionedMergeDaemon::paused() const { return poller_.paused(); }

PartitionedMergeDaemonStats PartitionedMergeDaemon::stats() const {
  MutexLock lock(stats_mu_);
  PartitionedMergeDaemonStats out = stats_;
  out.polls = poller_.polls();
  return out;
}

void PartitionedMergeDaemon::PollOnce() {
  // Tail-only arrival-rate estimate: O(1) in the segment count, where the
  // table-wide delta_rows() would lock and scan every segment on each
  // poll. (A just-sealed segment's still-unmerged delta is invisible to
  // the estimate for one rollover — it is merge work, not new arrival.)
  const double delta_rows_per_sec = rate_.Update(table_->tail_delta_rows());

  const PartitionedMergeReport report = table_->MergeDueSegments(
      policy_, options_, delta_rows_per_sec, &merge_in_flight_);

  {
    MutexLock lock(stats_mu_);
    if (report.segments_merged > 0) ++stats_.merge_passes;
    stats_.segments_merged += report.segments_merged;
    stats_.final_merges += report.final_merges;
    stats_.failed_merges += report.failed_merges;
    stats_.segments_compacted += report.segments_compacted;
    stats_.failed_compactions += report.failed_compactions;
    stats_.rows_merged += report.table.rows_merged;
    stats_.merge_wall_cycles += report.table.wall_cycles;
    stats_.max_segment_wall_cycles = std::max(
        stats_.max_segment_wall_cycles, report.max_segment_wall_cycles);
    stats_.merge.Accumulate(report.table.stats);
  }
  // Merges shrank the delta; re-anchor so the shrink is not read as zero
  // arrival next poll.
  if (report.segments_merged > 0) rate_.Rebase(table_->tail_delta_rows());
}

}  // namespace deltamerge
