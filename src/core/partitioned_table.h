// Copyright (c) 2026 The DeltaMerge Authors.
// PartitionedTable: the §9 horizontal-partitioning extension, promoted to
// the production write/read front door.
//
// "The memory consumption of the merge process has to be tackled. Possible
// ideas include an incremental processing of the individual attributes ...
// Ideas from [3] could be taken further to directly include a horizontal
// partitioning strategy." (§9)
//
// The table is split into fixed-capacity horizontal segments, each a full
// Table (own main + delta per column). Inserts go to the open tail segment;
// a segment that reaches capacity is sealed at the next write, after which
// one final merge leaves it permanently delta-free — sealed segments never
// receive new rows (updates route their fresh version to the tail), only
// tombstones, which live in the validity bitmap and add no delta tuples.
// Consequences:
//
//   * merge working-set is bounded by the segment size, not the table size
//     (the §9 memory-consumption concern);
//   * merges are incremental — only the tail (plus newly sealed segments)
//     ever needs merging;
//   * queries fan out across segments and concatenate, with global row ids
//     = segment base + local row id (bases are multiples of the capacity,
//     because a segment seals at exactly its capacity).
//
// A capacity of UINT64_MAX is the monolithic table: one segment that never
// seals, whose merges each fold its whole delta into its whole main, as §4
// describes. It runs the same write path, snapshots and merge daemon as
// every bounded shape.
//
// Concurrency model (the locks are deliberately split; full protocol in
// docs/ARCHITECTURE.md "Per-segment parallel commits"):
//
//   * `tail_mu_`   — the tail-coordination lock: covers rollover and
//     tail-segment selection only (a short critical section), plus snapshot
//     capture. It is NOT held across whole commits — disjoint-segment
//     writers commit fully in parallel. Readers NEVER take it, so
//     sealed-segment scans never contend with ingest.
//   * `Segment::commit_mu` — one commit lock per segment. Every append to
//     and every validity mutation of a segment's Table, and every
//     commit-time readset validation against it, happens under that
//     segment's commit lock. A writer acquires the commit locks of exactly
//     the segments its operation touches, in ascending segment order (so
//     two cross-segment committers can never deadlock); holding them from
//     validation through apply is strict two-phase locking over segments,
//     which is what keeps parallel commits serializable.
//   * `segments_mu_` (shared) — guards only the segment vector. Readers
//     hold it briefly to capture the segment list, then scan entirely
//     lock-free at this level (each segment Table applies its own internal
//     reader/writer protocol). Only a rollover — once per
//     `segment_capacity` rows — takes it exclusively, for one push_back.
//
// Lock order: tail_mu_ -> commit_mu (ascending segment index) ->
// segments_mu_; each segment Table's internal mu_ is a leaf acquired only
// inside Table methods.
//
// Cross-segment consistency: point-in-time reads use PartitionedSnapshot,
// which pins one epoch capture per segment *atomically with the segment
// list* (under the write lock, so no logical operation is mid-flight).
// The plain fan-out aggregates (CountEquals & co.) are per-segment
// consistent only — same contract as Table's non-snapshot reads.
//
// This trades slightly costlier reads (one dictionary per segment) for
// bounded, pause-friendly merges — quantified by bench_ablation_partitioning
// and bench_sharded_scale.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/merge_daemon.h"
#include "core/merge_types.h"
#include "core/snapshot.h"
#include "core/table.h"
#include "parallel/task_queue.h"
#include "util/poll_thread.h"
#include "util/thread_annotations.h"

namespace deltamerge {

/// Consistent cross-segment point-in-time view: one epoch-pinned Snapshot
/// per segment, all captured atomically with the segment list and with no
/// write operation mid-flight. Reads compose per-segment answers with the
/// global-row-id arithmetic baked in and take Snapshot's arguments and
/// contracts (`only_valid` included); like Snapshot, the handle must be
/// released (destroyed) before the table it came from, and a released or
/// moved-from handle spans zero rows and aborts every read.
class PartitionedSnapshot {
 public:
  PartitionedSnapshot() = default;

  PartitionedSnapshot(PartitionedSnapshot&& other) noexcept {
    *this = std::move(other);
  }
  PartitionedSnapshot& operator=(PartitionedSnapshot&& other) noexcept;
  DM_DISALLOW_COPY(PartitionedSnapshot);

  bool valid() const { return !segments_.empty(); }
  /// Unpins every segment and empties the handle; idempotent.
  void Release();

  // --- shape (captured; no lock needed) ---
  uint64_t num_rows() const { return visible_rows_; }
  uint64_t valid_rows() const { return valid_rows_; }
  size_t num_segments() const { return segments_.size(); }
  size_t num_columns() const { return num_columns_; }

  // --- reads (consistent as of the capture instant) ---
  uint64_t GetKey(size_t col, uint64_t global_row) const;
  bool IsRowValid(uint64_t global_row) const;
  uint64_t CountEquals(size_t col, uint64_t key,
                       bool only_valid = false) const;
  uint64_t CountRange(size_t col, uint64_t lo, uint64_t hi,
                      bool only_valid = false) const;
  uint64_t SumColumn(size_t col, bool only_valid = false) const;
  /// Global row ids (ascending) whose value equals `key`.
  std::vector<uint64_t> CollectEquals(size_t col, uint64_t key,
                                      bool only_valid) const;
  /// Global row ids (ascending) whose value lies in [lo, hi].
  std::vector<uint64_t> CollectRange(size_t col, uint64_t lo, uint64_t hi,
                                     bool only_valid) const;
  /// Row versions satisfying every predicate (at least one).
  uint64_t CountConjunction(std::span<const RangePredicate> preds) const;
  /// Row versions per distinct key of `col`, ascending by key.
  KeyCounts GroupCount(size_t col) const;

 private:
  friend class PartitionedTable;

  struct SegmentView {
    Snapshot snap;
    uint64_t base = 0;
  };

  /// segments_, DM_CHECKed: a released handle has none.
  const std::vector<SegmentView>& Segments() const;

  /// fn(segment snapshot) summed over the segments.
  template <typename Fn>
  uint64_t SumSegments(Fn&& fn) const {
    uint64_t n = 0;
    for (const SegmentView& v : Segments()) n += fn(v.snap);
    return n;
  }

  std::vector<SegmentView> segments_;
  uint64_t segment_capacity_ = 1;
  uint64_t visible_rows_ = 0;
  uint64_t valid_rows_ = 0;
  size_t num_columns_ = 0;
};

/// Accumulated outcome of a partitioned merge pass.
struct PartitionedMergeReport {
  TableMergeReport table;       ///< stats/rows/wall summed over segments
  uint64_t segments_merged = 0;
  /// Sealed segments whose final merge completed this pass — they are
  /// permanently delta-free from here on and never re-merge.
  uint64_t final_merges = 0;
  uint64_t failed_merges = 0;   ///< lost the race to a concurrent merger
  /// Worst single-segment merge wall time — the §9 "merge pause" bound,
  /// which must track the segment capacity, not the table size.
  uint64_t max_segment_wall_cycles = 0;
  /// Sealed segments whose tombstone backlog crossed the policy threshold
  /// and got a validity-only compaction checkpoint this pass.
  uint64_t segments_compacted = 0;
  uint64_t failed_compactions = 0;  ///< checkpoint write failed (backoff)
};

class PartitionedTable {
 public:
  /// Hooks for an owner that manages segment storage (the durable wrapper).
  /// A null hook set means plain in-memory segments.
  class SegmentHooks {
   public:
    virtual ~SegmentHooks() = default;

    /// Creates backing storage for segment `index` and returns its Table.
    /// The hook implementor owns the returned table and must keep it alive
    /// for the PartitionedTable's lifetime. Called from the rollover path
    /// with the write lock held; a durable implementation must have the new
    /// segment installed durably (manifest) before returning, so no write
    /// can be acknowledged into a segment a crash would forget.
    virtual Table* CreateSegment(size_t index) = 0;
  };

  /// A segment recovered by the durable wrapper before construction — or,
  /// passed alone with null hooks at capacity UINT64_MAX, a prebuilt Table
  /// (e.g. from BuildTable) adopted as the one unbounded segment. The caller
  /// keeps ownership and keeps the table alive for the PartitionedTable's
  /// lifetime.
  struct RecoveredSegment {
    Table* table = nullptr;
    bool sealed = false;
  };

  /// `segment_capacity` rows per horizontal segment (>= 1);
  /// std::numeric_limits<uint64_t>::max() keeps one unbounded segment.
  PartitionedTable(Schema schema, uint64_t segment_capacity)
      : PartitionedTable(std::move(schema), segment_capacity, nullptr, {}) {}

  /// Durable-wrapper constructor: segments come from `recovered` (tables
  /// owned by the hooks implementor; the last one is the tail) and future
  /// rollovers call `hooks->CreateSegment`. With an empty `recovered` list
  /// the first segment is created through the hooks immediately. With null
  /// `hooks`, rollovers create in-memory segments.
  PartitionedTable(Schema schema, uint64_t segment_capacity,
                   SegmentHooks* hooks,
                   std::span<const RecoveredSegment> recovered);

  DM_DISALLOW_COPY_AND_MOVE(PartitionedTable);

  size_t num_columns() const { return schema_.columns.size(); }
  const Schema& schema() const { return schema_; }
  size_t num_segments() const DM_EXCLUDES(segments_mu_);
  uint64_t num_rows() const DM_EXCLUDES(segments_mu_);
  uint64_t valid_rows() const DM_EXCLUDES(segments_mu_);
  uint64_t segment_capacity() const { return segment_capacity_; }

  /// Fans aggregate reads out across segments on `pool` (caller-owned,
  /// outliving every read; may be null to scan serially). The pointer is
  /// published atomically, so attaching mid-traffic is safe — in-flight
  /// reads simply finish in whichever mode they started. The pool must be
  /// dedicated to reads: passing the same queue to InsertRows would let a
  /// batch writer (holding a segment's exclusive lock inside the queue's
  /// drain) wait on reader tasks that need that lock shared — a deadlock
  /// InsertRows checks against.
  void AttachReadPool(TaskQueue* pool) {
    read_pool_.store(pool, std::memory_order_release);
  }

  /// Enables (or disables) cooperative scan sharing on every current
  /// segment and on segments created by future rollovers. See
  /// Table::EnableSharedScans for the per-segment semantics.
  void EnableSharedScans(bool on) DM_EXCLUDES(segments_mu_);
  /// ScanGate counters summed over the current segments.
  query::ScanGate::Stats shared_scan_stats() const
      DM_EXCLUDES(segments_mu_);

  // --- write path (tail selection under tail_mu_; the write itself under
  //     the owning segments' commit locks, so disjoint-segment writers
  //     proceed in parallel) ---

  /// Appends a row to the open tail segment (sealing and rolling over as
  /// needed). Returns the global row id.
  uint64_t InsertRow(std::span<const uint64_t> keys)
      DM_EXCLUDES(tail_mu_, segments_mu_);
  uint64_t InsertRow(std::initializer_list<uint64_t> keys) {
    return InsertRow(std::span<const uint64_t>(keys.begin(), keys.size()));
  }

  /// Batch ingest into the tail, split at segment boundaries: each chunk
  /// rides the segment Table's column-parallel (and, when durable, batch-
  /// logged) InsertRows path. Returns the first global row id.
  uint64_t InsertRows(std::span<const uint64_t> row_major_keys,
                      uint64_t num_rows, TaskQueue* queue = nullptr)
      DM_EXCLUDES(tail_mu_, segments_mu_);

  /// Insert-only update routed by global row id: the fresh version is
  /// appended to the tail segment and the superseded row is invalidated in
  /// whichever segment owns it. Returns the new global row id.
  uint64_t UpdateRow(uint64_t global_row, std::span<const uint64_t> keys)
      DM_EXCLUDES(tail_mu_, segments_mu_);
  uint64_t UpdateRow(uint64_t global_row,
                     std::initializer_list<uint64_t> keys) {
    return UpdateRow(global_row,
                     std::span<const uint64_t>(keys.begin(), keys.size()));
  }

  /// Invalidates a row in its owning segment.
  Status DeleteRow(uint64_t global_row) DM_EXCLUDES(tail_mu_, segments_mu_);

  // --- optimistic multi-row transactions (global-row domain) ---
  //
  // The one transaction handle: writes buffer locally, the readset
  // validates at commit under the commit locks of exactly the segments the
  // transaction touches (ascending order; see the lock-order header
  // comment), and the op buffer is decomposed into per-segment
  // groups applied in buffer order — inserts route to the tail (rolling
  // over mid-commit when it fills), an update whose superseded row lives in
  // another segment becomes a tail insert plus an owner tombstone, and each
  // group commits through the segment Table's atomic validate/apply
  // (CommitTxnOps), i.e. as ONE kTxnCommit record in that segment's
  // journal, acknowledged before the next group appends. Transactions over
  // disjoint segment sets commit fully in parallel; only tail rollover and
  // tail selection serialize on the short tail_mu_ critical section.
  //
  // Atomicity contract: a transaction whose ops land in one segment (every
  // transaction, at unbounded capacity) is all-or-nothing across
  // crash/recovery — its one kTxnCommit record replays whole or not at
  // all; a cross-segment transaction can only tear at group boundaries —
  // an unacknowledged suffix of groups may vanish, never a partial group
  // and never an invented op. (With sync=every-commit every acknowledged
  // transaction recovers whole, because the last group's Acknowledge
  // returns only after all its groups are durable.)

  class Transaction {
   public:
    Transaction() = default;
    Transaction(Transaction&&) = default;
    Transaction& operator=(Transaction&&) = default;
    DM_DISALLOW_COPY(Transaction);

    bool open() const { return table_ != nullptr; }
    size_t num_ops() const { return ops_.size(); }

    /// Reads a global row's current validity AND records the observation;
    /// commit aborts if it no longer holds (read-then-update yields
    /// first-updater-wins).
    bool ReadRowValid(uint64_t global_row);

    /// Buffers an insert; keys.size() must equal the table's column count.
    void Insert(std::span<const uint64_t> keys);
    void Insert(std::initializer_list<uint64_t> keys) {
      Insert(std::span<const uint64_t>(keys.begin(), keys.size()));
    }
    /// Buffers an insert-only update of `global_row`.
    void Update(uint64_t global_row, std::span<const uint64_t> keys);
    void Update(uint64_t global_row, std::initializer_list<uint64_t> keys) {
      Update(global_row,
             std::span<const uint64_t>(keys.begin(), keys.size()));
    }
    /// Buffers a delete of `global_row`.
    void Delete(uint64_t global_row);

    /// Validates the readset and applies + journals the buffer as
    /// per-segment groups. Returns Status::Aborted on a readset conflict
    /// (nothing applied anywhere). The handle is consumed either way.
    Status Commit();

    /// Discards the buffered ops; the handle is consumed.
    void Abort();

   private:
    friend class PartitionedTable;
    explicit Transaction(PartitionedTable* table) : table_(table) {}

    PartitionedTable* table_ = nullptr;
    std::vector<TxnOp> ops_;  ///< target_row in the global domain
    std::vector<TxnRead> readset_;  ///< row in the global domain
  };

  /// Opens a transaction. Any number may be open concurrently (they hold
  /// no lock); commits over disjoint segment sets run in parallel.
  Transaction BeginTransaction() { return Transaction(this); }

  /// Whole-transaction commits/aborts since construction (an explicit
  /// Abort() is not counted).
  Table::TxnStats txn_stats() const {
    return Table::TxnStats{txn_commits_.load(std::memory_order_relaxed),
                           txn_aborts_.load(std::memory_order_relaxed)};
  }

  // --- reads (fan out across segments, lock-free at this level) ---
  uint64_t GetKey(size_t col, uint64_t global_row) const
      DM_EXCLUDES(segments_mu_);
  bool IsRowValid(uint64_t global_row) const DM_EXCLUDES(segments_mu_);
  uint64_t CountEquals(size_t col, uint64_t key) const
      DM_EXCLUDES(segments_mu_);
  uint64_t CountRange(size_t col, uint64_t lo, uint64_t hi) const
      DM_EXCLUDES(segments_mu_);
  uint64_t SumColumn(size_t col) const DM_EXCLUDES(segments_mu_);

  /// Pins one epoch capture per segment atomically with the segment list
  /// (tail_mu_ plus every segment's commit lock, so no logical op is
  /// mid-flight): every read on the returned snapshot answers as of this
  /// instant, across concurrent inserts, rollovers, and per-segment merge
  /// commits. Capture blocks all writers for its duration, which is
  /// O(num_segments) lock acquisitions plus the drain of any in-flight
  /// commit (including its group-commit fsync) — cheap reads, deliberately
  /// non-cheap capture; snapshot-heavy workloads should reuse one capture
  /// across many reads (see the cost note in ARCHITECTURE.md).
  PartitionedSnapshot CreateSnapshot() const
      DM_EXCLUDES(tail_mu_, segments_mu_);

  /// Total un-merged rows across all segments.
  uint64_t delta_rows() const DM_EXCLUDES(segments_mu_);

  /// Un-merged rows of the open tail segment only — O(1) in the segment
  /// count, which is what the merge daemon polls every millisecond
  /// (sealed segments are delta-free after their final merge, so this is
  /// the whole table's delta in steady state).
  uint64_t tail_delta_rows() const DM_EXCLUDES(segments_mu_);

  /// One merge pass: a sealed segment with any delta gets its final merge
  /// (after which it is skipped forever); the open tail merges when the
  /// daemon trigger (§4 fill fraction, §9 cost budget, rate lookahead —
  /// `tail_delta_rows_per_sec` feeds the lookahead) says it is due.
  /// `merge_in_flight` (optional) is held true exactly while a segment
  /// merge body executes — not across trigger evaluation — so observers
  /// can classify overlap precisely.
  PartitionedMergeReport MergeDueSegments(
      const MergeDaemonPolicy& policy, const TableMergeOptions& options,
      double tail_delta_rows_per_sec = 0.0,
      std::atomic<bool>* merge_in_flight = nullptr);

  /// Merges every segment with a non-empty delta, regardless of policy.
  PartitionedMergeReport MergeAll(const TableMergeOptions& options);

  /// Direct access for tests/benches.
  Table& segment(size_t i) { return *SlotAt(i)->table; }
  const Table& segment(size_t i) const { return *SlotAt(i)->table; }
  bool segment_sealed(size_t i) const { return SlotAt(i)->sealed.load(); }
  bool segment_delta_free(size_t i) const {
    return SlotAt(i)->final_merged.load();
  }

 private:
  struct Segment {
    Table* table = nullptr;          ///< the segment (maybe hook-owned)
    std::unique_ptr<Table> owned;    ///< in-memory mode: owning pointer
    uint64_t base = 0;               ///< first global row id
    /// The segment's commit lock: every append to and every validity
    /// mutation of `table`, and every commit-time readset validation
    /// against it, holds this lock. Multi-segment operations acquire
    /// commit locks in ascending segment order (see the header comment);
    /// holding a segment's commit lock freezes its fill — no concurrent
    /// writer can append — which is what lets the tail fast path release
    /// tail_mu_ before applying.
    Mutex commit_mu;
    std::atomic<bool> sealed{false};
    /// Sealed AND delta-free: the final merge ran (or was never needed);
    /// merge passes skip the segment without touching its lock.
    std::atomic<bool> final_merged{false};
    /// Un-checkpointed-record backlog observed at the last *failed*
    /// compaction attempt: retry only once the backlog has grown past it.
    /// The rotation a compaction attempt performs appends no records, so
    /// without this a persistently failing checkpoint write would re-rotate
    /// the segment's WAL on every daemon poll.
    std::atomic<uint64_t> compact_failed_at{0};
  };

  /// RAII multi-lock over a set of segments: acquires each commit_mu in
  /// ascending segment order (callers pass a base-ascending, deduplicated
  /// list) and releases in reverse, keeping the shared_ptrs alive for the
  /// hold. A dynamic vector of capabilities is inexpressible to the
  /// analysis, so acquisition/release are opted out
  /// (DM_NO_THREAD_SAFETY_ANALYSIS); analysis coverage resumes at each
  /// apply site via AssertCommitHeld + the DM_REQUIRES on
  /// CommitSegmentGroupLocked.
  class SegmentCommitLockSet {
   public:
    SegmentCommitLockSet() = default;
    explicit SegmentCommitLockSet(
        std::vector<std::shared_ptr<Segment>> segments)
        DM_NO_THREAD_SAFETY_ANALYSIS;
    ~SegmentCommitLockSet() DM_NO_THREAD_SAFETY_ANALYSIS;
    DM_DISALLOW_COPY_AND_MOVE(SegmentCommitLockSet);

    /// Locks one more segment; its base must exceed every held one (the
    /// ascending-order rule) — how mid-commit rollovers and late-discovered
    /// readset owners join the set.
    void Add(std::shared_ptr<Segment> seg) DM_NO_THREAD_SAFETY_ANALYSIS;

    bool Holds(const Segment& seg) const {
      for (const auto& s : segments_) {
        if (s.get() == &seg) return true;
      }
      return false;
    }

    const std::vector<std::shared_ptr<Segment>>& segments() const {
      return segments_;
    }

   private:
    std::vector<std::shared_ptr<Segment>> segments_;
  };

  /// The partitioned commit body. Classifies the transaction at lock time:
  ///
  ///   * sealed-only (no appends): never touches tail_mu_ — acquire the
  ///     involved segments' commit locks ascending, validate, apply.
  ///   * append-bearing, fitting the tail: a short tail_mu_ section does
  ///     rollover + tail selection + commit-lock acquisition, then tail_mu_
  ///     is RELEASED before validate/apply (the held tail commit lock
  ///     freezes the fill, so no mid-commit rollover can be needed).
  ///   * append-bearing, straddling a rollover: tail_mu_ is kept for the
  ///     whole commit (at most once per segment_capacity fills) so the
  ///     mid-commit rollover stays inside the lock order.
  ///
  /// Validation + apply both run under the commit locks (strict 2PL over
  /// segments), so a validation that passes stays true for the entire
  /// apply. Single-segment transactions apply through the segment Table's
  /// atomic CommitTxnOps; cross-segment ones validate via per-segment
  /// ValidateReadset, then install readset-free groups in buffer order.
  Status CommitTxn(std::span<const TxnOp> ops,
                   std::span<const TxnRead> readset)
      DM_EXCLUDES(tail_mu_, segments_mu_);

  /// The no-append commit shape: acquire the touched segments' commit
  /// locks (extension loop — no tail_mu_, so the list is re-captured until
  /// it covers every touched owner that exists), then validate + apply.
  Status CommitSealedOnlyTxn(std::span<const TxnOp> ops,
                             std::span<const TxnRead> readset)
      DM_EXCLUDES(tail_mu_, segments_mu_);

  /// The append-bearing commit shape: short tail_mu_ section (rollover +
  /// capture + lock acquisition + frozen fill read), released before the
  /// apply when the transaction fits the open tail, kept across it when
  /// the commit straddles a rollover.
  Status CommitAppendTxn(std::span<const TxnOp> ops,
                         std::span<const TxnRead> readset, size_t appends)
      DM_EXCLUDES(segments_mu_);

  /// Validate-then-install under the already-acquired lock set (strict
  /// two-phase locking over segments: every lock is held from before
  /// validation to after the last group installs, so the validation
  /// outcome cannot go stale and parallel commits stay serializable).
  /// `straddles` callers hold tail_mu_ for the mid-commit rollover.
  /// DM_NO_THREAD_SAFETY_ANALYSIS: the lock set is dynamic and tail_mu_ is
  /// conditionally held — inexpressible; the per-segment teeth come back
  /// via AssertCommitHeld + CommitSegmentGroupLocked's DM_REQUIRES.
  Status CommitTxnLockedSet(std::span<const TxnOp> ops,
                            std::span<const TxnRead> readset, size_t appends,
                            const std::vector<std::shared_ptr<Segment>>& segs,
                            SegmentCommitLockSet* locks, bool straddles,
                            uint64_t tail_rows) DM_NO_THREAD_SAFETY_ANALYSIS;

  /// Straddling-commit rollover: materializes the segment a mid-commit
  /// rollover created in simulation and adds its commit lock to the set
  /// (a new segment's index exceeds every held one, so the acquisition
  /// order stays ascending). Idempotent: an op buffer that revisits the
  /// rolled-over segment resolves to the already-locked slot. Returns the
  /// segment at `seg_index`.
  std::shared_ptr<Segment> MaterializeTailForCommitLocked(
      size_t seg_index, SegmentCommitLockSet* locks) DM_REQUIRES(tail_mu_)
      DM_EXCLUDES(segments_mu_);

  /// Commits one decomposed op group (ops rebased to the segment's local
  /// row domain) through seg's Table::CommitTxnOps. The caller must hold
  /// seg.commit_mu — enforced by the analysis (the negative-compile case
  /// txn_commit_skips_segment_lock proves a call without the lock is
  /// rejected under -Werror=thread-safety). Returns Aborted only when
  /// `readset` is non-empty and stale (the single-segment fast path);
  /// readset-free groups cannot abort.
  static Status CommitSegmentGroupLocked(Segment& seg,
                                         std::span<const TxnOp> ops,
                                         std::span<const TxnRead> readset)
      DM_REQUIRES(seg.commit_mu);

  /// Escape hatch for lock sets the analysis cannot follow (a vector of
  /// segments locked by SegmentCommitLockSet): asserts at analysis level
  /// that `seg.commit_mu` is held so CommitSegmentGroupLocked may be
  /// called. Runtime-free; only ever invoked after the RAII set acquired
  /// the lock.
  static void AssertCommitHeld([[maybe_unused]] Segment& seg)
      DM_ASSERT_CAPABILITY(seg.commit_mu) {}

  /// Sealed-segment tombstone-compaction trigger, evaluated by a merge
  /// pass where the §4 fill trigger no longer applies (final-merged
  /// segments): when the segment journal's un-checkpointed backlog reaches
  /// the policy threshold, rewrite a validity-only checkpoint so its
  /// reopen replay stays bounded.
  static void CompactIfDue(Segment& seg, const MergeDaemonPolicy& policy,
                           PartitionedMergeReport* report);

  /// Seals the tail and opens a fresh segment if the tail is full. Caller
  /// holds tail_mu_ (which keeps the tail identity stable); the vector
  /// itself is still read/grown under segments_mu_.
  ///
  /// The fill read here is a PRE-check only: it runs before the tail's
  /// commit lock is taken, so a predecessor appender still holding that
  /// lock (acquired under an earlier tail_mu_ hold) can fill the last slot
  /// afterwards. Every append path must therefore re-validate the fill
  /// under the commit lock before appending — AcquireTailForAppendLocked
  /// for inserts, the retry loops in UpdateRow, the `room == 0` guard in
  /// InsertRows, and the frozen fill read in CommitAppendTxn.
  void RollOverIfFullLocked() DM_REQUIRES(tail_mu_) DM_EXCLUDES(segments_mu_);

  /// Rolls over as needed and returns the open tail with its commit_mu
  /// HELD and its fill verified < segment_capacity_ UNDER that lock (the
  /// only fill read an appender may trust — see RollOverIfFullLocked).
  /// Full-under-lock means a predecessor filled the tail while we waited:
  /// release, roll over, retry. The fill is monotone and tail_mu_ (held)
  /// gates every appender's path to a tail commit lock, so the fresh tail
  /// cannot fill behind us — the loop runs at most twice.
  /// DM_NO_THREAD_SAFETY_ANALYSIS: returns with a dynamically selected
  /// commit_mu held, which the analysis cannot express; callers re-enter
  /// the analysis via AssertCommitHeld on the returned segment.
  std::shared_ptr<Segment> AcquireTailForAppendLocked()
      DM_REQUIRES(tail_mu_) DM_EXCLUDES(segments_mu_)
      DM_NO_THREAD_SAFETY_ANALYSIS;

  /// The open tail segment. tail_mu_ (held) is what keeps the returned
  /// segment *the* tail until the caller's write completes.
  std::shared_ptr<Segment> TailLocked() const DM_REQUIRES(tail_mu_)
      DM_EXCLUDES(segments_mu_);

  /// Segment list capture: the shared-lock window is just the vector copy;
  /// scans run on the captured shared_ptrs with no PartitionedTable lock.
  std::vector<std::shared_ptr<Segment>> CaptureSegments() const
      DM_EXCLUDES(segments_mu_);

  std::shared_ptr<Segment> SlotAt(size_t i) const DM_EXCLUDES(segments_mu_);

  /// Fans `fn(segment) -> uint64_t` out over the captured segments on the
  /// attached read pool (serial without one) and sums the results.
  template <typename Fn>
  uint64_t FanOutSum(Fn&& fn) const;

  Schema schema_;
  const uint64_t segment_capacity_;
  SegmentHooks* hooks_ = nullptr;
  std::atomic<TaskQueue*> read_pool_{nullptr};
  /// Scan-sharing policy for segments created by future rollovers (current
  /// segments are toggled directly by EnableSharedScans).
  std::atomic<bool> shared_scans_{false};
  /// Whole-transaction outcomes, incremented by CommitTxn after the commit
  /// returns, with no lock held (relaxed atomics; the stats read needs no
  /// lock either).
  std::atomic<uint64_t> txn_commits_{0};
  std::atomic<uint64_t> txn_aborts_{0};

  /// The tail-coordination lock: covers rollover + tail selection (and, on
  /// the straddling slow path, a whole commit), never taken by readers.
  /// Lock order: tail_mu_ -> Segment::commit_mu (ascending index) ->
  /// segments_mu_ — never acquire tail_mu_ while holding a commit lock or
  /// segments_mu_, never acquire a commit lock while holding segments_mu_.
  mutable Mutex tail_mu_ DM_ACQUIRED_BEFORE(segments_mu_);
  /// Guards segments_ (the vector only, not row data).
  mutable SharedMutex segments_mu_;
  std::vector<std::shared_ptr<Segment>> segments_ DM_GUARDED_BY(segments_mu_);
};

/// Running counters; retrieved atomically via PartitionedMergeDaemon::stats.
struct PartitionedMergeDaemonStats {
  uint64_t polls = 0;
  uint64_t merge_passes = 0;       ///< polls on which >= 1 segment merged
  uint64_t segments_merged = 0;
  uint64_t final_merges = 0;
  uint64_t failed_merges = 0;
  uint64_t segments_compacted = 0;   ///< validity-only checkpoint rewrites
  uint64_t failed_compactions = 0;
  uint64_t rows_merged = 0;
  uint64_t merge_wall_cycles = 0;
  uint64_t max_segment_wall_cycles = 0;
  MergeStats merge;
};

/// Background merge driver for a partitioned table: one watcher thread for
/// the whole table (segments are merged one at a time — the point of
/// partitioning is that each merge is bounded, not that merges overlap).
/// Each poll refreshes the tail arrival-rate estimate and runs
/// MergeDueSegments, which final-merges newly sealed segments and applies
/// the §4/§9 trigger stack (EvaluateMergeTrigger, core/merge_daemon.h) to
/// the tail. The only background merge driver: a monolithic table is a
/// PartitionedTable at capacity UINT64_MAX, whose one segment is the tail.
class PartitionedMergeDaemon {
 public:
  PartitionedMergeDaemon(PartitionedTable* table, MergeDaemonPolicy policy,
                         TableMergeOptions options);
  ~PartitionedMergeDaemon();

  DM_DISALLOW_COPY_AND_MOVE(PartitionedMergeDaemon);

  void Start() DM_EXCLUDES(lifecycle_mu_);
  /// Stops the watcher; an in-flight merge pass completes first.
  void Stop();
  /// Wakes the watcher immediately (e.g. after a large batch insert).
  void Nudge();
  void Pause();
  void Resume();
  bool paused() const;

  /// True while a segment merge is executing.
  bool merge_in_flight() const {
    return merge_in_flight_.load(std::memory_order_acquire);
  }

  PartitionedMergeDaemonStats stats() const DM_EXCLUDES(stats_mu_);

 private:
  void PollOnce() DM_EXCLUDES(stats_mu_);

  PartitionedTable* table_;
  MergeDaemonPolicy policy_;
  TableMergeOptions options_;
  PollThread poller_;

  std::atomic<bool> merge_in_flight_{false};
  Mutex lifecycle_mu_;  ///< serializes Start() (rate-state reset)
  mutable Mutex stats_mu_;
  PartitionedMergeDaemonStats stats_ DM_GUARDED_BY(stats_mu_);

  /// Tail arrival-rate estimate (watcher thread only).
  DeltaRateEstimator rate_;
};

}  // namespace deltamerge
