// Copyright (c) 2026 The DeltaMerge Authors.
// Mixed-workload generation and execution (§2's "mixed workload in terms of
// that they process small sets of transactional data at a time including
// write operations and simple read queries as well as complex ... read
// operations on large sets of data").
//
// A QueryStream samples query types from a QueryMix (Figure 1); the executor
// turns each type into a concrete operation against a Table or a
// PartitionedTable: key lookups and range selects on random columns,
// full-column aggregation scans, inserts of fresh rows, insert-only updates
// of random valid rows, and deletes.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/table.h"
#include "util/random.h"
#include "workload/enterprise_stats.h"

namespace deltamerge {
// core/partitioned_table.h (pointer-only here)
class PartitionedTable;
class PartitionedMergeDaemon;
}

namespace deltamerge {

/// Samples query types i.i.d. from a mix.
class QueryStream {
 public:
  QueryStream(const QueryMix& mix, uint64_t seed);

  QueryType Next();

 private:
  std::array<double, kNumQueryTypes> cumulative_{};
  Rng rng_;
};

/// Per-type execution counters for a workload run.
struct WorkloadReport {
  std::array<uint64_t, kNumQueryTypes> count{};
  std::array<uint64_t, kNumQueryTypes> cycles{};
  uint64_t total_ops = 0;
  uint64_t total_cycles = 0;
  /// Checksum folding every query result; keeps the optimizer honest and
  /// lets tests compare runs.
  uint64_t checksum = 0;

  double ops_per_second() const;
  std::string ToString() const;
};

/// Knobs for the executor.
struct WorkloadOptions {
  /// Key domain the read queries probe (should match the table's builder
  /// domain so lookups actually hit).
  uint64_t key_domain = 1 << 20;
  /// Width of range-select predicates as a fraction of the key domain.
  double range_fraction = 0.001;
  uint64_t seed = 42;
};

/// Runs `num_ops` operations of the given mix against the table.
WorkloadReport RunMixedWorkload(Table* table, const QueryMix& mix,
                                uint64_t num_ops,
                                const WorkloadOptions& options);
WorkloadReport RunMixedWorkload(PartitionedTable* table, const QueryMix& mix,
                                uint64_t num_ops,
                                const WorkloadOptions& options);

// ---------------------------------------------------------------------------
// Concurrent read-write-merge driver (§3's online property under load).
// ---------------------------------------------------------------------------

struct ConcurrentWorkloadOptions {
  /// Reader threads doing snapshot reads alongside the writer.
  int num_readers = 4;
  /// Write operations the (single) writer thread issues.
  uint64_t writer_ops = 50'000;
  /// Reads each reader performs per pinned snapshot before releasing it.
  int reads_per_snapshot = 4;
  uint64_t key_domain = 1 << 20;
  double range_fraction = 0.001;
  uint64_t seed = 42;
};

/// Latency distribution of one sample population, in cycles.
struct LatencySummary {
  uint64_t samples = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

struct ConcurrentWorkloadReport {
  uint64_t writer_ops = 0;
  uint64_t writer_cycles = 0;  ///< wall cycles of the writer loop
  /// Sustained write throughput while readers and the daemon run (the
  /// Figure 9 metric, measured instead of projected).
  double updates_per_second() const;

  uint64_t reader_ops = 0;
  uint64_t snapshots = 0;
  uint64_t reads_during_merge = 0;  ///< reads that overlapped a merge body
  LatencySummary reader_all;
  LatencySummary reader_during_merge;

  uint64_t merges_completed = 0;
  uint64_t rows_merged = 0;
  uint64_t checksum = 0;  ///< folds every read result; keeps reads honest

  std::string ToString() const;
};

/// Runs a single writer (insert/update/delete mix) against `table` while
/// `num_readers` threads continuously pin snapshots and execute lookups,
/// range counts and scans against them. `daemon` (optional) merges in the
/// background; it must already be constructed on the same table and is
/// started/nudged by the driver but not stopped. Returns throughput and
/// reader latency split into all reads vs. reads overlapping a merge.
ConcurrentWorkloadReport RunConcurrentReadWriteMerge(
    PartitionedTable* table, PartitionedMergeDaemon* daemon,
    const ConcurrentWorkloadOptions& options);

// ---------------------------------------------------------------------------
// Deterministic write schedules (durable-mode driver).
//
// The durability bench and the crash-recovery torture both need the same
// thing: a seeded insert/update/delete stream whose every operation is
// *precomputable* — target rows included — so the identical schedule can be
// applied to a PartitionedTable, a persist::DurablePartitionedTable (at any
// segment capacity; an unbounded one is the monolithic shape), and the
// tests' reference model, and truncated at any prefix for crash-point
// comparison.
// ---------------------------------------------------------------------------

enum class WriteOpKind : uint8_t {
  kInsert = 0,
  kUpdate = 1,
  kDelete = 2,
  /// A bulk insert of batch_rows rows in one PartitionedTable::InsertRows
  /// call — on a durable table, one WAL record and one group-committed
  /// acknowledgment per segment chunk (the whole batch at unbounded
  /// capacity).
  kInsertBatch = 3,
  /// A multi-row optimistic transaction: txn_ops committed through
  /// PartitionedTable::BeginTransaction with an empty readset (a
  /// deterministic schedule has no concurrent writers, so it can never
  /// abort) — on a durable table, ONE kTxnCommit WAL record per segment
  /// group (one in all at unbounded capacity), each recovering whole or
  /// vanishing whole.
  kTxn = 4,
};

struct WriteOp {
  WriteOpKind kind = WriteOpKind::kInsert;
  uint64_t target_row = 0;    ///< update/delete victim
  uint64_t batch_rows = 1;    ///< kInsertBatch: rows held in `keys`
  /// insert/update payload (one per column); kInsertBatch holds
  /// batch_rows x num_columns keys row-major.
  std::vector<uint64_t> keys;
  /// kTxn: the buffered op set, applied atomically at commit.
  std::vector<TxnOp> txn_ops;
};

/// Logical single-row operations an op represents (batch_rows for a batch,
/// 1 otherwise) — the unit crash-recovery prefixes are counted in.
uint64_t WriteOpLogicalOps(const WriteOp& op);

/// Generates `num_ops` operations with the concurrent driver's 55/30/15
/// insert/update/delete mix. Target rows are drawn against the
/// deterministically tracked row count (insert-only growth), so applying a
/// prefix of the schedule always lands on valid rows.
std::vector<WriteOp> GenerateWriteOps(size_t num_columns, uint64_t num_ops,
                                      uint64_t key_domain, uint64_t seed);

/// Rewrites a schedule so every run of consecutive single-row inserts
/// becomes kInsertBatch ops of at most `max_batch_rows` rows each. The
/// logical operation stream is unchanged — applying the coalesced schedule
/// yields a table identical to the original, which is exactly the
/// differential property the row-vs-batch recovery tests exercise.
std::vector<WriteOp> CoalesceInsertBatches(std::span<const WriteOp> ops,
                                           uint64_t max_batch_rows);

/// Rewrites a schedule so seeded runs of consecutive single-row ops become
/// kTxn ops of 2..max_txn_ops buffered writes each (kInsertBatch entries
/// break runs and pass through; a drawn length of 1 keeps the plain op, so
/// the stream stays mixed). The logical operation sequence is unchanged —
/// applying the grouped schedule yields a table identical to the original —
/// but the durable record stream is now transaction-framed, so a crash may
/// only land on a *transaction-atomic* prefix. That is exactly the
/// differential property the interleaved-transaction crash tortures check.
std::vector<WriteOp> GroupIntoTransactions(std::span<const WriteOp> ops,
                                           uint64_t max_txn_ops,
                                           uint64_t seed);

struct WriteScheduleOptions {
  /// Run a foreground MergeAll pass after every N applied schedule entries
  /// (0 = never): every segment with delta rows merges, and on a durable
  /// table each such segment merge produces a per-segment checkpoint.
  uint64_t merge_every = 0;
  TableMergeOptions merge;
  /// Column-parallelizes kInsertBatch entries (caller-owned; may be null).
  TaskQueue* batch_queue = nullptr;
  /// Invoked after each schedule entry returns — i.e. after the write is
  /// acknowledged (durable per the table's sync policy) — with the index of
  /// the last *logical* operation the entry covered (for a batch entry, its
  /// final row). The crash-torture child uses this to report progress to
  /// its parent.
  std::function<void(uint64_t op_index)> on_op_acknowledged;
};

struct WriteScheduleReport {
  uint64_t ops = 0;  ///< logical single-row operations applied
  uint64_t wall_cycles = 0;
  uint64_t merges = 0;
  double updates_per_second() const;
};

/// Applies one op through the sharded write path: global row-id routing for
/// updates/deletes, rollover-splitting batch ingest for kInsertBatch;
/// `batch_queue` (optional) column-parallelizes kInsertBatch ops.
void ApplyWriteOp(PartitionedTable* table, const WriteOp& op,
                  TaskQueue* batch_queue = nullptr);

/// Applies `ops` in order on the calling thread, timing the write path
/// (acknowledgment included — on a durable table this is the fsync cost the
/// WAL-overhead bench exists to measure). The same deterministic schedule
/// drives PartitionedTable and DurablePartitionedTable at any segment
/// capacity, which is what the sharded differential and crash-recovery
/// tortures compare.
WriteScheduleReport RunWriteSchedule(PartitionedTable* table,
                                     std::span<const WriteOp> ops,
                                     const WriteScheduleOptions& options);

}  // namespace deltamerge
