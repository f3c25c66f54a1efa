// Copyright (c) 2026 The DeltaMerge Authors.

#include "workload/query_gen.h"

#include "core/partitioned_table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "util/cycle_clock.h"
#include "workload/value_generator.h"

namespace deltamerge {

QueryStream::QueryStream(const QueryMix& mix, uint64_t seed) : rng_(seed) {
  double running = 0;
  for (int i = 0; i < kNumQueryTypes; ++i) {
    running += mix.fraction[static_cast<size_t>(i)];
    cumulative_[static_cast<size_t>(i)] = running;
  }
  DM_CHECK_MSG(running > 0.99 && running < 1.01,
               "query mix fractions must sum to 1");
  cumulative_[kNumQueryTypes - 1] = 1.0;
}

QueryType QueryStream::Next() {
  const double r = rng_.NextDouble();
  for (int i = 0; i < kNumQueryTypes; ++i) {
    if (r < cumulative_[static_cast<size_t>(i)]) {
      return static_cast<QueryType>(i);
    }
  }
  return QueryType::kDelete;
}

double WorkloadReport::ops_per_second() const {
  if (total_cycles == 0) return 0;
  return static_cast<double>(total_ops) /
         CycleClock::ToSeconds(total_cycles);
}

std::string WorkloadReport::ToString() const {
  std::string out = "WorkloadReport{";
  char buf[96];
  for (int i = 0; i < kNumQueryTypes; ++i) {
    const auto t = static_cast<QueryType>(i);
    std::snprintf(buf, sizeof(buf), "%s%.*s=%llu",
                  i == 0 ? "" : ", ",
                  static_cast<int>(QueryTypeToString(t).size()),
                  QueryTypeToString(t).data(),
                  static_cast<unsigned long long>(
                      count[static_cast<size_t>(i)]));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ", ops/s=%.0f}", ops_per_second());
  out += buf;
  return out;
}

namespace {

/// Table and PartitionedTable expose the identical read/write surface the
/// mix touches; one body keeps both runs op-for-op identical.
template <typename TableT>
WorkloadReport RunMixedWorkloadImpl(TableT* table, const QueryMix& mix,
                                    uint64_t num_ops,
                                    const WorkloadOptions& options) {
  DM_CHECK(table != nullptr);
  QueryStream stream(mix, options.seed);
  Rng rng(options.seed ^ 0xabcdef12345ULL);
  WorkloadReport report;

  const size_t nc = table->num_columns();
  std::vector<uint64_t> row_keys(nc);
  const uint64_t range_width = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(options.key_domain) *
                               options.range_fraction));

  for (uint64_t op = 0; op < num_ops; ++op) {
    const QueryType type = stream.Next();
    const size_t col = static_cast<size_t>(rng.Below(nc));
    const uint64_t t0 = CycleClock::Now();
    uint64_t result = 0;

    switch (type) {
      case QueryType::kLookup: {
        result = table->CountEquals(col, rng.Below(options.key_domain));
        break;
      }
      case QueryType::kTableScan: {
        result = table->SumColumn(col);
        break;
      }
      case QueryType::kRangeSelect: {
        const uint64_t lo = rng.Below(options.key_domain);
        result = table->CountRange(col, lo, lo + range_width);
        break;
      }
      case QueryType::kInsert: {
        for (size_t c = 0; c < nc; ++c) {
          row_keys[c] = rng.Below(options.key_domain);
        }
        result = table->InsertRow(row_keys);
        break;
      }
      case QueryType::kModification: {
        const uint64_t rows = table->num_rows();
        if (rows == 0) break;
        for (size_t c = 0; c < nc; ++c) {
          row_keys[c] = rng.Below(options.key_domain);
        }
        result = table->UpdateRow(rng.Below(rows), row_keys);
        break;
      }
      case QueryType::kDelete: {
        const uint64_t rows = table->num_rows();
        if (rows == 0) break;
        (void)table->DeleteRow(rng.Below(rows));
        result = 1;
        break;
      }
    }

    const uint64_t dt = CycleClock::Now() - t0;
    const auto i = static_cast<size_t>(type);
    ++report.count[i];
    report.cycles[i] += dt;
    report.total_cycles += dt;
    ++report.total_ops;
    report.checksum = report.checksum * 1099511628211ULL + result;
  }
  return report;
}

}  // namespace

WorkloadReport RunMixedWorkload(Table* table, const QueryMix& mix,
                                uint64_t num_ops,
                                const WorkloadOptions& options) {
  return RunMixedWorkloadImpl(table, mix, num_ops, options);
}

WorkloadReport RunMixedWorkload(PartitionedTable* table, const QueryMix& mix,
                                uint64_t num_ops,
                                const WorkloadOptions& options) {
  return RunMixedWorkloadImpl(table, mix, num_ops, options);
}

// ---------------------------------------------------------------------------
// Concurrent read-write-merge driver
// ---------------------------------------------------------------------------

namespace {

LatencySummary Summarize(std::vector<uint64_t>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(samples.size()));
    if (i >= samples.size()) i = samples.size() - 1;
    return samples[i];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = samples.back();
  return s;
}

}  // namespace

double ConcurrentWorkloadReport::updates_per_second() const {
  if (writer_cycles == 0) return 0;
  return static_cast<double>(writer_ops) /
         CycleClock::ToSeconds(writer_cycles);
}

std::string ConcurrentWorkloadReport::ToString() const {
  char buf[512];
  const double to_us = 1e6 / CycleClock::FrequencyHz();
  std::snprintf(
      buf, sizeof(buf),
      "ConcurrentWorkloadReport{updates/s=%.0f, reader_ops=%llu, "
      "snapshots=%llu, merges=%llu, rows_merged=%llu, "
      "read_p50=%.1fus, read_p95=%.1fus, "
      "during_merge{n=%llu, p50=%.1fus, p95=%.1fus}}",
      updates_per_second(), static_cast<unsigned long long>(reader_ops),
      static_cast<unsigned long long>(snapshots),
      static_cast<unsigned long long>(merges_completed),
      static_cast<unsigned long long>(rows_merged),
      static_cast<double>(reader_all.p50) * to_us,
      static_cast<double>(reader_all.p95) * to_us,
      static_cast<unsigned long long>(reads_during_merge),
      static_cast<double>(reader_during_merge.p50) * to_us,
      static_cast<double>(reader_during_merge.p95) * to_us);
  return std::string(buf);
}

// ---------------------------------------------------------------------------
// Deterministic write schedules
// ---------------------------------------------------------------------------

std::vector<WriteOp> GenerateWriteOps(size_t num_columns, uint64_t num_ops,
                                      uint64_t key_domain, uint64_t seed) {
  Rng rng(seed ^ 0xd0d0cafef00dULL);
  std::vector<WriteOp> ops;
  ops.reserve(num_ops);
  uint64_t rows = 0;  // tracked deterministically: inserts/updates append
  for (uint64_t i = 0; i < num_ops; ++i) {
    WriteOp op;
    const uint64_t dice = rng.Below(100);
    if (dice < 55 || rows == 0) {
      op.kind = WriteOpKind::kInsert;
    } else if (dice < 85) {
      op.kind = WriteOpKind::kUpdate;
      op.target_row = rng.Below(rows);
    } else {
      op.kind = WriteOpKind::kDelete;
      op.target_row = rng.Below(rows);
    }
    if (op.kind != WriteOpKind::kDelete) {
      op.keys.resize(num_columns);
      for (size_t c = 0; c < num_columns; ++c) {
        op.keys[c] = rng.Below(key_domain);
      }
      ++rows;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

uint64_t WriteOpLogicalOps(const WriteOp& op) {
  if (op.kind == WriteOpKind::kInsertBatch) return op.batch_rows;
  if (op.kind == WriteOpKind::kTxn) return op.txn_ops.size();
  return 1;
}

std::vector<WriteOp> CoalesceInsertBatches(std::span<const WriteOp> ops,
                                           uint64_t max_batch_rows) {
  DM_CHECK_MSG(max_batch_rows >= 1, "a batch holds at least one row");
  std::vector<WriteOp> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size();) {
    if (ops[i].kind != WriteOpKind::kInsert) {
      out.push_back(ops[i]);
      ++i;
      continue;
    }
    WriteOp batch;
    batch.kind = WriteOpKind::kInsertBatch;
    batch.batch_rows = 0;
    while (i < ops.size() && ops[i].kind == WriteOpKind::kInsert &&
           batch.batch_rows < max_batch_rows) {
      batch.keys.insert(batch.keys.end(), ops[i].keys.begin(),
                        ops[i].keys.end());
      ++batch.batch_rows;
      ++i;
    }
    out.push_back(std::move(batch));
  }
  return out;
}

std::vector<WriteOp> GroupIntoTransactions(std::span<const WriteOp> ops,
                                           uint64_t max_txn_ops,
                                           uint64_t seed) {
  DM_CHECK_MSG(max_txn_ops >= 1, "a transaction holds at least one op");
  Rng rng(seed ^ 0x7a5a5eed5a7eULL);
  std::vector<WriteOp> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size();) {
    if (ops[i].kind == WriteOpKind::kInsertBatch ||
        ops[i].kind == WriteOpKind::kTxn) {
      out.push_back(ops[i]);  // passes through; breaks the current run
      ++i;
      continue;
    }
    const uint64_t len = 1 + rng.Below(max_txn_ops);
    if (len == 1) {
      out.push_back(ops[i]);  // keep the plain op: the stream stays mixed
      ++i;
      continue;
    }
    WriteOp txn;
    txn.kind = WriteOpKind::kTxn;
    while (i < ops.size() && txn.txn_ops.size() < len &&
           ops[i].kind != WriteOpKind::kInsertBatch &&
           ops[i].kind != WriteOpKind::kTxn) {
      const WriteOp& op = ops[i];
      TxnOp t;
      t.kind = op.kind == WriteOpKind::kInsert   ? TxnOp::Kind::kInsert
               : op.kind == WriteOpKind::kUpdate ? TxnOp::Kind::kUpdate
                                                 : TxnOp::Kind::kDelete;
      t.target_row = op.target_row;
      t.keys = op.keys;
      txn.txn_ops.push_back(std::move(t));
      ++i;
    }
    out.push_back(std::move(txn));
  }
  return out;
}

void ApplyWriteOp(PartitionedTable* table, const WriteOp& op,
                  TaskQueue* batch_queue) {
  switch (op.kind) {
    case WriteOpKind::kInsert:
      table->InsertRow(op.keys);
      break;
    case WriteOpKind::kUpdate:
      table->UpdateRow(op.target_row, op.keys);
      break;
    case WriteOpKind::kDelete:
      (void)table->DeleteRow(op.target_row);
      break;
    case WriteOpKind::kInsertBatch:
      table->InsertRows(op.keys, op.batch_rows, batch_queue);
      break;
    case WriteOpKind::kTxn: {
      auto txn = table->BeginTransaction();
      for (const TxnOp& t : op.txn_ops) {
        switch (t.kind) {
          case TxnOp::Kind::kInsert:
            txn.Insert(t.keys);
            break;
          case TxnOp::Kind::kUpdate:
            txn.Update(t.target_row, t.keys);
            break;
          case TxnOp::Kind::kDelete:
            txn.Delete(t.target_row);
            break;
        }
      }
      // An empty readset cannot conflict: a deterministic schedule commits.
      const Status st = txn.Commit();
      DM_CHECK_MSG(st.ok(), "schedule transaction unexpectedly aborted");
      break;
    }
  }
}

double WriteScheduleReport::updates_per_second() const {
  if (wall_cycles == 0) return 0;
  return static_cast<double>(ops) / CycleClock::ToSeconds(wall_cycles);
}

WriteScheduleReport RunWriteSchedule(PartitionedTable* table,
                                     std::span<const WriteOp> ops,
                                     const WriteScheduleOptions& options) {
  DM_CHECK(table != nullptr);
  WriteScheduleReport report;
  uint64_t logical = 0;
  const uint64_t t0 = CycleClock::Now();
  for (size_t i = 0; i < ops.size(); ++i) {
    ApplyWriteOp(table, ops[i], options.batch_queue);
    logical += WriteOpLogicalOps(ops[i]);
    if (options.on_op_acknowledged) options.on_op_acknowledged(logical - 1);
    if (options.merge_every > 0 && (i + 1) % options.merge_every == 0 &&
        table->delta_rows() > 0) {
      report.merges += table->MergeAll(options.merge).segments_merged;
    }
  }
  report.wall_cycles = CycleClock::Now() - t0;
  report.ops = logical;
  return report;
}

ConcurrentWorkloadReport RunConcurrentReadWriteMerge(
    PartitionedTable* table, PartitionedMergeDaemon* daemon,
    const ConcurrentWorkloadOptions& options) {
  DM_CHECK(table != nullptr);
  ConcurrentWorkloadReport report;
  const size_t nc = table->num_columns();
  const uint64_t range_width = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(options.key_domain) *
                               options.range_fraction));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_reader_ops{0};
  std::atomic<uint64_t> total_snapshots{0};
  std::atomic<uint64_t> total_during_merge{0};
  std::atomic<uint64_t> checksum{0};

  const int readers = options.num_readers > 0 ? options.num_readers : 0;
  std::vector<std::vector<uint64_t>> all_samples(
      static_cast<size_t>(readers));
  std::vector<std::vector<uint64_t>> merge_samples(
      static_cast<size_t>(readers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(readers));

  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(options.seed ^ (0x9e3779b9ULL * static_cast<uint64_t>(r + 1)));
      auto& mine = all_samples[static_cast<size_t>(r)];
      auto& during = merge_samples[static_cast<size_t>(r)];
      uint64_t local_checksum = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const PartitionedSnapshot snap = table->CreateSnapshot();
        total_snapshots.fetch_add(1, std::memory_order_relaxed);
        for (int q = 0; q < options.reads_per_snapshot; ++q) {
          const size_t col = static_cast<size_t>(rng.Below(nc));
          const uint64_t kind = rng.Below(3);
          const bool merging_before =
              daemon != nullptr && daemon->merge_in_flight();
          const uint64_t t0 = CycleClock::Now();
          uint64_t result = 0;
          if (kind == 0) {
            result = snap.CountEquals(col, rng.Below(options.key_domain));
          } else if (kind == 1) {
            const uint64_t lo = rng.Below(options.key_domain);
            result = snap.CountRange(col, lo, lo + range_width);
          } else {
            result = snap.SumColumn(col);
          }
          const uint64_t dt = CycleClock::Now() - t0;
          // Sampled on both sides so a read a merge commit lands *inside*
          // (the worst case this driver exists to measure) counts too.
          const bool merging =
              merging_before ||
              (daemon != nullptr && daemon->merge_in_flight());
          mine.push_back(dt);
          if (merging) during.push_back(dt);
          local_checksum = local_checksum * 1099511628211ULL + result;
          total_reader_ops.fetch_add(1, std::memory_order_relaxed);
        }
      }
      checksum.fetch_add(local_checksum, std::memory_order_relaxed);
    });
  }

  // The writer runs on the calling thread: inserts modelling new business
  // objects, insert-only updates, and deletes (§2's write mix, write-only
  // legs). Reads are the readers' job.
  PartitionedMergeDaemonStats daemon_before;
  if (daemon != nullptr) {
    daemon_before = daemon->stats();
    daemon->Start();  // no-op if the caller already started it
  }
  Rng rng(options.seed ^ 0xabcdef12345ULL);
  std::vector<uint64_t> row_keys(nc);
  const uint64_t t0 = CycleClock::Now();
  for (uint64_t op = 0; op < options.writer_ops; ++op) {
    for (size_t c = 0; c < nc; ++c) {
      row_keys[c] = rng.Below(options.key_domain);
    }
    const uint64_t rows = table->num_rows();
    const uint64_t dice = rng.Below(100);
    if (dice < 55 || rows == 0) {
      table->InsertRow(row_keys);
    } else if (dice < 85) {
      table->UpdateRow(rng.Below(rows), row_keys);
    } else {
      (void)table->DeleteRow(rng.Below(rows));
    }
  }
  report.writer_cycles = CycleClock::Now() - t0;
  report.writer_ops = options.writer_ops;

  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  std::vector<uint64_t> merged_all;
  std::vector<uint64_t> merged_during;
  for (auto& v : all_samples) {
    merged_all.insert(merged_all.end(), v.begin(), v.end());
  }
  for (auto& v : merge_samples) {
    merged_during.insert(merged_during.end(), v.begin(), v.end());
  }
  report.reader_all = Summarize(merged_all);
  report.reader_during_merge = Summarize(merged_during);
  report.reader_ops = total_reader_ops.load();
  report.snapshots = total_snapshots.load();
  report.reads_during_merge = report.reader_during_merge.samples;
  report.checksum = checksum.load();
  if (daemon != nullptr) {
    const PartitionedMergeDaemonStats after = daemon->stats();
    report.merges_completed =
        after.segments_merged - daemon_before.segments_merged;
    report.rows_merged = after.rows_merged - daemon_before.rows_merged;
  }
  return report;
}

}  // namespace deltamerge
