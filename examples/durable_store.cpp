// Copyright (c) 2026 The DeltaMerge Authors.
// Durable store: crash-safe writes with the WAL + checkpoint subsystem.
//
//   1. open (create) a durable table in a directory — one segment of
//      unbounded capacity, the monolithic shape of the partitioned store
//   2. write with sync=every-commit — each op is on disk before it returns
//   3. merge: the commit doubles as a checkpoint; the WAL truncates
//   4. "crash" (drop the handle without cleanup), reopen, and observe
//      recovery rebuild the exact same table from checkpoint + WAL tail
//
// Build & run:  cmake --build build && ./build/examples/durable_store
// DM_SCALE shrinks the row count (see bench/bench_common.h).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "deltamerge.h"

using namespace deltamerge;
using persist::DurablePartitionedTable;
using persist::DurableTableOptions;
using persist::WalSyncPolicy;

namespace {

uint64_t ScaledRows() {
  const char* s = std::getenv("DM_SCALE");
  const uint64_t scale = (s != nullptr && *s != '\0')
                             ? std::strtoull(s, nullptr, 10)
                             : 25;
  const uint64_t rows = 100'000 / (scale == 0 ? 1 : scale);
  return rows == 0 ? 1 : rows;
}

}  // namespace

int main() {
  const std::string dir = "./durable_store_demo";
  (void)RemoveDirAll(dir);  // fresh demo directory

  Schema schema;
  schema.columns = {{8, "order_id"}, {8, "amount_cents"}, {4, "status"}};

  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  const uint64_t unbounded = std::numeric_limits<uint64_t>::max();

  const uint64_t n = ScaledRows();
  uint64_t sum_before = 0, valid_before = 0, rows_before = 0;

  // --- 1+2. Create, write durably, 3. merge → checkpoint -------------------
  {
    auto opened =
        DurablePartitionedTable::Open(dir, schema, unbounded, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    auto store = std::move(opened).ValueOrDie();
    PartitionedTable& t = store->table();

    std::printf("writing %" PRIu64 " orders (sync=every-commit)...\n", n);
    for (uint64_t i = 0; i < n; ++i) {
      t.InsertRow({1000 + i, (i * 37) % 100'000, i % 5});
      if (i % 3 == 0 && i > 0) {
        t.UpdateRow(i / 3, {1000 + i / 3, (i * 11) % 100'000, 4});
      }
    }
    (void)t.DeleteRow(0);

    // A foreground merge: the commit writes a checkpoint and truncates the
    // WAL (a PartitionedMergeDaemon does the same autonomously, per
    // segment).
    TableMergeOptions merge;
    merge.num_threads = 2;
    const PartitionedMergeReport report = t.MergeAll(merge);
    std::printf("merged %" PRIu64 " delta rows; checkpoints written: %"
                PRIu64 "\n",
                report.table.rows_merged,
                store->durable_segment(0).durability().checkpoints_written());

    // A little more traffic after the checkpoint — this is the WAL tail
    // recovery will replay.
    for (uint64_t i = 0; i < n / 10 + 1; ++i) {
      t.InsertRow({9000 + i, i, 1});
    }

    rows_before = t.num_rows();
    valid_before = t.valid_rows();
    sum_before = t.SumColumn(1);
    std::printf("before crash: rows=%" PRIu64 " valid=%" PRIu64
                " sum(amount)=%" PRIu64 "\n",
                rows_before, valid_before, sum_before);
    // --- 4. "Crash": the handle goes away; a real crash would be SIGKILL.
    // Every op above was acknowledged, so everything must survive.
  }

  // --- Recovery -------------------------------------------------------------
  auto reopened =
      DurablePartitionedTable::Open(dir, schema, unbounded, options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(reopened).ValueOrDie();
  const persist::RecoveryStats& rs = store->recovery().segments[0];
  std::printf("recovered: checkpoint=%s (rows=%" PRIu64 "), wal tail "
              "replayed=%" PRIu64 " records (torn_tail=%s)\n",
              rs.checkpoint_loaded ? "yes" : "no", rs.checkpoint_rows,
              rs.wal_records_applied, rs.torn_tail ? "yes" : "no");

  const PartitionedTable& t = store->table();
  const bool ok = t.num_rows() == rows_before &&
                  t.valid_rows() == valid_before &&
                  t.SumColumn(1) == sum_before;
  std::printf("after recovery: rows=%" PRIu64 " valid=%" PRIu64
              " sum(amount)=%" PRIu64 "  => %s\n",
              t.num_rows(), t.valid_rows(), t.SumColumn(1),
              ok ? "MATCH" : "MISMATCH");

  store.reset();
  (void)RemoveDirAll(dir);
  return ok ? 0 : 1;
}
