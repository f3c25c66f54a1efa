// Copyright (c) 2026 The DeltaMerge Authors.
// Quickstart: the 5-minute tour of the public API.
//
//   1. declare a schema and create a table
//   2. insert, update (insert-only), delete
//   3. query a snapshot across the compressed main and uncompressed delta
//   4. run an online merge and observe the partitions fold together
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <limits>

#include "deltamerge.h"

using namespace deltamerge;

int main() {
  // --- 1. Schema and table --------------------------------------------------
  // Columns have fixed value widths (4, 8, or 16 bytes) — the paper's E_j.
  // An unbounded segment capacity keeps the whole table in one main/delta
  // pair, as §4 describes it.
  Schema schema;
  schema.columns = {
      {8, "order_id"}, {8, "amount_cents"}, {4, "status"}, {16, "customer"}};
  PartitionedTable orders(schema, std::numeric_limits<uint64_t>::max());
  std::printf("created table with %zu columns\n", orders.num_columns());

  // --- 2. Writes ------------------------------------------------------------
  // All writes go to the write-optimized delta partition; values are 64-bit
  // ordering keys.
  const uint64_t row0 = orders.InsertRow({1001, 259'00, 1, 77001});
  const uint64_t row1 = orders.InsertRow({1002, 1'499'00, 1, 77002});
  orders.InsertRow({1003, 89'50, 2, 77001});

  // Updates are modelled as new inserts; the old version is invalidated but
  // stays addressable (the paper's insert-only history, §3).
  const uint64_t row1b = orders.UpdateRow(row1, {1002, 1'399'00, 3, 77002});
  if (!orders.DeleteRow(row0).ok()) return 1;

  // --- 3. Reads -------------------------------------------------------------
  // A snapshot answers every read as of its capture instant, spanning both
  // partitions transparently.
  PartitionedSnapshot snap = orders.CreateSnapshot();
  std::printf("rows: %llu total, %llu valid (history retained)\n",
              (unsigned long long)snap.num_rows(),
              (unsigned long long)snap.valid_rows());
  std::printf("order 1002: old amount %llu, new amount %llu\n",
              (unsigned long long)snap.GetKey(1, row1),
              (unsigned long long)snap.GetKey(1, row1b));
  std::printf("orders by customer 77001: %llu\n",
              (unsigned long long)snap.CountEquals(3, 77001));
  std::printf("orders with amount in [100.00, 1500.00]: %llu\n",
              (unsigned long long)snap.CountRange(1, 100'00, 1'500'00));
  snap.Release();

  // Everything so far lives in the delta partition:
  std::printf("before merge: main=%llu tuples, delta=%llu tuples\n",
              (unsigned long long)(orders.num_rows() - orders.delta_rows()),
              (unsigned long long)orders.delta_rows());

  // --- 4. Merge -------------------------------------------------------------
  // The online merge folds the delta into the dictionary-compressed main
  // partition. Writes and reads continue while it runs; only the freeze and
  // commit instants lock the table (§3).
  TableMergeOptions options;
  options.merge.algorithm = MergeAlgorithm::kLinear;  // the paper's algorithm
  options.num_threads = 2;
  const PartitionedMergeReport report = orders.MergeAll(options);
  if (report.segments_merged != 1) {
    std::fprintf(stderr, "merge failed\n");
    return 1;
  }
  std::printf("after merge:  main=%llu tuples, delta=%llu tuples "
              "(%.1f cycles/tuple/column)\n",
              (unsigned long long)(orders.num_rows() - orders.delta_rows()),
              (unsigned long long)orders.delta_rows(),
              report.table.stats.CyclesPerTuple());

  // Queries are unchanged by the merge — answers now come from the
  // compressed main partition, whose dictionary holds each distinct value
  // once.
  snap = orders.CreateSnapshot();
  std::printf("orders by customer 77001 (post-merge): %llu\n",
              (unsigned long long)snap.CountEquals(3, 77001));
  const uint64_t distinct = snap.GroupCount(1).size();
  std::printf("amount column dictionary: %llu distinct values, %u-bit codes\n",
              (unsigned long long)distinct,
              unsigned(BitsForCardinality(distinct)));
  return 0;
}
