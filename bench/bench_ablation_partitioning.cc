// Copyright (c) 2026 The DeltaMerge Authors.
// Ablation (§9): horizontal partitioning — bounded incremental merges vs
// whole-table merges.
//
// "The memory consumption of the merge process has to be tackled ... Ideas
// from [3] could be taken further to directly include a horizontal
// partitioning strategy." (§9)
//
// Both tables ingest the same row stream with the same 1% merge trigger,
// through the same PartitionedTable front door. The monolithic table is one
// unbounded segment whose merge touches all N_M tuples every time (cost per
// merge grows with table size); the partitioned table only ever merges the
// open segment (bounded work, bounded scratch memory). The trade: reads fan
// out over per-segment dictionaries.

#include <cstdio>
#include <limits>

#include "bench_common.h"
#include "core/partitioned_table.h"

using namespace deltamerge;
using namespace deltamerge::bench;

namespace {

struct IngestOutcome {
  uint64_t merges = 0;
  uint64_t tuples_touched = 0;
  uint64_t merge_cycles = 0;
  uint64_t max_merge = 0;
};

/// Inserts `total_rows` seeded rows in `batch`-row rounds and runs one
/// 1%-triggered merge pass after each round.
IngestOutcome Ingest(PartitionedTable* t, uint64_t total_rows, uint64_t batch) {
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 256;
  IngestOutcome out;
  Rng rng(1234);
  std::vector<uint64_t> row(t->num_columns());
  for (uint64_t done = 0; done < total_rows; done += batch) {
    for (uint64_t i = 0; i < batch; ++i) {
      for (auto& k : row) k = rng.Below(1 << 20);
      t->InsertRow(row);
    }
    const PartitionedMergeReport rep =
        t->MergeDueSegments(policy, TableMergeOptions{});
    if (rep.table.rows_merged > 0) {
      ++out.merges;
      out.tuples_touched += rep.table.stats.nm + rep.table.stats.nd;
      out.merge_cycles += rep.table.wall_cycles;
      out.max_merge = std::max(out.max_merge, rep.max_segment_wall_cycles);
    }
  }
  return out;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Ablation (§9): whole-table merge vs horizontal partitions",
              cfg);

  const uint64_t total_rows = cfg.Scaled(50'000'000);
  const uint64_t segment_capacity = total_rows / 16;
  const uint64_t batch = std::max<uint64_t>(1, total_rows / 100);
  const int nc = 4;

  PartitionedTable mono(Schema::Uniform(nc, 8),
                        std::numeric_limits<uint64_t>::max());
  const IngestOutcome m = Ingest(&mono, total_rows, batch);
  PartitionedTable part(Schema::Uniform(nc, 8), segment_capacity);
  const IngestOutcome p = Ingest(&part, total_rows, batch);

  std::printf("%llu rows x %d columns ingested, merge trigger = 1%%\n\n",
              (unsigned long long)total_rows, nc);
  std::printf("%-22s %14s %14s\n", "", "monolithic", "partitioned");
  std::printf("%-22s %14llu %14llu\n", "merge rounds",
              (unsigned long long)m.merges, (unsigned long long)p.merges);
  std::printf("%-22s %14s %14s\n", "tuples re-encoded",
              HumanCount(m.tuples_touched).c_str(),
              HumanCount(p.tuples_touched).c_str());
  std::printf("%-22s %14.2f %14.2f\n", "total merge Gcycles",
              static_cast<double>(m.merge_cycles) / 1e9,
              static_cast<double>(p.merge_cycles) / 1e9);
  std::printf("%-22s %14.2f %14.2f\n", "worst merge Gcycles",
              static_cast<double>(m.max_merge) / 1e9,
              static_cast<double>(p.max_merge) / 1e9);
  std::printf("%-22s %14zu %14zu\n", "segments", mono.num_segments(),
              part.num_segments());

  // Read-side price: same range query against both.
  const uint64_t t0 = CycleClock::Now();
  const uint64_t a = mono.CountRange(0, 1000, 50000);
  const uint64_t mono_read = CycleClock::Now() - t0;
  const uint64_t t1 = CycleClock::Now();
  const uint64_t b = part.CountRange(0, 1000, 50000);
  const uint64_t part_read = CycleClock::Now() - t1;
  if (a != b) std::abort();
  std::printf("%-22s %14.2f %14.2f\n", "range query Mcycles",
              static_cast<double>(mono_read) / 1e6,
              static_cast<double>(part_read) / 1e6);

  std::printf("\nreading the table: partitioning cuts total re-encoding "
              "work %.1fx and bounds the worst merge %.1fx, at a modest "
              "read fan-out cost — §9's horizontal strategy.\n",
              static_cast<double>(m.tuples_touched) /
                  static_cast<double>(p.tuples_touched ? p.tuples_touched : 1),
              static_cast<double>(m.max_merge) /
                  static_cast<double>(p.max_merge ? p.max_merge : 1));
  return 0;
}
