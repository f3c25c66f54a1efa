// Copyright (c) 2026 The DeltaMerge Authors.
// Mixed OLTP/OLAP workload with background merging — the scenario the paper
// motivates in §2: one read-optimized store serving transactional writes,
// point reads, AND analytic scans, with the merge running online so the
// delta never grows unbounded.
//
// The driver replays Figure 1's OLTP query mix against a sales-line table
// while the merge daemon keeps the delta below 1% of the main partition,
// then switches to the OLAP mix for a reporting phase. It prints sustained
// throughput per phase and the merge activity that happened underneath.
//
// Usage: ./build/examples/mixed_workload  (env: DM_SCALE, DM_THREADS)

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "deltamerge.h"

using namespace deltamerge;

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback
                                      : std::strtoull(v, nullptr, 10);
}

void PrintPhase(const char* name, const WorkloadReport& report,
                const PartitionedMergeDaemon& daemon,
                const PartitionedTable& table) {
  std::printf("\n[%s] %llu ops at %.0f ops/s\n", name,
              (unsigned long long)report.total_ops,
              report.ops_per_second());
  for (int i = 0; i < kNumQueryTypes; ++i) {
    const auto t = static_cast<size_t>(i);
    if (report.count[t] == 0) continue;
    std::printf("  %-13s %8llu ops, avg %6.0f cycles\n",
                std::string(QueryTypeToString(static_cast<QueryType>(i)))
                    .c_str(),
                (unsigned long long)report.count[t],
                static_cast<double>(report.cycles[t]) /
                    static_cast<double>(report.count[t]));
  }
  const PartitionedMergeDaemonStats stats = daemon.stats();
  std::printf("  merges so far: %llu (%llu rows folded); delta now %llu "
              "rows of %llu total\n",
              (unsigned long long)stats.segments_merged,
              (unsigned long long)stats.rows_merged,
              (unsigned long long)table.delta_rows(),
              (unsigned long long)table.num_rows());
}

}  // namespace

int main() {
  const uint64_t scale = EnvU64("DM_FULL", 0) ? 1 : EnvU64("DM_SCALE", 25);
  const int threads = static_cast<int>(EnvU64("DM_THREADS", 2));
  const uint64_t base_rows = 20'000'000 / (scale == 0 ? 1 : scale);
  const uint64_t ops_per_phase = 2'000'000 / (scale == 0 ? 1 : scale);

  std::printf("building sales-line table: %llu rows x 6 columns...\n",
              (unsigned long long)base_rows);
  // Column domains follow Figure 4's enterprise profile: most columns are
  // low-cardinality, one is wide (document numbers).
  std::vector<ColumnBuildSpec> specs = {
      {8, 0.001, 0.001},  // material (few thousand distinct)
      {8, 0.01, 0.01},    // customer
      {4, 0.0001, 0.0001},// plant / org unit (handful of values)
      {8, 0.10, 0.10},    // amounts
      {16, 1.0, 1.0},     // document id (unique)
      {4, 0.001, 0.001},  // status codes
  };
  auto table = BuildTable(base_rows, 0, specs, 2026);
  // Adopt the built table as one unbounded segment: a monolithic store that
  // every merge folds whole.
  const PartitionedTable::RecoveredSegment adopted{table.get(), false};
  PartitionedTable store(table->schema(),
                         std::numeric_limits<uint64_t>::max(), nullptr,
                         {&adopted, 1});

  // Background merging: trigger at 1% delta fraction (§4's policy, the
  // Figure 9 setting), using the optimized parallel merge.
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 4096;
  TableMergeOptions merge_options;
  merge_options.merge.algorithm = MergeAlgorithm::kLinear;
  merge_options.num_threads = threads;
  PartitionedMergeDaemon daemon(&store, policy, merge_options);
  daemon.Start();

  WorkloadOptions wopt;
  wopt.key_domain = PoolSizeFor(base_rows, 0.01);
  wopt.range_fraction = 0.001;

  // Phase 1: transactional day — OLTP mix (~17% writes, Figure 1).
  const WorkloadReport oltp =
      RunMixedWorkload(&store, OltpMix(), ops_per_phase, wopt);
  PrintPhase("OLTP phase", oltp, daemon, store);

  // Phase 2: reporting — OLAP mix (>90% reads) over the same, still-fresh
  // data. No ETL, no second system: the paper's §2 argument.
  wopt.seed = 777;
  const WorkloadReport olap =
      RunMixedWorkload(&store, OlapMix(), ops_per_phase / 4, wopt);
  PrintPhase("OLAP phase", olap, daemon, store);

  daemon.Stop();

  const PartitionedMergeDaemonStats merged = daemon.stats();
  std::printf("\nmerge activity: %llu merges, %.1f cycles/tuple/column "
              "average, delta kept <= %.1f%% of main\n",
              (unsigned long long)merged.segments_merged,
              merged.merge.CyclesPerTuple(), policy.delta_fraction * 100);
  std::printf("final table: %llu rows (%llu valid), %.1f MB across %zu "
              "columns\n",
              (unsigned long long)store.num_rows(),
              (unsigned long long)store.valid_rows(),
              static_cast<double>(table->memory_bytes()) / (1 << 20),
              store.num_columns());
  return 0;
}
