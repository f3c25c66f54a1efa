// Copyright (c) 2026 The DeltaMerge Authors.
// Online merge under load (§3, §9): a single writer sustains the paper's
// insert-only update stream while N reader threads pin epoch snapshots and
// run lookups / range counts / scans against them, and the
// PartitionedMergeDaemon merges whenever the §4 trigger fires. The table is
// built as one Table and adopted as a single unbounded segment, so every
// merge folds the whole delta into the whole main. Reported per
// configuration:
//
//   * updates/s the writer sustained (the Figure 9 metric, measured);
//   * reader latency p50/p95 over all reads vs. reads that overlapped a
//     merge body — the cost of reading *through* an online merge;
//   * merges completed and rows folded while the workload ran.
//
// The contrast row runs the same workload with the daemon disabled: the
// delta grows unmerged, so reads get slower while updates get cheaper —
// exactly the trade the merge trigger navigates.
//
// Knobs: DM_SCALE / DM_THREADS (see bench_common.h), DM_READERS.

#include <cstdio>
#include <limits>

#include "bench_common.h"
#include "core/partitioned_table.h"
#include "core/table.h"
#include "util/cycle_clock.h"
#include "workload/query_gen.h"
#include "workload/table_builder.h"

namespace deltamerge::bench {
namespace {

constexpr uint64_t kPaperMainRows = 10'000'000;
constexpr uint64_t kPaperWriterOps = 1'000'000;
constexpr uint64_t kKeyDomain = 1 << 20;

void RunConfig(const BenchConfig& cfg, int readers, bool with_daemon) {
  const uint64_t nm = cfg.Scaled(kPaperMainRows);
  const uint64_t writer_ops = cfg.Scaled(kPaperWriterOps);

  std::vector<ColumnBuildSpec> specs(4);
  for (auto& s : specs) {
    s.value_width = 8;
    s.main_unique = 0.1;
    s.delta_unique = 0.1;
  }
  auto table = BuildTable(nm, 0, specs, /*seed=*/42);
  const PartitionedTable::RecoveredSegment adopted{table.get(), false};
  PartitionedTable part(table->schema(), std::numeric_limits<uint64_t>::max(),
                        nullptr, {&adopted, 1});

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;  // Figure 9's 1% trigger
  policy.min_delta_rows = 1024;
  policy.poll_interval_us = 500;
  TableMergeOptions merge_options;
  merge_options.num_threads = cfg.threads > 1 ? cfg.threads / 2 : 1;
  merge_options.parallelism = MergeParallelism::kColumnTasks;
  PartitionedMergeDaemon daemon(&part, policy, merge_options);

  ConcurrentWorkloadOptions options;
  options.num_readers = readers;
  options.writer_ops = writer_ops;
  options.key_domain = kKeyDomain;
  options.seed = 42;

  const ConcurrentWorkloadReport report = RunConcurrentReadWriteMerge(
      &part, with_daemon ? &daemon : nullptr, options);
  if (with_daemon) daemon.Stop();

  const double to_us = 1e6 / CycleClock::FrequencyHz();
  std::printf(
      "%-9s %8s %7d %12.0f %10.1f %10.1f %12.1f %7llu %11llu\n",
      with_daemon ? "daemon" : "no-merge", HumanCount(nm).c_str(), readers,
      report.updates_per_second(),
      static_cast<double>(report.reader_all.p50) * to_us,
      static_cast<double>(report.reader_all.p95) * to_us,
      static_cast<double>(report.reader_during_merge.p50) * to_us,
      static_cast<unsigned long long>(report.merges_completed),
      static_cast<unsigned long long>(report.reads_during_merge));

  char json[256];
  std::snprintf(
      json, sizeof(json),
      "\"bench\":\"online_merge\",\"mode\":\"%s\",\"readers\":%d,"
      "\"updates_per_s\":%.0f,\"read_p50_us\":%.2f,"
      "\"read_merge_p50_us\":%.2f,\"merges\":%llu,\"rows_merged\":%llu",
      with_daemon ? "daemon" : "no-merge", readers,
      report.updates_per_second(),
      static_cast<double>(report.reader_all.p50) * to_us,
      static_cast<double>(report.reader_during_merge.p50) * to_us,
      static_cast<unsigned long long>(report.merges_completed),
      static_cast<unsigned long long>(report.rows_merged));
  AppendJsonResult(json);
}

}  // namespace
}  // namespace deltamerge::bench

int main() {
  using namespace deltamerge;
  using namespace deltamerge::bench;

  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Online merge under load: updates/s + snapshot-read latency "
              "while the merge daemon merges",
              cfg);
  const int readers = static_cast<int>(
      EnvU64("DM_READERS", cfg.threads > 4 ? 4 : cfg.threads));

  std::printf(
      "%-9s %8s %7s %12s %10s %10s %12s %7s %11s\n", "mode", "N_M",
      "readers", "updates/s", "rd_p50us", "rd_p95us", "merge_p50us",
      "merges", "rd_in_merge");
  RunConfig(cfg, readers, /*with_daemon=*/true);
  RunConfig(cfg, readers, /*with_daemon=*/false);
  return 0;
}
