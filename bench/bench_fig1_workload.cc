// Copyright (c) 2026 The DeltaMerge Authors.
// Figure 1: "Distribution of query types extracted from customer database
// statistics, comparing OLTP and OLAP workloads. In contrast, the TPC-C
// benchmark has a higher write ratio."
//
// The customer systems are proprietary; this bench prints the digitized
// distributions, verifies the quoted aggregates (>80% reads OLTP, >90%
// OLAP, ~17%/~7% writes, TPC-C 46% writes), then *executes* each mix
// against a live table and reports realized counts and per-type costs —
// the substitution documented in docs/BENCHMARKS.md ("Documented
// deviations").

#include <cstdio>

#include "bench_common.h"
#include "workload/enterprise_stats.h"
#include "workload/query_gen.h"

using namespace deltamerge;
using namespace deltamerge::bench;

namespace {

void PrintMix(const char* name, const QueryMix& mix) {
  std::printf("%-8s", name);
  for (int i = 0; i < kNumQueryTypes; ++i) {
    std::printf(" %12.1f%%", mix.fraction[static_cast<size_t>(i)] * 100);
  }
  std::printf("   reads=%.0f%% writes=%.0f%%\n", mix.read_fraction() * 100,
              mix.write_fraction() * 100);
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Figure 1: query-type distribution (OLTP vs OLAP vs TPC-C)",
              cfg);

  std::printf("%-8s", "");
  for (int i = 0; i < kNumQueryTypes; ++i) {
    std::printf(" %13s",
                std::string(QueryTypeToString(static_cast<QueryType>(i)))
                    .c_str());
  }
  std::printf("\n");
  PrintMix("OLTP", OltpMix());
  PrintMix("OLAP", OlapMix());
  PrintMix("TPC-C", TpccMix());

  // Execute each mix against a live table.
  const uint64_t rows = cfg.Scaled(10'000'000);
  std::printf("\nexecuting %s ops of each mix against a %s-row, 4-column "
              "table...\n",
              HumanCount(cfg.Scaled(2'000'000)).c_str(),
              HumanCount(rows).c_str());

  struct NamedMix {
    const char* name;
    QueryMix mix;
  } mixes[] = {{"OLTP", OltpMix()}, {"OLAP", OlapMix()},
               {"TPC-C", TpccMix()}};

  for (const auto& nm : mixes) {
    std::vector<ColumnBuildSpec> specs(4, ColumnBuildSpec{8, 0.05, 0.05});
    auto table = BuildTable(rows, 0, specs, 91);
    WorkloadOptions options;
    options.key_domain = PoolSizeFor(rows, 0.05);
    const uint64_t ops = cfg.Scaled(2'000'000);
    const WorkloadReport report =
        RunMixedWorkload(table.get(), nm.mix, ops, options);
    std::printf("\n%s realized (%llu ops, %.0f ops/s):\n", nm.name,
                static_cast<unsigned long long>(report.total_ops),
                report.ops_per_second());
    for (int i = 0; i < kNumQueryTypes; ++i) {
      const auto t = static_cast<size_t>(i);
      const double frac = static_cast<double>(report.count[t]) /
                          static_cast<double>(report.total_ops);
      const double avg_cycles =
          report.count[t] == 0
              ? 0
              : static_cast<double>(report.cycles[t]) /
                    static_cast<double>(report.count[t]);
      std::printf("  %-13s %6.1f%%  avg %.0f cycles/op\n",
                  std::string(QueryTypeToString(static_cast<QueryType>(i)))
                      .c_str(),
                  frac * 100, avg_cycles);
    }
  }
  return 0;
}
