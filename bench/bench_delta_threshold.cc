// Copyright (c) 2026 The DeltaMerge Authors.
// §4's delta-size trade-off, made quantitative (§9 model extension):
// "Computing the appropriate size of the delta partition ... is dictated by
// the following two conflicting choices: (i) Small delta partition ...
// merging ... more frequently ... (ii) Large delta partition ... slower read
// performance due to the fact that the delta partition stores uncompressed
// values."
//
// Using the merge cost model (Eqs. 8-15) plus the scan-tax model
// (model/read_cost.h), this bench prints amortized cycles-per-update as a
// function of the merge threshold N_D, and the advised optimum for several
// read/write mixes — the number MergeDaemonPolicy::delta_fraction wants.

#include <cstdio>

#include "bench_common.h"
#include "model/read_cost.h"

using namespace deltamerge;
using namespace deltamerge::bench;

int main() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("§4 trade-off: merge threshold N_D* vs read/write mix "
              "(model-driven)",
              cfg);

  const MachineProfile m = MachineProfile::Paper();
  const MergeShape base =
      MergeShape::FromParameters(100'000'000, 1'000'000, 0.1, 0.1, 8);
  std::printf("table: N_M=100M, lambda=10%%, E_j=8B; machine: paper X5680, "
              "6 threads\n\n");

  // The cost curve for a mixed workload (0.5 scans per update).
  ReadWriteProfile mixed;
  mixed.scans_per_update = 0.5;
  std::printf("cycles per update vs merge threshold (0.5 scans/update):\n");
  std::printf("%-12s %18s %18s %18s\n", "N_D", "merge amortized",
              "delta read tax", "total");
  for (uint64_t nd : {10'000ull, 50'000ull, 200'000ull, 1'000'000ull,
                      5'000'000ull, 20'000'000ull, 50'000'000ull}) {
    MergeShape s = base;
    s.nd = nd;
    s.ud = std::max<uint64_t>(1, nd / 10);
    s.u_merged = s.um + s.ud;
    s.DeriveCodeBits();
    const CostProjection p = ProjectMergeCost(s, m, 6);
    const double merge_per_update = p.total_cpt() *
                                    static_cast<double>(s.nm + s.nd) /
                                    static_cast<double>(nd);
    const double total = CyclesPerUpdateAt(nd, base, m, 6, mixed);
    std::printf("%-12s %18.0f %18.0f %18.0f\n", HumanCount(nd).c_str(),
                merge_per_update, total - merge_per_update, total);
  }

  std::printf("\nadvised threshold by workload mix:\n");
  std::printf("%-24s %14s %16s %20s\n", "scans per update", "N_D*",
              "% of N_M", "cycles/update");
  for (double spu : {0.01, 0.1, 0.5, 2.0, 10.0}) {
    ReadWriteProfile profile;
    profile.scans_per_update = spu;
    const DeltaThreshold t = AdviseDeltaThreshold(base, m, 6, profile);
    std::printf("%-24.2f %14s %15.2f%% %20.0f\n", spu,
                HumanCount(t.optimal_nd).c_str(),
                t.fraction_of_main * 100, t.cycles_per_update);
  }

  std::printf("\nreading the table: read-heavy mixes push the optimum to "
              "small deltas (merge often), write-heavy mixes tolerate "
              "large deltas; the paper's fixed 1%%-of-N_M policy (Fig. 9) "
              "sits in the broad middle of this curve.\n");
  return 0;
}
