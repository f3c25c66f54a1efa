// Copyright (c) 2026 The DeltaMerge Authors.
// Table 2: "Parallel scalability of various steps for different percentages
// of unique values. 1T denotes single-threaded run, while 6T represents the
// run using all 6-cores on a single socket."
//
// Paper parameters: N_M = 100M, N_D = 1M, E_j = 8 bytes, λ ∈ {1%, 100%}.
// Paper results (1-socket): 1% unique — update-delta 4.52 -> 0.87 (5.2x),
// step1 1.29 -> 0.30 (4.3x), step2 3.89 -> 1.85 (2.1x); 100% unique —
// 20.63 -> 4.21 (4.9x), 20.92 -> 6.97 (3.0x), 66.21 -> 15.0 (4.4x).
//
// NOTE: this container exposes few cores; with DM_THREADS=1 the "parallel"
// column degenerates and scaling ≈ 1x — the implementation is the paper's
// N_T-thread algorithm either way (docs/BENCHMARKS.md discusses this).
// The parallel delta update uses one task per column (§7.2), so it needs
// DM_COLUMNS > 1 to have work to spread; we measure NC=6 column instances.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "parallel/task_queue.h"

using namespace deltamerge;
using namespace deltamerge::bench;

namespace {

struct StepCosts {
  double update_delta = 0;
  double step1 = 0;
  double step2 = 0;
};

/// Measures per-step cpt over `columns` column instances. The delta update
/// parallelizes across columns via a task queue (§7.2); the merge steps
/// parallelize within each column (§6.2).
StepCosts Measure(uint64_t nm, uint64_t nd, double lambda, int threads,
                  int columns) {
  StepCosts out;
  // Build mains and pre-generate delta keys.
  std::vector<MainPartition<8>> mains;
  std::vector<std::vector<uint64_t>> keys;
  for (int c = 0; c < columns; ++c) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(c) * 131;
    mains.push_back(BuildMainPartition<8>(nm, lambda, seed));
    keys.push_back(GenerateColumnKeys(nd, lambda, 8, seed ^ 0xabcULL));
  }

  // T_U: all columns' deltas, parallelized across columns.
  std::vector<DeltaPartition<8>> deltas(static_cast<size_t>(columns));
  uint64_t t0 = CycleClock::Now();
  if (threads > 1) {
    TaskQueue queue(threads);
    for (int c = 0; c < columns; ++c) {
      queue.Submit([c, &deltas, &keys] {
        for (uint64_t k : keys[static_cast<size_t>(c)]) {
          deltas[static_cast<size_t>(c)].Insert(Value8::FromKey(k));
        }
      });
    }
    queue.WaitAll();
  } else {
    for (int c = 0; c < columns; ++c) {
      for (uint64_t k : keys[static_cast<size_t>(c)]) {
        deltas[static_cast<size_t>(c)].Insert(Value8::FromKey(k));
      }
    }
  }
  const uint64_t tu = CycleClock::Now() - t0;

  // Merge each column with an N_T team (§6.2 intra-column parallelism).
  ThreadTeam team(threads);
  MergeStats stats;
  for (int c = 0; c < columns; ++c) {
    auto merged = MergeColumnPartitions<8>(
        mains[static_cast<size_t>(c)], deltas[static_cast<size_t>(c)],
        MergeOptions{}, threads > 1 ? &team : nullptr, &stats);
    if (merged.size() != nm + nd) std::abort();
  }

  const double tuples = static_cast<double>(stats.nm + stats.nd);
  out.update_delta = static_cast<double>(tu) / tuples;
  out.step1 = stats.Step1aCyclesPerTuple() + stats.Step1bCyclesPerTuple();
  out.step2 = stats.Step2CyclesPerTuple();
  return out;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Table 2: parallel scalability per merge step "
              "(N_M=100M/scale, N_D=1M/scale, E_j=8B)",
              cfg);

  const uint64_t nm = cfg.Scaled(100'000'000);
  const uint64_t nd = cfg.Scaled(1'000'000);
  const int nt = cfg.threads;
  const int columns = 6;

  std::printf("%-8s %-14s %10s %10s %10s\n", "unique", "step", "1T(cpt)",
              "NT(cpt)", "scaling");
  for (double lambda : {0.01, 1.0}) {
    const StepCosts serial = Measure(nm, nd, lambda, 1, columns);
    const StepCosts parallel = Measure(nm, nd, lambda, nt, columns);
    const char* pct = lambda == 0.01 ? "1%" : "100%";
    std::printf("%-8s %-14s %10.2f %10.2f %9.1fx\n", pct, "Update Delta",
                serial.update_delta, parallel.update_delta,
                serial.update_delta / parallel.update_delta);
    std::printf("%-8s %-14s %10.2f %10.2f %9.1fx\n", pct, "Step 1",
                serial.step1, parallel.step1, serial.step1 / parallel.step1);
    std::printf("%-8s %-14s %10.2f %10.2f %9.1fx\n", pct, "Step 2",
                serial.step2, parallel.step2, serial.step2 / parallel.step2);
  }

  std::printf(
      "\n-- paper reference (1-socket X5680, 6 cores) --\n"
      "1%%:   update-delta 4.52->0.87 (5.2x), step1 1.29->0.30 (4.3x), "
      "step2 3.89->1.85 (2.1x)\n"
      "100%%: update-delta 20.63->4.21 (4.9x), step1 20.92->6.97 (3.0x), "
      "step2 66.21->15.0 (4.4x)\n"
      "(scaling here is bounded by the %d hardware thread(s) available)\n",
      nt);
  return 0;
}
