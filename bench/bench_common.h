// Copyright (c) 2026 The DeltaMerge Authors.
// Shared harness for the figure/table reproduction binaries.
//
// Every bench prints the same rows/series its paper counterpart reports.
// Absolute cycle counts differ from the paper's dual-socket X5680 — this
// container is not that machine — but the *shapes* (who wins, by what
// factor, where the cache knee falls) are the reproduction target; see
// docs/BENCHMARKS.md.
//
// Environment knobs (all benches):
//   DM_SCALE    divisor applied to the paper's tuple counts (default 25,
//               i.e. N_M = 100M becomes 4M). DM_SCALE=1 is paper scale.
//   DM_FULL=1   shorthand for DM_SCALE=1.
//   DM_THREADS  worker threads (default: hardware concurrency).
//   DM_COLUMNS  how many real columns to measure per configuration
//               (default 1; results are normalized per column).
//   DM_JSON     path of a JSON-lines file to append machine-readable
//               results to (one object per measured configuration, each
//               tagged with the host's nproc and TSC GHz); used by CI to
//               record the benchmark trajectory (BENCH_pr<N>.json).

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/merge_algorithms.h"
#include "core/merge_types.h"
#include "model/cost_model.h"
#include "storage/column.h"
#include "util/cycle_clock.h"
#include "workload/table_builder.h"

namespace deltamerge::bench {

inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

inline bool EnvFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// Global scaling configuration shared by all benches.
struct BenchConfig {
  uint64_t scale = 25;  ///< divisor on the paper's tuple counts
  int threads = 1;
  int columns = 1;

  static BenchConfig FromEnv() {
    BenchConfig c;
    c.scale = EnvFlag("DM_FULL") ? 1 : EnvU64("DM_SCALE", 25);
    if (c.scale == 0) c.scale = 1;
    const unsigned hw = std::thread::hardware_concurrency();
    c.threads = static_cast<int>(
        EnvU64("DM_THREADS", hw == 0 ? 1 : hw));
    if (c.threads < 1) c.threads = 1;
    c.columns = static_cast<int>(EnvU64("DM_COLUMNS", 1));
    if (c.columns < 1) c.columns = 1;
    return c;
  }

  uint64_t Scaled(uint64_t paper_count) const {
    const uint64_t v = paper_count / scale;
    return v == 0 ? 1 : v;
  }
};

/// One measured configuration: the paper's per-tuple-per-column "update
/// cost" decomposition (Figures 7 and 8) plus the Eq. 16 update rate.
struct CellResult {
  double update_delta_cpt = 0;  ///< T_U / (N_M + N_D)
  double step1_cpt = 0;         ///< merge Step 1(a)+1(b)
  double step2_cpt = 0;         ///< merge Step 2
  double merge_cpt = 0;         ///< whole merge (incl. glue)
  MergeStats stats;
  uint64_t delta_insert_cycles = 0;

  double total_cpt() const { return update_delta_cpt + merge_cpt; }

  /// Eq. 16: updates/second for a table of `nc` such columns.
  double UpdatesPerSecond(uint64_t nc) const {
    const double cycles = total_cpt() *
                          static_cast<double>(stats.nm + stats.nd) *
                          static_cast<double>(nc);
    if (cycles <= 0) return 0;
    return static_cast<double>(stats.nd) * CycleClock::FrequencyHz() /
           cycles;
  }
};

/// Builds a main partition + delta of the given shape, measures the delta
/// update time T_U (CSB+ inserts through the real write path) and the merge
/// (per-step cycles), averaged over cfg.columns column instances.
template <size_t W>
CellResult MeasureUpdateCost(const BenchConfig& cfg, uint64_t nm, uint64_t nd,
                             double lambda_m, double lambda_d,
                             MergeAlgorithm algo, int threads,
                             uint64_t seed = 42) {
  CellResult out;
  ThreadTeam team(threads < 1 ? 1 : threads);
  for (int c = 0; c < cfg.columns; ++c) {
    const uint64_t col_seed = seed + static_cast<uint64_t>(c) * 7919;
    auto main = BuildMainPartition<W>(nm, lambda_m, col_seed);
    const std::vector<uint64_t> keys =
        GenerateColumnKeys(nd, lambda_d, W, col_seed ^ 0xd311aULL);

    // T_U: the real write path (value append + CSB+ insert per tuple).
    DeltaPartition<W> delta;
    const uint64_t t0 = CycleClock::Now();
    for (uint64_t k : keys) {
      delta.Insert(FixedValue<W>::FromKey(k));
    }
    out.delta_insert_cycles += CycleClock::Now() - t0;

    MergeOptions options;
    options.algorithm = algo;
    MergeStats stats;
    auto merged = MergeColumnPartitions<W>(
        main, delta, options, threads > 1 ? &team : nullptr, &stats);
    // Keep the optimizer from discarding the merge.
    if (merged.size() != nm + nd) std::abort();
    out.stats.Accumulate(stats);
  }
  const double tuples = static_cast<double>(out.stats.nm + out.stats.nd);
  out.update_delta_cpt = static_cast<double>(out.delta_insert_cycles) / tuples;
  out.step1_cpt =
      out.stats.Step1aCyclesPerTuple() + out.stats.Step1bCyclesPerTuple();
  out.step2_cpt = out.stats.Step2CyclesPerTuple();
  out.merge_cpt = out.stats.CyclesPerTuple();
  return out;
}

/// Width-erased dispatch of MeasureUpdateCost.
inline CellResult MeasureUpdateCostW(const BenchConfig& cfg, size_t width,
                                     uint64_t nm, uint64_t nd,
                                     double lambda_m, double lambda_d,
                                     MergeAlgorithm algo, int threads,
                                     uint64_t seed = 42) {
  switch (width) {
    case 4:
      return MeasureUpdateCost<4>(cfg, nm, nd, lambda_m, lambda_d, algo,
                                  threads, seed);
    case 16:
      return MeasureUpdateCost<16>(cfg, nm, nd, lambda_m, lambda_d, algo,
                                   threads, seed);
    default:
      return MeasureUpdateCost<8>(cfg, nm, nd, lambda_m, lambda_d, algo,
                                  threads, seed);
  }
}

inline void PrintHeader(const char* title, const BenchConfig& cfg) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", title);
  std::printf("scale=1/%llu  threads=%d  columns_measured=%d  tsc=%.2f GHz\n",
              static_cast<unsigned long long>(cfg.scale), cfg.threads,
              cfg.columns, CycleClock::FrequencyHz() / 1e9);
  std::printf("=====================================================================\n");
}

/// Appends one JSON object line to the file named by DM_JSON (no-op when
/// the variable is unset). The caller passes the object's body without the
/// surrounding braces, e.g. `"\"bench\":\"x\",\"ups\":123.4"`. Every row
/// starts with the host it ran on: "nproc" (hardware threads) and
/// "tsc_ghz" (the cycle clock's frequency).
inline void AppendJsonResult(const std::string& fields) {
  const char* path = std::getenv("DM_JSON");
  if (path == nullptr || *path == '\0') return;
  FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  std::fprintf(f, "{\"nproc\":%u,\"tsc_ghz\":%.2f,%s}\n",
               std::thread::hardware_concurrency(),
               CycleClock::FrequencyHz() / 1e9, fields.c_str());
  std::fclose(f);
}

inline std::string HumanCount(uint64_t n) {
  char buf[32];
  if (n >= 1000000000ull && n % 1000000000ull == 0) {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(n / 1000000000ull));
  } else if (n >= 1000000 && n % 100000 == 0) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(n / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(n));
  }
  return std::string(buf);
}

}  // namespace deltamerge::bench
