// Copyright (c) 2026 The DeltaMerge Authors.
// Read-cost model and delta-size advisor — the §9 future-work extension:
// "we plan to extend the current analytical model with a more detailed model
// for scans and lookup operations [19]", quantifying §4's trade-off:
//
//   small delta  -> cheap reads, frequent merges (high amortized merge cost)
//   large delta  -> reads pay the uncompressed-delta tax (more bytes per
//                   tuple, forced materialization), merges are rare
//
// The advisor finds the delta threshold N_D* that minimizes total cycles per
// update for a given read/write ratio — turning §4's qualitative discussion
// into the delta_fraction a MergeDaemonPolicy needs.

#pragma once

#include <cstdint>

#include "model/cost_model.h"
#include "model/machine_profile.h"

namespace deltamerge {

/// Cycles to scan one column of N_M compressed + N_D uncompressed tuples
/// with a predicate (Manegold-style stream model [19]): the main partition
/// streams E_C bits per tuple; the delta streams E_j bytes per tuple — the
/// uncompressed-delta read tax of §4.
double ScanCycles(const MergeShape& s, const MachineProfile& m, int threads);

/// Cycles for a key lookup: binary search of the main dictionary
/// (log2 |U_M| dependent cache lines), a code scan of the main partition,
/// plus a CSB+ descent (log_F N_D nodes) and postings walk on the delta.
double LookupCycles(const MergeShape& s, const MachineProfile& m,
                    int threads);

/// The marginal read cost a delta tuple adds to one scan, in cycles —
/// d(ScanCycles)/d(N_D).
double DeltaScanTaxCyclesPerTuple(const MergeShape& s,
                                  const MachineProfile& m, int threads);

/// Workload profile for the advisor: how many column scans execute per
/// update arriving at the table (from Figure 1's mixes: OLTP ~0.2 scans per
/// write at equal query weights; higher for OLAP).
struct ReadWriteProfile {
  double scans_per_update = 0.5;
};

/// Result of the trade-off analysis.
struct DeltaThreshold {
  uint64_t optimal_nd = 0;        ///< N_D* minimizing cycles per update
  double fraction_of_main = 0;    ///< N_D* / N_M — the delta_fraction knob
  double cycles_per_update = 0;   ///< at the optimum
  double merge_cycles_per_update = 0;
  double read_tax_cycles_per_update = 0;
};

/// Amortized cycles per update when merging every `nd` updates: the merge
/// cost spread over nd updates plus the average delta read tax paid by the
/// scans arriving while the delta fills.
double CyclesPerUpdateAt(uint64_t nd, const MergeShape& base,
                         const MachineProfile& m, int threads,
                         const ReadWriteProfile& profile);

/// Minimizes CyclesPerUpdateAt over N_D by golden-section-style search on a
/// log grid. `base.nm` fixes the main size; base's unique fractions set the
/// dictionary growth per delta tuple.
DeltaThreshold AdviseDeltaThreshold(const MergeShape& base,
                                    const MachineProfile& m, int threads,
                                    const ReadWriteProfile& profile);

}  // namespace deltamerge
