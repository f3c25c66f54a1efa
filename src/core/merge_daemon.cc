// Copyright (c) 2026 The DeltaMerge Authors.

#include "core/merge_daemon.h"

#include "util/cycle_clock.h"

namespace deltamerge {

double ProjectedMergeSeconds(const std::vector<Table::ColumnShape>& shapes,
                             const MachineProfile& m, int threads) {
  double seconds = 0;
  for (const Table::ColumnShape& col : shapes) {
    const uint64_t nm = col.nm;
    const uint64_t nd = col.nd_active + col.nd_frozen;
    if (nm + nd == 0) continue;
    MergeShape s;
    s.nm = nm;
    s.nd = nd;
    s.um = col.um > 0 ? col.um : 1;
    s.ud = col.ud > 0 ? col.ud : 1;
    // Overlap-free upper bound on the merged dictionary.
    s.u_merged = s.um + s.ud;
    s.ej = static_cast<double>(col.value_width);
    s.DeriveCodeBits();
    const CostProjection p = ProjectMergeCost(s, m, threads);
    seconds += p.total_cpt() * static_cast<double>(nm + nd) / m.frequency_hz;
  }
  return seconds;
}

MergeTrigger EvaluateMergeTrigger(const Table& table,
                                  const MergeDaemonPolicy& policy,
                                  int merge_threads,
                                  double delta_rows_per_sec) {
  const std::vector<Table::ColumnShape> shapes = table.column_shapes();
  const uint64_t nd = shapes.empty() ? 0 : shapes[0].nd_active;
  const uint64_t nm = shapes.empty() ? 0 : shapes[0].nm;
  const double threshold =
      policy.delta_fraction * static_cast<double>(nm);

  if (nd >= policy.min_delta_rows) {
    if (static_cast<double>(nd) > threshold) return MergeTrigger::kDeltaSize;
    if (policy.max_projected_merge_seconds > 0 &&
        ProjectedMergeSeconds(shapes, policy.profile, merge_threads) >=
            policy.max_projected_merge_seconds) {
      return MergeTrigger::kCostBudget;
    }
  }

  if (policy.rate_lookahead && nd > 0 && delta_rows_per_sec > 0) {
    const double poll_seconds =
        static_cast<double>(policy.poll_interval_us) * 1e-6;
    const double projected_nd =
        static_cast<double>(nd) + delta_rows_per_sec * poll_seconds;
    if (projected_nd >= static_cast<double>(policy.min_delta_rows) &&
        projected_nd > threshold) {
      return MergeTrigger::kRateLookahead;
    }
  }
  return MergeTrigger::kNone;
}

void DeltaRateEstimator::Reset(uint64_t delta_rows_now) {
  last_delta_rows_ = delta_rows_now;
  last_poll_cycles_ = CycleClock::Now();
  delta_rows_per_sec_ = 0.0;
}

double DeltaRateEstimator::Update(uint64_t delta_rows_now) {
  const uint64_t now = CycleClock::Now();
  const double dt = CycleClock::ToSeconds(now - last_poll_cycles_);
  if (dt > 0) {
    const double grown =
        delta_rows_now > last_delta_rows_
            ? static_cast<double>(delta_rows_now - last_delta_rows_)
            : 0.0;
    delta_rows_per_sec_ = 0.5 * delta_rows_per_sec_ + 0.5 * (grown / dt);
  }
  last_delta_rows_ = delta_rows_now;
  last_poll_cycles_ = now;
  return delta_rows_per_sec_;
}

}  // namespace deltamerge
