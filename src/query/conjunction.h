// Copyright (c) 2026 The DeltaMerge Authors.
// Conjunctive multi-column predicate scans — the "select ... where a in
// [x, y] and b in [u, v]" shape of the paper's analytic workloads (§2),
// evaluated column-at-a-time the way decomposed storage wants:
//
//   1. per column, translate the value range into a code range (two binary
//     searches) and skip the whole conjunction if the column's statistics
//     prove it empty (zone-map pruning, column_stats.h);
//   2. scan the most selective column first, collecting candidate rows;
//   3. verify the remaining predicates by point access on candidates only.
//
// This keeps the sequential scan on exactly one column and touches the
// others O(|candidates|) times — the classic late-materialization plan.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "query/column_stats.h"
#include "query/range_select.h"
#include "simd/simd_kernels.h"
#include "storage/column.h"

namespace deltamerge::query {

/// One range predicate on one column of a table.
struct RangePredicate {
  size_t column = 0;
  uint64_t lo_key = 0;
  uint64_t hi_key = 0;  ///< inclusive
};

namespace conjunction_detail {

/// Estimated selectivity of a predicate on a column: matched dictionary
/// range over dictionary size (exact for the main partition's distincts,
/// which is what drives the scan-order decision).
template <size_t W>
double EstimateSelectivity(const Column<W>& col, const RangePredicate& p) {
  const auto& dict = col.main().dictionary();
  if (dict.empty()) return 1.0;
  const auto lo = FixedValue<W>::FromKey(p.lo_key);
  const auto hi = FixedValue<W>::FromKey(p.hi_key);
  const uint32_t c_lo = dict.LowerBound(lo);
  const uint32_t c_hi = dict.UpperBound(hi);
  return static_cast<double>(c_hi > c_lo ? c_hi - c_lo : 0) /
         static_cast<double>(dict.size());
}

}  // namespace conjunction_detail

/// Rows of a single typed column matching [lo, hi], across all partitions.
template <size_t W>
std::vector<uint64_t> MatchingRows(const Column<W>& col,
                                   const RangePredicate& p) {
  const auto lo = FixedValue<W>::FromKey(p.lo_key);
  const auto hi = FixedValue<W>::FromKey(p.hi_key);
  std::vector<uint64_t> rows;
  CollectMain(MainSpec(col.main(), lo, hi), &rows);
  const uint64_t frozen_base = col.main_size();
  if (col.frozen() != nullptr) {
    CollectDelta(*col.frozen(), lo, hi, col.frozen_size(), frozen_base,
                 &rows);
  }
  CollectDelta(col.delta(), lo, hi, col.delta_size(),
               frozen_base + col.frozen_size(), &rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True iff the column's value at `row` lies in [lo, hi].
template <size_t W>
bool RowMatches(const Column<W>& col, uint64_t row,
                const RangePredicate& p) {
  const auto v = col.Get(row);
  return FixedValue<W>::FromKey(p.lo_key) <= v &&
         v <= FixedValue<W>::FromKey(p.hi_key);
}

/// COUNT of rows satisfying every predicate — the fused one-sweep plan.
/// Where ConjunctiveScan drives one column and point-verifies the others
/// per candidate (best when one predicate is highly selective), the fused
/// plan evaluates ALL predicates per 8-tuple block in-register
/// (CountConjunctionPacked): the conjunction costs one sweep over the main
/// partitions instead of N, with no candidate materialization at all.
/// Frozen/delta rows (small by the merge discipline) verify per row.
template <size_t W>
uint64_t ConjunctiveCount(const std::vector<const Column<W>*>& columns,
                          const std::vector<RangePredicate>& predicates) {
  DM_CHECK(!predicates.empty());

  // Zone-map pruning, as in ConjunctiveScan.
  for (const auto& p : predicates) {
    const Column<W>& col = *columns[p.column];
    const auto stats = ComputeColumnStats<W>(col.main(), col.delta());
    if (!stats.RangeMightMatch(FixedValue<W>::FromKey(p.lo_key),
                               FixedValue<W>::FromKey(p.hi_key))) {
      return 0;
    }
  }

  // Translate each value range to a code range on its column's main
  // dictionary. Main partitions of one table share a row count; an empty
  // code range empties the main count but not the delta rows.
  const uint64_t main_rows = columns[predicates[0].column]->main_size();
  const uint64_t total_rows = columns[predicates[0].column]->size();
  bool main_can_match = main_rows > 0;
  std::vector<simd::ConjunctPredicate> fused;
  fused.reserve(predicates.size());
  for (const auto& p : predicates) {
    const Column<W>& col = *columns[p.column];
    DM_CHECK(col.main_size() == main_rows && col.size() == total_rows);
    const PackedScanSpec spec =
        MainSpec(col.main(), FixedValue<W>::FromKey(p.lo_key),
                 FixedValue<W>::FromKey(p.hi_key));
    if (!spec.match) {
      main_can_match = false;
      break;
    }
    fused.push_back(
        simd::ConjunctPredicate{spec.codes, spec.c_lo, spec.c_hi});
  }

  uint64_t count = 0;
  if (main_can_match) {
    count = simd::CountConjunctionPacked(fused, 0, main_rows);
  }

  // Frozen + active delta rows: point-verify every predicate.
  for (uint64_t row = main_rows; row < total_rows; ++row) {
    bool ok = true;
    for (size_t i = 0; i < predicates.size() && ok; ++i) {
      ok = RowMatches(*columns[predicates[i].column], row, predicates[i]);
    }
    count += ok;
  }
  return count;
}

/// Conjunctive scan over same-width columns: rows satisfying every
/// predicate. Chooses the driving column by estimated selectivity, prunes
/// via column statistics, verifies the rest per candidate.
template <size_t W>
std::vector<uint64_t> ConjunctiveScan(
    const std::vector<const Column<W>*>& columns,
    const std::vector<RangePredicate>& predicates) {
  DM_CHECK(!predicates.empty());

  // Zone-map pruning: if any column's stats exclude its predicate, the
  // conjunction is empty without any scan.
  for (const auto& p : predicates) {
    const Column<W>& col = *columns[p.column];
    const auto stats = ComputeColumnStats<W>(col.main(), col.delta());
    if (!stats.RangeMightMatch(FixedValue<W>::FromKey(p.lo_key),
                               FixedValue<W>::FromKey(p.hi_key))) {
      return {};
    }
  }

  // Drive with the most selective predicate.
  size_t driver = 0;
  double best = 2.0;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const double sel = conjunction_detail::EstimateSelectivity(
        *columns[predicates[i].column], predicates[i]);
    if (sel < best) {
      best = sel;
      driver = i;
    }
  }

  std::vector<uint64_t> candidates =
      MatchingRows(*columns[predicates[driver].column], predicates[driver]);

  // Late materialization: verify the other predicates on candidates only.
  std::vector<uint64_t> out;
  out.reserve(candidates.size());
  for (uint64_t row : candidates) {
    bool ok = true;
    for (size_t i = 0; i < predicates.size() && ok; ++i) {
      if (i == driver) continue;
      ok = RowMatches(*columns[predicates[i].column], row, predicates[i]);
    }
    if (ok) out.push_back(row);
  }
  return out;
}

}  // namespace deltamerge::query
