// Copyright (c) 2026 The DeltaMerge Authors.
// Range selection over the two partition kinds — the one predicate shape
// every read evaluates. An inclusive key range [lo, hi] (equality is
// [k, k]) is answered per scan source:
//
//   * main partition: the range maps to a contiguous code range
//     [dictionary.LowerBound(lo), dictionary.UpperBound(hi)) because the
//     dictionary is sorted — the property §3 trades update cost for — and
//     the packed codes are swept by the SIMD kernels (SIMD-Scan [27]);
//   * delta prefix (a whole frozen delta, or the visible prefix of the
//     active delta): the CSB+ tree enumerates matching keys and their
//     postings, filtered by tuple id so appends after a snapshot's capture
//     stay invisible.

#pragma once

#include <cstdint>
#include <vector>

#include "simd/simd_kernels.h"
#include "storage/delta_partition.h"
#include "storage/main_partition.h"

namespace deltamerge::query {

/// A range predicate on one main partition, in code form: which packed
/// vector to sweep, how many leading tuples of it are visible, and the
/// dictionary-code range the value range translated to. `match == false`
/// means the value range missed the dictionary entirely — the main count is
/// 0. This is also the shape a ScanGate batches (query/shared_scan.h).
struct PackedScanSpec {
  const PackedVector* codes = nullptr;
  uint64_t tuples = 0;  ///< sweep [0, tuples) of `codes`
  uint32_t c_lo = 0;
  uint32_t c_hi = 0;  ///< inclusive
  bool match = false;
};

/// [lo, hi] over `main` as a code range: two dictionary binary searches.
template <size_t W>
PackedScanSpec MainSpec(const MainPartition<W>& main, const FixedValue<W>& lo,
                        const FixedValue<W>& hi) {
  PackedScanSpec spec;
  spec.codes = &main.codes();
  spec.tuples = main.size();
  const auto& dict = main.dictionary();
  const uint32_t c_lo = dict.LowerBound(lo);
  const uint32_t c_hi = dict.UpperBound(hi);  // exclusive; <= c_lo if hi < lo
  if (c_lo < c_hi) {
    spec.c_lo = c_lo;
    spec.c_hi = c_hi - 1;
    spec.match = true;
  }
  return spec;
}

/// Tuples of `spec` whose code lies in its range; with `valid` non-null,
/// only those whose bit i is set in that validity word array. An equal
/// code range runs the equality kernels.
inline uint64_t CountMain(const PackedScanSpec& spec, const uint64_t* valid) {
  if (!spec.match) return 0;
  const PackedVector& v = *spec.codes;
  if (spec.c_lo == spec.c_hi) {
    return valid == nullptr
               ? simd::CountEqualPacked(v, 0, spec.tuples, spec.c_lo)
               : simd::CountEqualPackedMasked(v, 0, spec.tuples, spec.c_lo,
                                              valid, 0);
  }
  return valid == nullptr
             ? simd::CountRangePacked(v, 0, spec.tuples, spec.c_lo, spec.c_hi)
             : simd::CountRangePackedMasked(v, 0, spec.tuples, spec.c_lo,
                                            spec.c_hi, valid, 0);
}

/// Appends the positions (ascending) of `spec`'s matching tuples.
inline void CollectMain(const PackedScanSpec& spec,
                        std::vector<uint64_t>* rows) {
  if (!spec.match) return;
  if (spec.c_lo == spec.c_hi) {
    simd::CollectEqualPacked(*spec.codes, 0, spec.tuples, spec.c_lo, 0, rows);
  } else {
    simd::CollectRangePacked(*spec.codes, 0, spec.tuples, spec.c_lo,
                             spec.c_hi, 0, rows);
  }
}

/// Calls fn(tuple_id) for each of the first `prefix` tuples of `delta`
/// whose value lies in [lo, hi]. Equality takes one root-to-leaf descent
/// instead of a range walk.
template <size_t W, typename Fn>
void ForEachDeltaMatch(const DeltaPartition<W>& delta, const FixedValue<W>& lo,
                       const FixedValue<W>& hi, uint64_t prefix, Fn&& fn) {
  const auto visit = [&](PostingsCursor c) {
    for (; !c.Done(); c.Advance()) {
      if (c.TupleId() < prefix) fn(c.TupleId());
    }
  };
  if (lo == hi) {
    visit(delta.tree().Find(lo));
    return;
  }
  delta.tree().ForEachInRange(
      lo, hi, [&](const FixedValue<W>&, PostingsCursor c) { visit(c); });
}

/// Tuples among the first `prefix` of `delta` with value in [lo, hi]; with
/// `valid` non-null, only those whose bit (base + tuple id) is set. A fully
/// visible, unmasked equality count reads the postings length.
template <size_t W>
uint64_t CountDelta(const DeltaPartition<W>& delta, const FixedValue<W>& lo,
                    const FixedValue<W>& hi, uint64_t prefix, uint64_t base,
                    const uint64_t* valid) {
  if (lo == hi && valid == nullptr && prefix >= delta.size()) {
    return delta.tree().CountOf(lo);
  }
  uint64_t n = 0;
  ForEachDeltaMatch(delta, lo, hi, prefix, [&](uint64_t tid) {
    n += valid == nullptr || simd::ValidBit(valid, base + tid) ? 1 : 0;
  });
  return n;
}

/// Appends base + tuple id for each of the first `prefix` tuples of `delta`
/// with value in [lo, hi] (in key order, not row order).
template <size_t W>
void CollectDelta(const DeltaPartition<W>& delta, const FixedValue<W>& lo,
                  const FixedValue<W>& hi, uint64_t prefix, uint64_t base,
                  std::vector<uint64_t>* rows) {
  ForEachDeltaMatch(delta, lo, hi, prefix,
                    [&](uint64_t tid) { rows->push_back(base + tid); });
}

}  // namespace deltamerge::query
