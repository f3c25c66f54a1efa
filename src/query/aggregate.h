// Copyright (c) 2026 The DeltaMerge Authors.
// Sums over a column's scan sources, treating the value's integer key as
// the measure. Used by the analytic legs of the example workloads
// ("complex read operations on large sets of data with a projectivity on a
// few columns only", §2). Sums are modulo 2^64, the width every public sum
// returns.

#pragma once

#include <cstdint>
#include <vector>

#include "simd/simd_kernels.h"
#include "storage/delta_partition.h"
#include "storage/main_partition.h"

namespace deltamerge::query {

/// The main partition's dictionary keys as a dense code→key translate
/// table — the gather target of the SumPackedTranslated kernel.
template <size_t W>
std::vector<uint64_t> DictionaryKeyTable(const MainPartition<W>& main) {
  const auto& dict = main.dictionary();
  std::vector<uint64_t> table(main.unique_values());
  for (uint32_t c = 0; c < table.size(); ++c) {
    table[c] = dict.At(c).key();
  }
  return table;
}

/// Sum of value keys over the main partition — the translate-and-sum kernel
/// (vpgatherqq) over a code→key table; with `valid` non-null, over the
/// tuples whose bit i is set in that validity word array.
template <size_t W>
uint64_t SumMain(const MainPartition<W>& main, const uint64_t* valid) {
  if (main.empty()) return 0;
  const std::vector<uint64_t> table = DictionaryKeyTable(main);
  return valid == nullptr
             ? simd::SumPackedTranslated(main.codes(), 0, main.size(),
                                         table.data())
             : simd::SumPackedTranslatedMasked(main.codes(), 0, main.size(),
                                               table.data(), valid, 0);
}

/// Sum of value keys over the first `prefix` delta tuples (direct reads);
/// with `valid` non-null, over those whose bit (base + tuple id) is set.
template <size_t W>
uint64_t SumDelta(const DeltaPartition<W>& delta, uint64_t prefix,
                  uint64_t base, const uint64_t* valid) {
  const auto values = delta.values();
  const uint64_t n = prefix < values.size() ? prefix : values.size();
  uint64_t sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (valid == nullptr || simd::ValidBit(valid, base + i)) {
      sum += values[i].key();
    }
  }
  return sum;
}

}  // namespace deltamerge::query
