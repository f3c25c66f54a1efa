// Copyright (c) 2026 The DeltaMerge Authors.
// Stable LSD radix sort of (value, tuple id) pairs by value: the one sort a
// batch delta insert pays before it builds or extends a CSB+ tree
// (CsbTree::InsertBatch).
//
// Digits are bytes, least significant first. A byte on which every value
// agrees moves nothing and is skipped, so a column pays one scatter pass per
// byte its keys actually vary in, whatever its width: keys below 2^20 in a
// 16-byte column sort in three passes. Each pass is a stable counting
// scatter, so equal values keep their tuple ids in ascending order.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "util/fixed_value.h"
#include "util/macros.h"

namespace deltamerge {

/// A value and the tuple id it was inserted at.
template <size_t W>
struct ValueTid {
  FixedValue<W> value;
  uint32_t tid;
};

namespace radix_detail {

/// Byte `d` of `v`'s ordering key; byte 0 is the least significant.
template <size_t W>
inline uint32_t Digit(const FixedValue<W>& v, size_t d) {
  if constexpr (W == 16) {
    const uint64_t word = d < 8 ? v.repr.lo : v.repr.hi;
    return static_cast<uint32_t>(word >> (8 * (d % 8))) & 0xffu;
  } else {
    return static_cast<uint32_t>(v.repr.word >> (8 * d)) & 0xffu;
  }
}

/// Bitwise OR of `v ^ first` over all values, as little-endian key bytes
/// packed into words: byte d is zero iff every value agrees on digit d.
template <size_t W>
inline FixedValue<W> VaryingBits(std::span<const FixedValue<W>> values) {
  const FixedValue<W> first = values[0];
  FixedValue<W> diff = FixedValue<W>::Min();
  for (const FixedValue<W>& v : values) {
    if constexpr (W == 16) {
      diff.repr.hi |= v.repr.hi ^ first.repr.hi;
      diff.repr.lo |= v.repr.lo ^ first.repr.lo;
    } else {
      diff.repr.word |= v.repr.word ^ first.repr.word;
    }
  }
  return diff;
}

}  // namespace radix_detail

/// Pairs values[i] with tuple id first_tid + i and returns the pairs sorted
/// by value, ascending; pairs with equal values keep ascending tuple ids.
/// Requires a non-empty input whose tuple ids fit in 32 bits.
template <size_t W>
std::unique_ptr<ValueTid<W>[]> RadixSortByValue(
    std::span<const FixedValue<W>> values, uint32_t first_tid) {
  using radix_detail::Digit;
  const size_t n = values.size();
  DM_DCHECK(n > 0 && n - 1 <= UINT32_MAX - first_tid);

  // The digits that vary, least significant first, and their histograms.
  const FixedValue<W> varying = radix_detail::VaryingBits(values);
  size_t digits[W];
  size_t num_digits = 0;
  for (size_t d = 0; d < W; ++d) {
    if (Digit(varying, d) != 0) digits[num_digits++] = d;
  }
  uint32_t counts[W][256] = {};
  for (const FixedValue<W>& v : values) {
    for (size_t k = 0; k < num_digits; ++k) ++counts[k][Digit(v, digits[k])];
  }

  auto sorted = std::make_unique_for_overwrite<ValueTid<W>[]>(n);
  if (num_digits == 0) {  // every value is equal: input order is sorted
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = {values[i], first_tid + static_cast<uint32_t>(i)};
    }
    return sorted;
  }
  std::unique_ptr<ValueTid<W>[]> spare;
  for (size_t k = 0; k < num_digits; ++k) {
    const size_t d = digits[k];
    uint32_t offset[256];
    uint32_t running = 0;
    for (size_t b = 0; b < 256; ++b) {
      offset[b] = running;
      running += counts[k][b];
    }
    if (k == 0) {  // the first pass reads the values themselves
      for (size_t i = 0; i < n; ++i) {
        sorted[offset[Digit(values[i], d)]++] = {
            values[i], first_tid + static_cast<uint32_t>(i)};
      }
      continue;
    }
    if (spare == nullptr) {
      spare = std::make_unique_for_overwrite<ValueTid<W>[]>(n);
    }
    for (size_t i = 0; i < n; ++i) {
      spare[offset[Digit(sorted[i].value, d)]++] = sorted[i];
    }
    std::swap(sorted, spare);
  }
  return sorted;
}

}  // namespace deltamerge
