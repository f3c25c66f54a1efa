// Copyright (c) 2026 The DeltaMerge Authors.
// SIMD kernels for the hot loops the paper singles out:
//
//  * §5.3 motivates re-encoding the delta to fixed-width codes because fixed
//    widths "allow better utilization of cache lines and CPU architecture
//    aware optimizations like SSE";
//  * the read path's compressed-code scan is the SIMD-Scan pattern the paper
//    cites as [27] (Willhalm et al., PVLDB 2009).
//
// The kernel inventory, each with an AVX2 path and a scalar fallback chosen
// at compile time (the library builds with -march=native by default):
//
//  TranslateCodes32        — Step 2's gather loop out[i] = x[in[i]] on
//                            unpacked 32-bit codes (vpgatherdd);
//  CountEqualPacked /
//  CountRangePacked        — predicate counting directly on packed code
//                            vectors, 8 codes per YMM iteration;
//  CollectEqualPacked /
//  CollectRangePacked      — matching-index emission (movemask + ctz walk);
//  SumPackedTranslated     — aggregate via code→key translate (vpgatherqq)
//                            + 64-bit lane accumulate, result mod 2^64;
//  HistogramPacked         — per-code occurrence counts (unpacked in blocks,
//                            scattered scalar — stores cannot be vectorized
//                            without conflict detection);
//  *PackedMasked           — the above predicates with a validity word
//                            stream consumed inline (ValidityVector layout:
//                            bit (valid_base + i) guards tuple i);
//  CountConjunctionPacked  — N broadcast-compare predicates over N columns
//                            combined in-register per 8-code block, so a
//                            conjunction costs one sweep instead of N;
//  MultiCountRangePacked   — N predicates over ONE column evaluated per
//                            8-code block — the cooperative scan-sharing
//                            mechanism (query/shared_scan.h): N enrolled
//                            queries, one pass over the codes.
//  PrefixSumPacked32       — running sums of packed codes into 32-bit
//                            lanes, checked strictly ascending in
//                            register, 8 codes per iteration: the
//                            delta-packed dictionary decoder for 4-byte
//                            values in AVX2 builds (storage/dictionary.h).
//
// Scalar-tail contract (uniform across every kernel): the AVX2 body
// processes whole 8-code blocks and hands the exact residual — fewer than 8
// codes, including runs that straddle a packed word — to its scalar twin
// with the same [i, end) bounds. Kernels whose lane arithmetic is signed
// 32-bit (range compares) or whose gathers index with signed 32-bit lanes
// hand bit-widths above 30 wholesale to the scalar twin. tests/simd_test.cc
// asserts bit-exactness of every kernel against its twin across all widths
// 1–32 and lengths 0–64.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "storage/packed_vector.h"
#include "util/macros.h"

#if defined(__AVX2__)
#define DM_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace deltamerge::simd {

/// True if this build uses the AVX2 paths.
constexpr bool kHaveAvx2 =
#ifdef DM_HAVE_AVX2
    true;
#else
    false;
#endif

// ---------------------------------------------------------------------------
// TranslateCodes32: out[i] = table[in[i]].
// ---------------------------------------------------------------------------

/// Scalar reference (also the tail handler).
inline void TranslateCodes32Scalar(const uint32_t* in, uint64_t n,
                                   const uint32_t* table, uint32_t* out) {
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = table[in[i]];
  }
}

/// Step 2's translation gather on unpacked 32-bit codes; `out` may be `in`
/// (Step 2 translates its unpacked blocks in place). With AVX2, eight
/// gathers issue per iteration, exposing the memory-level parallelism that
/// §7.2 credits for the parallel Step 2's latency hiding.
inline void TranslateCodes32(const uint32_t* in, uint64_t n,
                             const uint32_t* table, uint32_t* out) {
#ifdef DM_HAVE_AVX2
  uint64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i gathered = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(table), idx, /*scale=*/4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), gathered);
  }
  TranslateCodes32Scalar(in + i, n - i, table, out + i);
#else
  TranslateCodes32Scalar(in, n, table, out);
#endif
}

// ---------------------------------------------------------------------------
// Packed-vector predicate scans (SIMD-Scan [27] style).
// ---------------------------------------------------------------------------

/// Scalar reference: tuples in [begin, end) of `v` equal to `code`.
inline uint64_t CountEqualPackedScalar(const PackedVector& v, uint64_t begin,
                                       uint64_t end, uint32_t code) {
  PackedVector::Reader reader(v, begin);
  uint64_t count = 0;
  for (uint64_t i = begin; i < end; ++i) {
    count += (reader.Next() == code);
  }
  return count;
}

/// Scalar reference: tuples with code in [lo, hi] (inclusive).
inline uint64_t CountRangePackedScalar(const PackedVector& v, uint64_t begin,
                                       uint64_t end, uint32_t lo,
                                       uint32_t hi) {
  PackedVector::Reader reader(v, begin);
  uint64_t count = 0;
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t c = reader.Next();
    count += (c >= lo) & (c <= hi);
  }
  return count;
}

#ifdef DM_HAVE_AVX2
namespace detail {

/// Unpacks 8-code blocks of a PackedVector into YMM lane sets at stream
/// bandwidth. Per block: one 32-byte unaligned load covering the block's
/// bits, two cross-lane dword permutes that bring each code's containing
/// dword (and its successor) into the code's lane, and a variable
/// shift-right / shift-left pair that splices each straddling dword pair
/// down to bit 0 — six instructions for 8 codes regardless of width,
/// instead of eight scalar window loads. The permute indices and shift
/// counts depend only on (first_tuple * bits) % 8, which is invariant as
/// blocks advance (8 codes always span exactly `bits` bytes), so they are
/// computed once at construction.
///
/// Valid for widths <= 30: lane splicing needs the last code's successor
/// dword to sit inside the 32-byte load (index (7 + 7*30+7)/32 + 1 = 7 at
/// worst), and the compare kernels' signed arithmetic caps width at 30
/// anyway. Blocks must stay below SafeVectorEnd(), which backs the vector
/// loop off the end of the allocation far enough that the full 32-byte
/// load stays in bounds; callers finish the remainder with the scalar
/// kernel (the scalar-tail contract).
class BlockUnpacker {
 public:
  BlockUnpacker(const PackedVector& v, uint64_t first_tuple)
      : base_(reinterpret_cast<const uint8_t*>(v.words())),
        bits_(v.bits()),
        mask_(_mm256_set1_epi32(static_cast<int>(LowBitsMask(v.bits())))) {
    const uint32_t w = static_cast<uint32_t>((first_tuple * bits_) & 7);
    alignas(32) uint32_t q[8];
    alignas(32) uint32_t sr[8];
    alignas(32) uint32_t sl[8];
    for (uint32_t k = 0; k < 8; ++k) {
      const uint32_t bit = w + k * bits_;
      q[k] = bit >> 5;
      sr[k] = bit & 31u;
      sl[k] = 32u - sr[k];  // vpsllv counts >= 32 yield 0: exact when sr == 0
    }
    lo_idx_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(q));
    hi_idx_ = _mm256_add_epi32(lo_idx_, _mm256_set1_epi32(1));
    shr_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(sr));
    shl_ = _mm256_load_si256(reinterpret_cast<const __m256i*>(sl));
  }

  /// Codes [tuple, tuple + 8). `tuple` must be first_tuple plus a multiple
  /// of 8, with tuple + 8 <= SafeVectorEnd(v, end).
  __m256i Unpack(uint64_t tuple) const {
    const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        base_ + ((tuple * bits_) >> 3)));
    const __m256i lo = _mm256_permutevar8x32_epi32(y, lo_idx_);
    const __m256i hi = _mm256_permutevar8x32_epi32(y, hi_idx_);
    const __m256i spliced = _mm256_or_si256(_mm256_srlv_epi32(lo, shr_),
                                            _mm256_sllv_epi32(hi, shl_));
    return _mm256_and_si256(spliced, mask_);
  }

  /// Largest bound a vector loop (`i + 8 <= bound`) may run to: keeps every
  /// block's 32-byte load inside the allocation, whose readable bytes are
  /// the packed words plus one spare word ((size - i) * bits >= 192 bits
  /// suffices).
  static uint64_t SafeVectorEnd(const PackedVector& v, uint64_t end) {
    const uint32_t bits = v.bits();
    const uint64_t slack = (192u + bits - 1) / bits;
    const uint64_t allowed = v.size() >= slack ? v.size() - slack + 8 : 0;
    return end < allowed ? end : allowed;
  }

 private:
  const uint8_t* base_;
  uint32_t bits_;
  __m256i mask_;
  __m256i lo_idx_;
  __m256i hi_idx_;
  __m256i shr_;
  __m256i shl_;
};

/// All-ones lanes where lane - lo (computed mod 2^32) lies in [0, width]:
/// the classic unsigned rotate-compare (rel <=u width iff min(rel, width)
/// == rel), exact over the full 32-bit code domain in three instructions.
inline __m256i RangeLanes8(__m256i codes, __m256i vlo, __m256i vwidth) {
  const __m256i rel = _mm256_sub_epi32(codes, vlo);
  return _mm256_cmpeq_epi32(_mm256_min_epu32(rel, vwidth), rel);
}

/// The 8-bit movemask (one bit per 32-bit lane) of RangeLanes8.
inline unsigned RangeMask8(__m256i codes, __m256i vlo, __m256i vwidth) {
  return static_cast<unsigned>(_mm256_movemask_ps(
      _mm256_castsi256_ps(RangeLanes8(codes, vlo, vwidth))));
}

/// Sum of the 8 unsigned 32-bit lane counters of a vector accumulator.
inline uint64_t LaneSum8(__m256i acc) {
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t sum = 0;
  for (int k = 0; k < 8; ++k) sum += lanes[k];
  return sum;
}

/// The 8 validity bits guarding tuples whose validity-stream positions are
/// [bit, bit + 8). Reads the second word only when the byte straddles a
/// word boundary, in which case position bit+7 lives in that word — so a
/// stream covering every consulted position needs no spare word.
inline uint32_t ValidBits8(const uint64_t* words, uint64_t bit) {
  const uint64_t w = bit >> 6;
  const unsigned shift = static_cast<unsigned>(bit & 63);
  uint64_t v = words[w] >> shift;
  if (shift > 56) v |= words[w + 1] << (64u - shift);
  return static_cast<uint32_t>(v) & 0xFFu;
}

/// Emits base + i + k for every set bit k of an 8-bit match mask.
inline void EmitMatches(unsigned m, uint64_t base, uint64_t i,
                        std::vector<uint64_t>* rows) {
  while (m != 0) {
    const int k = __builtin_ctz(m);
    m &= m - 1;
    rows->push_back(base + i + static_cast<uint64_t>(k));
  }
}

}  // namespace detail
#endif  // DM_HAVE_AVX2

/// One tuple's validity in a ValidityVector-layout word stream: bit `bit`.
inline bool ValidBit(const uint64_t* words, uint64_t bit) {
  return ((words[bit >> 6] >> (bit & 63)) & 1) != 0;
}

/// Count of tuples in [begin, end) whose packed code equals `code`.
inline uint64_t CountEqualPacked(const PackedVector& v, uint64_t begin,
                                 uint64_t end, uint32_t code) {
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    return CountEqualPackedScalar(v, begin, end, code);
  }
  if (bits == 16) {
    // Byte-aligned half-word codes: compare 16 straight out of memory.
    if (code > 0xFFFFu) return 0;
    const uint16_t* p = reinterpret_cast<const uint16_t*>(v.words());
    const __m256i needle = _mm256_set1_epi16(static_cast<short>(code));
    uint64_t count = 0;
    uint64_t i = begin;
    for (; i + 16 <= end; i += 16) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
      count += static_cast<unsigned>(__builtin_popcount(
                   static_cast<unsigned>(_mm256_movemask_epi8(
                       _mm256_cmpeq_epi16(x, needle))))) /
               2u;
    }
    return count + CountEqualPackedScalar(v, i, end, code);
  }
  if (bits == 8) {
    // Byte codes: compare 32 straight out of memory.
    if (code > 0xFFu) return 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(v.words());
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(code));
    uint64_t count = 0;
    uint64_t i = begin;
    for (; i + 32 <= end; i += 32) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
      count += static_cast<unsigned>(
          __builtin_popcount(static_cast<unsigned>(
              _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, needle)))));
    }
    return count + CountEqualPackedScalar(v, i, end, code);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(code));
  __m256i acc = _mm256_setzero_si256();  // per-lane hit counters
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    acc = _mm256_sub_epi32(acc, _mm256_cmpeq_epi32(up.Unpack(i), needle));
  }
  return detail::LaneSum8(acc) + CountEqualPackedScalar(v, i, end, code);
#else
  return CountEqualPackedScalar(v, begin, end, code);
#endif
}

/// Count of tuples in [begin, end) whose packed code lies in [lo, hi].
inline uint64_t CountRangePacked(const PackedVector& v, uint64_t begin,
                                 uint64_t end, uint32_t lo, uint32_t hi) {
  if (hi < lo) return 0;
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    // The vector path uses signed 32-bit arithmetic, exact only while codes
    // stay below 2^30; wider codes take the scalar path.
    return CountRangePackedScalar(v, begin, end, lo, hi);
  }
  if (bits == 16) {
    // Byte-aligned half-word codes: unsigned range check on 16 codes per
    // vector straight out of memory, via the usual bias-to-signed trick.
    const uint32_t h = hi > 0xFFFFu ? 0xFFFFu : hi;
    if (lo > h) return 0;
    const uint16_t* p = reinterpret_cast<const uint16_t*>(v.words());
    const __m256i bias = _mm256_set1_epi16(static_cast<short>(0x8000));
    const __m256i vlo = _mm256_set1_epi16(static_cast<short>(lo ^ 0x8000u));
    const __m256i vhi = _mm256_set1_epi16(static_cast<short>(h ^ 0x8000u));
    uint64_t count = 0;
    uint64_t i = begin;
    for (; i + 16 <= end; i += 16) {
      const __m256i x = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), bias);
      const __m256i outside = _mm256_or_si256(_mm256_cmpgt_epi16(vlo, x),
                                              _mm256_cmpgt_epi16(x, vhi));
      count += 16u -
               static_cast<unsigned>(__builtin_popcount(static_cast<unsigned>(
                   _mm256_movemask_epi8(outside)))) /
                   2u;
    }
    return count + CountRangePackedScalar(v, i, end, lo, hi);
  }
  if (bits == 8) {
    // Byte codes: 32 per vector.
    const uint32_t h = hi > 0xFFu ? 0xFFu : hi;
    if (lo > h) return 0;
    const uint8_t* p = reinterpret_cast<const uint8_t*>(v.words());
    const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
    const __m256i vlo = _mm256_set1_epi8(static_cast<char>(lo ^ 0x80u));
    const __m256i vhi = _mm256_set1_epi8(static_cast<char>(h ^ 0x80u));
    uint64_t count = 0;
    uint64_t i = begin;
    for (; i + 32 <= end; i += 32) {
      const __m256i x = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), bias);
      const __m256i outside = _mm256_or_si256(_mm256_cmpgt_epi8(vlo, x),
                                              _mm256_cmpgt_epi8(x, vhi));
      count += 32u - static_cast<unsigned>(__builtin_popcount(
                         static_cast<unsigned>(
                             _mm256_movemask_epi8(outside))));
    }
    return count + CountRangePackedScalar(v, i, end, lo, hi);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i width = _mm256_set1_epi32(static_cast<int>(hi - lo));
  // Per-lane counters: subtracting the all-ones match lanes adds 1 per hit,
  // no per-block popcount. A lane grows by at most 1 per block, so 32-bit
  // counters hold for any vector below 2^35 tuples.
  __m256i acc = _mm256_setzero_si256();
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    acc = _mm256_sub_epi32(acc, detail::RangeLanes8(up.Unpack(i), vlo, width));
  }
  return detail::LaneSum8(acc) + CountRangePackedScalar(v, i, end, lo, hi);
#else
  return CountRangePackedScalar(v, begin, end, lo, hi);
#endif
}

// ---------------------------------------------------------------------------
// Matching-index emission (collect kernels).
// ---------------------------------------------------------------------------

/// Scalar reference: appends base + i for tuples in [begin, end) equal to
/// `code`.
inline void CollectEqualPackedScalar(const PackedVector& v, uint64_t begin,
                                     uint64_t end, uint32_t code,
                                     uint64_t base,
                                     std::vector<uint64_t>* rows) {
  PackedVector::Reader reader(v, begin);
  for (uint64_t i = begin; i < end; ++i) {
    if (reader.Next() == code) rows->push_back(base + i);
  }
}

/// Scalar reference: appends base + i for tuples with code in [lo, hi].
inline void CollectRangePackedScalar(const PackedVector& v, uint64_t begin,
                                     uint64_t end, uint32_t lo, uint32_t hi,
                                     uint64_t base,
                                     std::vector<uint64_t>* rows) {
  PackedVector::Reader reader(v, begin);
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t c = reader.Next();
    if (c >= lo && c <= hi) rows->push_back(base + i);
  }
}

/// Appends base + i (ascending) for tuples in [begin, end) equal to `code`.
inline void CollectEqualPacked(const PackedVector& v, uint64_t begin,
                               uint64_t end, uint32_t code, uint64_t base,
                               std::vector<uint64_t>* rows) {
#ifdef DM_HAVE_AVX2
  if (v.bits() > 30) {
    CollectEqualPackedScalar(v, begin, end, code, base, rows);
    return;
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(code));
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(up.Unpack(i), needle))));
    detail::EmitMatches(m, base, i, rows);
  }
  CollectEqualPackedScalar(v, i, end, code, base, rows);
#else
  CollectEqualPackedScalar(v, begin, end, code, base, rows);
#endif
}

/// Appends base + i (ascending) for tuples with code in [lo, hi].
inline void CollectRangePacked(const PackedVector& v, uint64_t begin,
                               uint64_t end, uint32_t lo, uint32_t hi,
                               uint64_t base, std::vector<uint64_t>* rows) {
  if (hi < lo) return;
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    CollectRangePackedScalar(v, begin, end, lo, hi, base, rows);
    return;
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vwidth = _mm256_set1_epi32(static_cast<int>(hi - lo));
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    detail::EmitMatches(detail::RangeMask8(up.Unpack(i), vlo, vwidth), base,
                        i, rows);
  }
  CollectRangePackedScalar(v, i, end, lo, hi, base, rows);
#else
  CollectRangePackedScalar(v, begin, end, lo, hi, base, rows);
#endif
}

// ---------------------------------------------------------------------------
// Translate-and-sum aggregation.
// ---------------------------------------------------------------------------

/// Scalar reference: sum (mod 2^64) of table[code] over tuples [begin, end).
inline uint64_t SumPackedTranslatedScalar(const PackedVector& v,
                                          uint64_t begin, uint64_t end,
                                          const uint64_t* table) {
  PackedVector::Reader reader(v, begin);
  uint64_t sum = 0;
  for (uint64_t i = begin; i < end; ++i) {
    sum += table[reader.Next()];
  }
  return sum;
}

/// Sum (mod 2^64) of table[code] over tuples [begin, end): the aggregate
/// path's code→key translation fused with the horizontal add (two 4-lane
/// vpgatherqq per block feeding 64-bit accumulators). `table` must span the
/// code domain [0, 2^bits).
inline uint64_t SumPackedTranslated(const PackedVector& v, uint64_t begin,
                                    uint64_t end, const uint64_t* table) {
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    // vpgatherqq indexes with signed 32-bit lanes.
    return SumPackedTranslatedScalar(v, begin, end, table);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const long long* tbl = reinterpret_cast<const long long*>(table);
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const __m256i codes = up.Unpack(i);
    const __m128i idx_lo = _mm256_castsi256_si128(codes);
    const __m128i idx_hi = _mm256_extracti128_si256(codes, 1);
    acc_lo = _mm256_add_epi64(acc_lo,
                              _mm256_i32gather_epi64(tbl, idx_lo, 8));
    acc_hi = _mm256_add_epi64(acc_hi,
                              _mm256_i32gather_epi64(tbl, idx_hi, 8));
  }
  alignas(32) uint64_t lanes[4];
  const __m256i acc = _mm256_add_epi64(acc_lo, acc_hi);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  const uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return sum + SumPackedTranslatedScalar(v, i, end, table);
#else
  return SumPackedTranslatedScalar(v, begin, end, table);
#endif
}

// ---------------------------------------------------------------------------
// Histogram (the group-count feeder).
// ---------------------------------------------------------------------------

/// Scalar reference: ++counts[code] per tuple in [begin, end).
inline void HistogramPackedScalar(const PackedVector& v, uint64_t begin,
                                  uint64_t end, uint64_t* counts) {
  PackedVector::Reader reader(v, begin);
  for (uint64_t i = begin; i < end; ++i) {
    ++counts[reader.Next()];
  }
}

/// Per-code occurrence counts over [begin, end), added into `counts` (which
/// must span the code domain). Codes unpack in 8-wide blocks; the increments
/// scatter scalar (no conflict-free vector scatter on AVX2).
inline void HistogramPacked(const PackedVector& v, uint64_t begin,
                            uint64_t end, uint64_t* counts) {
#ifdef DM_HAVE_AVX2
  if (v.bits() > 30) {
    HistogramPackedScalar(v, begin, end, counts);
    return;
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  alignas(32) uint32_t lanes[8];
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), up.Unpack(i));
    for (int k = 0; k < 8; ++k) ++counts[lanes[k]];
  }
  HistogramPackedScalar(v, i, end, counts);
#else
  HistogramPackedScalar(v, begin, end, counts);
#endif
}

// ---------------------------------------------------------------------------
// Validity-masked variants: tuple i participates iff bit (valid_base + i)
// of the ValidityVector-layout word stream `valid` is set. The stream must
// cover every consulted bit position (no spare word needed; see ValidBits8).
// ---------------------------------------------------------------------------

/// Scalar reference for CountEqualPackedMasked.
inline uint64_t CountEqualPackedMaskedScalar(const PackedVector& v,
                                             uint64_t begin, uint64_t end,
                                             uint32_t code,
                                             const uint64_t* valid,
                                             uint64_t valid_base) {
  PackedVector::Reader reader(v, begin);
  uint64_t count = 0;
  for (uint64_t i = begin; i < end; ++i) {
    count += (reader.Next() == code) & ValidBit(valid, valid_base + i);
  }
  return count;
}

/// Count of valid tuples in [begin, end) whose code equals `code`.
inline uint64_t CountEqualPackedMasked(const PackedVector& v, uint64_t begin,
                                       uint64_t end, uint32_t code,
                                       const uint64_t* valid,
                                       uint64_t valid_base) {
#ifdef DM_HAVE_AVX2
  if (v.bits() > 30) {
    return CountEqualPackedMaskedScalar(v, begin, end, code, valid,
                                        valid_base);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(code));
  uint64_t count = 0;
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(up.Unpack(i), needle))));
    count += static_cast<unsigned>(__builtin_popcount(
        m & detail::ValidBits8(valid, valid_base + i)));
  }
  return count + CountEqualPackedMaskedScalar(v, i, end, code, valid,
                                              valid_base);
#else
  return CountEqualPackedMaskedScalar(v, begin, end, code, valid,
                                      valid_base);
#endif
}

/// Scalar reference for CountRangePackedMasked.
inline uint64_t CountRangePackedMaskedScalar(const PackedVector& v,
                                             uint64_t begin, uint64_t end,
                                             uint32_t lo, uint32_t hi,
                                             const uint64_t* valid,
                                             uint64_t valid_base) {
  PackedVector::Reader reader(v, begin);
  uint64_t count = 0;
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t c = reader.Next();
    count += (c >= lo) & (c <= hi) & ValidBit(valid, valid_base + i);
  }
  return count;
}

/// Count of valid tuples in [begin, end) whose code lies in [lo, hi].
inline uint64_t CountRangePackedMasked(const PackedVector& v, uint64_t begin,
                                       uint64_t end, uint32_t lo, uint32_t hi,
                                       const uint64_t* valid,
                                       uint64_t valid_base) {
  if (hi < lo) return 0;
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    return CountRangePackedMaskedScalar(v, begin, end, lo, hi, valid,
                                        valid_base);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
  const __m256i vwidth = _mm256_set1_epi32(static_cast<int>(hi - lo));
  uint64_t count = 0;
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    count += static_cast<unsigned>(__builtin_popcount(
        detail::RangeMask8(up.Unpack(i), vlo, vwidth) &
        detail::ValidBits8(valid, valid_base + i)));
  }
  return count + CountRangePackedMaskedScalar(v, i, end, lo, hi, valid,
                                              valid_base);
#else
  return CountRangePackedMaskedScalar(v, begin, end, lo, hi, valid,
                                      valid_base);
#endif
}

/// Scalar reference for CollectEqualPackedMasked.
inline void CollectEqualPackedMaskedScalar(const PackedVector& v,
                                           uint64_t begin, uint64_t end,
                                           uint32_t code, uint64_t base,
                                           const uint64_t* valid,
                                           uint64_t valid_base,
                                           std::vector<uint64_t>* rows) {
  PackedVector::Reader reader(v, begin);
  for (uint64_t i = begin; i < end; ++i) {
    if (reader.Next() == code && ValidBit(valid, valid_base + i)) {
      rows->push_back(base + i);
    }
  }
}

/// Appends base + i for valid tuples in [begin, end) equal to `code`.
inline void CollectEqualPackedMasked(const PackedVector& v, uint64_t begin,
                                     uint64_t end, uint32_t code,
                                     uint64_t base, const uint64_t* valid,
                                     uint64_t valid_base,
                                     std::vector<uint64_t>* rows) {
#ifdef DM_HAVE_AVX2
  if (v.bits() > 30) {
    CollectEqualPackedMaskedScalar(v, begin, end, code, base, valid,
                                   valid_base, rows);
    return;
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i needle = _mm256_set1_epi32(static_cast<int>(code));
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(up.Unpack(i), needle))));
    detail::EmitMatches(m & detail::ValidBits8(valid, valid_base + i), base,
                        i, rows);
  }
  CollectEqualPackedMaskedScalar(v, i, end, code, base, valid, valid_base,
                                 rows);
#else
  CollectEqualPackedMaskedScalar(v, begin, end, code, base, valid,
                                 valid_base, rows);
#endif
}

/// Scalar reference for SumPackedTranslatedMasked.
inline uint64_t SumPackedTranslatedMaskedScalar(const PackedVector& v,
                                                uint64_t begin, uint64_t end,
                                                const uint64_t* table,
                                                const uint64_t* valid,
                                                uint64_t valid_base) {
  PackedVector::Reader reader(v, begin);
  uint64_t sum = 0;
  for (uint64_t i = begin; i < end; ++i) {
    const uint64_t key = table[reader.Next()];
    sum += ValidBit(valid, valid_base + i) ? key : 0;
  }
  return sum;
}

/// Sum (mod 2^64) of table[code] over valid tuples in [begin, end). Invalid
/// lanes are suppressed at the gather (vpgatherqq's lane mask), so they
/// contribute neither a load nor an addend.
inline uint64_t SumPackedTranslatedMasked(const PackedVector& v,
                                          uint64_t begin, uint64_t end,
                                          const uint64_t* table,
                                          const uint64_t* valid,
                                          uint64_t valid_base) {
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    return SumPackedTranslatedMaskedScalar(v, begin, end, table, valid,
                                           valid_base);
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const long long* tbl = reinterpret_cast<const long long*>(table);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const __m256i codes = up.Unpack(i);
    const uint32_t vb = detail::ValidBits8(valid, valid_base + i);
    const __m256i gate_lo = _mm256_set_epi64x(
        -static_cast<long long>((vb >> 3) & 1),
        -static_cast<long long>((vb >> 2) & 1),
        -static_cast<long long>((vb >> 1) & 1),
        -static_cast<long long>(vb & 1));
    const __m256i gate_hi = _mm256_set_epi64x(
        -static_cast<long long>((vb >> 7) & 1),
        -static_cast<long long>((vb >> 6) & 1),
        -static_cast<long long>((vb >> 5) & 1),
        -static_cast<long long>((vb >> 4) & 1));
    const __m128i idx_lo = _mm256_castsi256_si128(codes);
    const __m128i idx_hi = _mm256_extracti128_si256(codes, 1);
    acc = _mm256_add_epi64(
        acc, _mm256_mask_i32gather_epi64(zero, tbl, idx_lo, gate_lo, 8));
    acc = _mm256_add_epi64(
        acc, _mm256_mask_i32gather_epi64(zero, tbl, idx_hi, gate_hi, 8));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  const uint64_t sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  return sum + SumPackedTranslatedMaskedScalar(v, i, end, table, valid,
                                               valid_base);
#else
  return SumPackedTranslatedMaskedScalar(v, begin, end, table, valid,
                                         valid_base);
#endif
}

// ---------------------------------------------------------------------------
// Fused multi-predicate kernels.
// ---------------------------------------------------------------------------

/// One leg of a conjunction: a code range [lo, hi] on one packed vector.
/// All vectors of a conjunction must span the same tuple range (table
/// columns share row ids).
struct ConjunctPredicate {
  const PackedVector* codes = nullptr;
  uint32_t lo = 0;
  uint32_t hi = 0;  ///< inclusive
};

/// Scalar reference for CountConjunctionPacked.
inline uint64_t CountConjunctionPackedScalar(
    std::span<const ConjunctPredicate> preds, uint64_t begin, uint64_t end) {
  std::vector<PackedVector::Reader> readers;
  readers.reserve(preds.size());
  for (const ConjunctPredicate& p : preds) {
    readers.emplace_back(*p.codes, begin);
  }
  uint64_t count = 0;
  for (uint64_t i = begin; i < end; ++i) {
    unsigned ok = 1;
    for (size_t j = 0; j < preds.size(); ++j) {
      const uint32_t c = readers[j].Next();  // every reader advances
      ok &= static_cast<unsigned>((c >= preds[j].lo) & (c <= preds[j].hi));
    }
    count += ok;
  }
  return count;
}

/// Count of tuples in [begin, end) satisfying EVERY predicate. The fused
/// block format: per 8-tuple block, each predicate's column unpacks into a
/// YMM lane set, range-compares against its broadcast bounds, and ANDs its
/// 8-bit match mask into the block's running mask — one popcount per block,
/// one sweep for the whole conjunction instead of one per predicate. A
/// predicate whose mask empties the block short-circuits the remaining
/// columns' unpacks (their loads never issue).
inline uint64_t CountConjunctionPacked(
    std::span<const ConjunctPredicate> preds, uint64_t begin, uint64_t end) {
  DM_CHECK(!preds.empty());
  for (const ConjunctPredicate& p : preds) {
    if (p.hi < p.lo) return 0;
  }
#ifdef DM_HAVE_AVX2
  for (const ConjunctPredicate& p : preds) {
    if (p.codes->bits() > 30) {
      return CountConjunctionPackedScalar(preds, begin, end);
    }
  }
  struct Leg {
    detail::BlockUnpacker up;
    __m256i vlo;
    __m256i vwidth;
  };
  std::vector<Leg> legs;
  legs.reserve(preds.size());
  uint64_t vend = end;
  for (const ConjunctPredicate& p : preds) {
    legs.push_back(Leg{
        detail::BlockUnpacker(*p.codes, begin),
        _mm256_set1_epi32(static_cast<int>(p.lo)),
        _mm256_set1_epi32(static_cast<int>(p.hi - p.lo))});
    vend = detail::BlockUnpacker::SafeVectorEnd(*p.codes, vend);
  }
  uint64_t count = 0;
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    unsigned m = 0xFFu;
    for (const Leg& leg : legs) {
      m &= detail::RangeMask8(leg.up.Unpack(i), leg.vlo, leg.vwidth);
      if (m == 0) break;
    }
    count += static_cast<unsigned>(__builtin_popcount(m));
  }
  return count + CountConjunctionPackedScalar(preds, i, end);
#else
  return CountConjunctionPackedScalar(preds, begin, end);
#endif
}

/// One enrolled predicate of a shared sweep: a code range on the SHARED
/// column the sweep runs over.
struct CodeRange {
  uint32_t lo = 0;
  uint32_t hi = 0;  ///< inclusive; lo > hi matches nothing
};

#ifdef DM_HAVE_AVX2
namespace detail {

/// Fixed-batch multi-predicate sweep over whole 8-code blocks in
/// [begin, vstop). NP is a compile-time constant so the per-predicate loop
/// fully unrolls and the NP lane counters are promoted to YMM registers —
/// the marginal predicate costs three ALU instructions per block with no
/// load/store round-trip (NP <= 8 keeps counters + codes + unpacker state
/// within the 16 YMM registers; bounds reload as memory operands).
/// Callers pass vstop pre-rounded to a block boundary and handle the
/// scalar tail themselves. Counts ACCUMULATE into out_counts.
template <int NP>
inline void MultiCountRangeFixed(const BlockUnpacker& up, uint64_t begin,
                                 uint64_t vstop, const CodeRange* preds,
                                 uint64_t* out_counts) {
  __m256i vlo[NP];
  __m256i vwidth[NP];
  __m256i cnt[NP];
  for (int j = 0; j < NP; ++j) {
    vlo[j] = _mm256_set1_epi32(static_cast<int>(preds[j].lo));
    vwidth[j] = _mm256_set1_epi32(static_cast<int>(preds[j].hi - preds[j].lo));
    cnt[j] = _mm256_setzero_si256();
  }
  for (uint64_t i = begin; i < vstop; i += 8) {
    const __m256i codes = up.Unpack(i);
    for (int j = 0; j < NP; ++j) {
      cnt[j] =
          _mm256_sub_epi32(cnt[j], RangeLanes8(codes, vlo[j], vwidth[j]));
    }
  }
  for (int j = 0; j < NP; ++j) {
    out_counts[j] += LaneSum8(cnt[j]);
  }
}

}  // namespace detail
#endif

/// Scalar reference for MultiCountRangePacked.
inline void MultiCountRangePackedScalar(const PackedVector& v, uint64_t begin,
                                        uint64_t end,
                                        std::span<const CodeRange> preds,
                                        uint64_t* out_counts) {
  PackedVector::Reader reader(v, begin);
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t c = reader.Next();
    for (size_t j = 0; j < preds.size(); ++j) {
      out_counts[j] += (c >= preds[j].lo) & (c <= preds[j].hi);
    }
  }
}

/// N predicates over ONE column, one sweep: per 8-code block the codes
/// unpack once and every predicate range-compares against the same
/// registers, adding its popcount into out_counts[j]. This is the
/// cooperative scan-sharing mechanism — enrolled queries' predicates ride
/// one memory pass (query/shared_scan.h). Counts ACCUMULATE into
/// out_counts; callers zero-initialize.
inline void MultiCountRangePacked(const PackedVector& v, uint64_t begin,
                                  uint64_t end,
                                  std::span<const CodeRange> preds,
                                  uint64_t* out_counts) {
  if (preds.empty()) return;
#ifdef DM_HAVE_AVX2
  const uint32_t bits = v.bits();
  if (bits > 30) {
    MultiCountRangePackedScalar(v, begin, end, preds, out_counts);
    return;
  }
  // Compact away never-match predicates, then dispatch on the live count:
  // a compile-time batch width lets the inner loop fully unroll with its
  // per-lane counters held in registers, so the marginal cost of riding an
  // extra predicate on the sweep is three vector ALU instructions per
  // 8-code block — no movemask, popcount, load, or store. This marginal
  // cost is what makes the shared sweep pay: it is a fraction of a solo
  // sweep's unpack + compare + memory time.
  constexpr size_t kMaxFixed = 8;
  CodeRange live[kMaxFixed];
  size_t live_idx[kMaxFixed];
  size_t nlive = 0;
  bool batch_overflow = false;
  for (size_t j = 0; j < preds.size(); ++j) {
    if (preds[j].lo > preds[j].hi) continue;
    if (nlive == kMaxFixed) {
      batch_overflow = true;
      break;
    }
    live[nlive] = preds[j];
    live_idx[nlive] = j;
    ++nlive;
  }
  if (nlive == 0 && !batch_overflow) return;
  if (nlive == 1 && !batch_overflow) {
    // One live predicate: the dedicated kernel keeps its accumulator in a
    // register and has the byte-aligned fast paths.
    out_counts[live_idx[0]] +=
        CountRangePacked(v, begin, end, live[0].lo, live[0].hi);
    return;
  }
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const uint64_t vstop =
      vend > begin ? begin + ((vend - begin) / 8) * 8 : begin;
  if (!batch_overflow) {
    uint64_t local[kMaxFixed] = {0};
    switch (nlive) {
      case 2: detail::MultiCountRangeFixed<2>(up, begin, vstop, live, local); break;
      case 3: detail::MultiCountRangeFixed<3>(up, begin, vstop, live, local); break;
      case 4: detail::MultiCountRangeFixed<4>(up, begin, vstop, live, local); break;
      case 5: detail::MultiCountRangeFixed<5>(up, begin, vstop, live, local); break;
      case 6: detail::MultiCountRangeFixed<6>(up, begin, vstop, live, local); break;
      case 7: detail::MultiCountRangeFixed<7>(up, begin, vstop, live, local); break;
      case 8: detail::MultiCountRangeFixed<8>(up, begin, vstop, live, local); break;
      default: break;  // nlive 0 and 1 handled above
    }
    for (size_t j = 0; j < nlive; ++j) {
      out_counts[live_idx[j]] += local[j];
    }
    MultiCountRangePackedScalar(v, vstop, end, preds, out_counts);
    return;
  }
  // More live predicates than specializations: dynamic single-pass loop.
  // Marginal cost gains a counter load/store round-trip per predicate per
  // block, still one memory pass over the codes.
  struct Pred {
    __m256i vlo;
    __m256i vwidth;
    __m256i cnt;
  };
  std::vector<Pred> vp;
  vp.reserve(preds.size());
  std::vector<size_t> nonempty;  // predicates that can match at all
  nonempty.reserve(preds.size());
  for (size_t j = 0; j < preds.size(); ++j) {
    vp.push_back(Pred{
        _mm256_set1_epi32(static_cast<int>(preds[j].lo)),
        _mm256_set1_epi32(static_cast<int>(preds[j].hi - preds[j].lo)),
        _mm256_setzero_si256()});
    if (preds[j].lo <= preds[j].hi) nonempty.push_back(j);
  }
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    const __m256i codes = up.Unpack(i);
    for (const size_t j : nonempty) {
      vp[j].cnt = _mm256_sub_epi32(
          vp[j].cnt, detail::RangeLanes8(codes, vp[j].vlo, vp[j].vwidth));
    }
  }
  for (const size_t j : nonempty) {
    out_counts[j] += detail::LaneSum8(vp[j].cnt);
  }
  MultiCountRangePackedScalar(v, i, end, preds, out_counts);
#else
  MultiCountRangePackedScalar(v, begin, end, preds, out_counts);
#endif
}

// ---------------------------------------------------------------------------
// PrefixSumPacked32: out[i] = prev + v[begin] + ... + v[i] for i in
// [begin, end), wrapping at 32 bits; `out` is indexed like `v`. The result
// is true iff every sum exceeds its predecessor (`prev` for the first) as an
// unsigned 32-bit value — no code is 0 and no sum wraps — which is exactly
// what a delta-packed dictionary needs to decode sorted-unique. `Out` is any
// trivially copyable 4-byte type (FixedValue<4> for the dictionary), written
// with memcpy-equivalent stores.
// ---------------------------------------------------------------------------

/// Scalar reference (also the tail handler).
template <typename Out>
inline bool PrefixSumPacked32Scalar(const PackedVector& v, uint64_t begin,
                                    uint64_t end, uint32_t prev, Out* out) {
  static_assert(sizeof(Out) == 4 && std::is_trivially_copyable_v<Out>);
  PackedVector::Reader reader(v, begin);
  bool ascending = true;
  for (uint64_t i = begin; i < end; ++i) {
    const uint32_t sum = prev + reader.Next();
    ascending &= sum > prev;
    std::memcpy(out + i, &sum, sizeof(sum));
    prev = sum;
  }
  return ascending;
}

/// 32-bit lanes. Per 8-code block: two in-lane shift-adds and one
/// cross-half add form the block's inclusive prefix, a broadcast of the
/// running sum offsets it, and a max/compare against the lanes shifted by
/// one (the running sum entering lane 0) flags any lane not above its
/// predecessor. The running sum advances by the block total, off the
/// store's dependency chain.
template <typename Out>
inline bool PrefixSumPacked32(const PackedVector& v, uint64_t begin,
                              uint64_t end, uint32_t prev, Out* out) {
  static_assert(sizeof(Out) == 4 && std::is_trivially_copyable_v<Out>);
#ifdef DM_HAVE_AVX2
  if (v.bits() > 30) return PrefixSumPacked32Scalar(v, begin, end, prev, out);
  const detail::BlockUnpacker up(v, begin);
  const uint64_t vend = detail::BlockUnpacker::SafeVectorEnd(v, end);
  const __m256i lane7 = _mm256_set1_epi32(7);
  const __m256i shift_up = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
  __m256i run = _mm256_set1_epi32(static_cast<int>(prev));
  __m256i bad = _mm256_setzero_si256();
  uint64_t i = begin;
  for (; i + 8 <= vend; i += 8) {
    __m256i x = up.Unpack(i);
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    const __m256i low_total = _mm256_shuffle_epi32(x, 0xFF);
    x = _mm256_add_epi32(
        x, _mm256_permute2x128_si256(low_total, low_total, 0x08));
    const __m256i sums = _mm256_add_epi32(x, run);
    const __m256i before = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(sums, shift_up), run, 0x01);
    bad = _mm256_or_si256(
        bad, _mm256_cmpeq_epi32(_mm256_max_epu32(before, sums), before));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), sums);
    run = _mm256_add_epi32(run, _mm256_permutevar8x32_epi32(x, lane7));
  }
  const bool ascending = _mm256_testz_si256(bad, bad) != 0;
  const uint32_t carried = static_cast<uint32_t>(
      _mm_cvtsi128_si32(_mm256_castsi256_si128(run)));
  return PrefixSumPacked32Scalar(v, i, end, carried, out) && ascending;
#else
  return PrefixSumPacked32Scalar(v, begin, end, prev, out);
#endif
}

}  // namespace deltamerge::simd
