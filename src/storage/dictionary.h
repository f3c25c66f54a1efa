// Copyright (c) 2026 The DeltaMerge Authors.
// Dictionary<W>: the sorted unique-value dictionary of a partition.
//
// The main partition's dictionary U_M is "an ordered collection ... allowing
// fast iterations over the tuples in sorted order" with binary-search lookup
// (paper §3). A value's code is its index in this sorted array; consequently
// range predicates on values become contiguous code ranges, which is what
// makes scans on the compressed partition cheap.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simd/simd_kernels.h"
#include "storage/packed_vector.h"
#include "util/bit_util.h"
#include "util/file_io.h"
#include "util/fixed_value.h"
#include "util/macros.h"

namespace deltamerge {

/// The two bodies a serialized dictionary can carry; a one-byte tag after
/// the count says which follows.
enum class DictionaryEncoding : uint8_t {
  /// The values as one array, in their in-memory layout.
  kRaw = 0,
  /// The first value, then a PackedVector of the gaps v[i] - v[i-1] at the
  /// bit width of the largest gap. Holds only dictionaries of at least two
  /// values whose gaps are all below 2^32 (PackedVector's code cap).
  kDeltaPacked = 1,
};

template <size_t W>
class Dictionary {
 public:
  using Value = FixedValue<W>;

  Dictionary() = default;

  /// Builds from values already sorted and unique. Debug builds verify.
  static Dictionary FromSortedUnique(std::vector<Value> values) {
#ifndef NDEBUG
    for (size_t i = 1; i < values.size(); ++i) {
      DM_DCHECK(values[i - 1] < values[i]);
    }
#endif
    Dictionary d;
    d.values_ = std::move(values);
    return d;
  }

  /// Builds by sorting and deduplicating arbitrary values (cold path; used by
  /// table builders and tests, not by the merge).
  static Dictionary FromUnsorted(std::vector<Value> values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    Dictionary d;
    d.values_ = std::move(values);
    return d;
  }

  uint64_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Bits per code for this dictionary: E_C = ceil(log2 |U|) (Eq. 4).
  uint8_t code_bits() const { return BitsForCardinality(values_.size()); }

  /// The uncompressed value for `code` (materialization).
  const Value& At(uint32_t code) const {
    DM_DCHECK(code < values_.size());
    return values_[code];
  }

  /// Binary search: the code of `v`, or nullopt if absent. O(log |U|).
  std::optional<uint32_t> Find(const Value& v) const {
    auto it = std::lower_bound(values_.begin(), values_.end(), v);
    if (it != values_.end() && *it == v) {
      return static_cast<uint32_t>(it - values_.begin());
    }
    return std::nullopt;
  }

  /// Index of the first value >= v (== size() if none).
  uint32_t LowerBound(const Value& v) const {
    return static_cast<uint32_t>(
        std::lower_bound(values_.begin(), values_.end(), v) -
        values_.begin());
  }

  /// Index of the first value > v (== size() if none).
  uint32_t UpperBound(const Value& v) const {
    return static_cast<uint32_t>(
        std::upper_bound(values_.begin(), values_.end(), v) -
        values_.begin());
  }

  std::span<const Value> values() const { return values_; }

  /// Bytes consumed by the value array (enters the traffic model: E_j * |U|).
  size_t byte_size() const { return values_.size() * sizeof(Value); }

  // --- durability (checkpoint files; see src/persist) ----------------------

  /// Writes the count, a one-byte encoding tag, then the smaller of the two
  /// bodies (ties go to raw). The values are sorted and unique, so their
  /// gaps are usually far narrower than the values: a 4-byte column over
  /// 2^20 keys packs to a few bits per entry. Host endianness — checkpoints
  /// are not portable across byte orders.
  Status Serialize(FileWriter& out) const {
    const uint8_t gap_bits = GapBits();
    const bool packed =
        gap_bits != 0 && PackedBodyBytes(gap_bits) < byte_size();
    DM_RETURN_NOT_OK(out.WriteU64(values_.size()));
    DM_RETURN_NOT_OK(out.WriteU8(static_cast<uint8_t>(
        packed ? DictionaryEncoding::kDeltaPacked : DictionaryEncoding::kRaw)));
    if (!packed) {
      if (values_.empty()) return Status::OK();
      return out.Write(values_.data(), byte_size());
    }
    DM_RETURN_NOT_OK(out.Write(&values_[0], sizeof(Value)));
    PackedVector gaps(values_.size() - 1, gap_bits);
    PackedVector::Writer w(gaps);
    for (size_t i = 1; i < values_.size(); ++i) {
      w.Append(static_cast<uint32_t>(Gap(values_[i - 1], values_[i])));
    }
    return gaps.Serialize(out);
  }

  /// Reads a dictionary written by Serialize, verifying that it is
  /// sorted-unique (the invariant every query and merge relies on) so a
  /// corrupt checkpoint fails recovery instead of corrupting answers.
  static Result<Dictionary> Deserialize(FileReader& in) {
    uint64_t count = 0;
    uint8_t tag = 0;
    DM_RETURN_NOT_OK(in.ReadU64(&count));
    DM_RETURN_NOT_OK(in.ReadU8(&tag));
    if (tag == static_cast<uint8_t>(DictionaryEncoding::kRaw)) {
      return ReadRaw(in, count);
    }
    if (tag == static_cast<uint8_t>(DictionaryEncoding::kDeltaPacked)) {
      return ReadDeltaPacked(in, count);
    }
    return Status::Internal("unknown dictionary encoding");
  }

 private:
  /// cur - prev for prev < cur, saturated to 2^64 - 1 when it does not fit
  /// in 64 bits (16-byte values only).
  static uint64_t Gap(const Value& prev, const Value& cur) {
    if constexpr (W == 16) {
      // Below 2^64 the high words are equal, or one apart with the low
      // word wrapped; the low-word difference is then the gap.
      const uint64_t hi_diff = cur.repr.hi - prev.repr.hi;
      if (hi_diff == 0 || (hi_diff == 1 && cur.repr.lo < prev.repr.lo)) {
        return cur.repr.lo - prev.repr.lo;
      }
      return ~uint64_t{0};
    } else {
      return cur.key() - prev.key();
    }
  }

  /// Fills out[1..gaps.size()] with out[0] plus the running sums of `gaps`;
  /// false unless every value exceeds its predecessor. Decoding and that
  /// check are one pass. AVX2 builds decode 4-byte values with the
  /// PrefixSumPacked32 kernel, which checks the order in register: in
  /// BM_DictionaryCodec SumGaps decodes 8- and 16-byte values faster than a
  /// raw read, but 4-byte values no faster.
  static bool DecodeGaps(const PackedVector& gaps, Value* out) {
    if constexpr (simd::kHaveAvx2 && W == 4) {
      return simd::PrefixSumPacked32(gaps, 0, gaps.size(), out[0].repr.word,
                                     out + 1);
    } else {
      return SumGaps(gaps, out);
    }
  }

  /// DecodeGaps at every width, over chunks that PackedVector::Unpack
  /// decodes. The sum runs as two 64-bit words joined by a carry (no 128-bit
  /// arithmetic; below 16 bytes the high word only counts carries), so it
  /// only grows: a zero gap or a last sum past Value::Max() is the only way
  /// to fail.
  static bool SumGaps(const PackedVector& gaps, Value* out) {
    constexpr uint64_t kChunk = 256;  // a multiple of Unpack's block
    uint32_t chunk[kChunk];
    // An integer flag: GCC vectorizes the zero check's |= into it, not into
    // a bool.
    uint32_t zero_gap = 0;
    uint64_t hi = 0, lo = out[0].key();
    if constexpr (W == 16) hi = out[0].repr.hi;
    for (uint64_t base = 0; base < gaps.size(); base += kChunk) {
      const uint64_t n = std::min(kChunk, gaps.size() - base);
      // The zero check spans the whole chunk, a fixed trip count that GCC
      // vectorizes at -O2, so a short last chunk pads with nonzero gaps.
      if (n < kChunk) std::fill(chunk + n, chunk + kChunk, 1u);
      gaps.Unpack(base, n, chunk);
      for (uint64_t j = 0; j < kChunk; ++j) zero_gap |= chunk[j] == 0;
      Value* dst = out + base + 1;
      uint64_t j = 0;
      // Four values per step off one running sum, so the sum's dependency
      // chain is a quarter as long as one add per value.
      for (; j + 4 <= n; j += 4) {
        const uint64_t s0 = chunk[j];
        const uint64_t s1 = s0 + chunk[j + 1];
        const uint64_t s2 = s1 + chunk[j + 2];
        const uint64_t s3 = s2 + chunk[j + 3];
        Put(dst[j], hi, lo, s0);
        Put(dst[j + 1], hi, lo, s1);
        Put(dst[j + 2], hi, lo, s2);
        lo += s3;
        hi += lo < s3;
        Put(dst[j + 3], hi, lo, 0);
      }
      for (; j < n; ++j) {
        lo += chunk[j];
        hi += lo < chunk[j];
        Put(dst[j], hi, lo, 0);
      }
    }
    if constexpr (W == 16) {
      // Fewer than 2^64 carries: a high word that wrapped past Max() lands
      // below the first value.
      return !zero_gap && !(out[gaps.size()] < out[0]);
    } else {
      return !zero_gap && hi == 0 && lo <= Value::Max().key();
    }
  }

  /// Stores (hi, lo) + s, a running sum plus a partial one; below 16 bytes
  /// only the low word's bits are kept.
  static void Put(Value& v, uint64_t hi, uint64_t lo, uint64_t s) {
    const uint64_t low = lo + s;
    if constexpr (W == 16) {
      v.repr.hi = hi + (low < s);
      v.repr.lo = low;
    } else {
      v.repr.word = static_cast<decltype(v.repr.word)>(low);
    }
  }

  /// Bit width of the largest gap, or 0 if the delta-packed body cannot hold
  /// this dictionary (fewer than two values, or a gap of 2^32 or more).
  uint8_t GapBits() const {
    if (values_.size() < 2) return 0;
    uint64_t max_gap = 0;
    for (size_t i = 1; i < values_.size(); ++i) {
      max_gap = std::max(max_gap, Gap(values_[i - 1], values_[i]));
    }
    if (max_gap > LowBitsMask(PackedVector::kMaxBits)) return 0;
    return static_cast<uint8_t>(std::bit_width(max_gap));
  }

  /// First value + PackedVector::Serialize's size, width and word count
  /// fields + its words.
  uint64_t PackedBodyBytes(uint8_t gap_bits) const {
    return sizeof(Value) + 17 + PackedBytes(values_.size() - 1, gap_bits);
  }

  static Result<Dictionary> ReadRaw(FileReader& in, uint64_t count) {
    // Overflow-safe bound on an untrusted count (the CRC trailer has not
    // been verified yet): divide, never multiply.
    if (count > in.file_size() / sizeof(Value)) {
      return Status::Internal("dictionary length exceeds file size");
    }
    std::vector<Value> values(count);
    if (count > 0) {
      DM_RETURN_NOT_OK(in.Read(values.data(), count * sizeof(Value)));
    }
    for (size_t i = 1; i < values.size(); ++i) {
      if (!(values[i - 1] < values[i])) {
        return Status::Internal("dictionary is not sorted-unique");
      }
    }
    Dictionary d;
    d.values_ = std::move(values);
    return d;
  }

  static Result<Dictionary> ReadDeltaPacked(FileReader& in, uint64_t count) {
    if (count < 2) {
      return Status::Internal("delta-packed dictionary has under two values");
    }
    Value first{};
    DM_RETURN_NOT_OK(in.Read(&first, sizeof(Value)));
    // PackedVector::Deserialize bounds its own allocation by the file size.
    // The gap count must then match before the untrusted count sizes the
    // value array: up to 64 values per file word, no more than the file's
    // bytes encode.
    DM_ASSIGN_OR_RETURN(PackedVector gaps, PackedVector::Deserialize(in));
    if (gaps.size() != count - 1) {
      return Status::Internal("delta-packed dictionary gap count mismatch");
    }
    std::vector<Value> values(count);
    values[0] = first;
    const bool sorted_unique = DecodeGaps(gaps, values.data());
    if (!sorted_unique) {
      return Status::Internal("dictionary is not sorted-unique");
    }
    Dictionary d;
    d.values_ = std::move(values);
    return d;
  }

  std::vector<Value> values_;
};

}  // namespace deltamerge
