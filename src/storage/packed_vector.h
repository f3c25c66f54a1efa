// Copyright (c) 2026 The DeltaMerge Authors.
// PackedVector: the bit-compressed code storage of a main partition.
//
// A column's main partition stores, per tuple, the index of its value in the
// sorted dictionary, using E_C = ceil(log2 |U|) bits per code (paper §3, §5,
// Eq. 4). PackedVector packs codes of a fixed bit width (1..32) contiguously
// into 64-bit words. It supports random get/set plus sequential reader and
// writer cursors used by the merge's streaming Step 2.
//
// Thread-safety: concurrent reads are safe. Concurrent writes are safe iff
// the writers' tuple ranges touch disjoint 64-bit words; the parallel merge
// guarantees this by aligning thread chunks to 64-tuple boundaries (64 tuples
// of b bits always end on a word boundary since 64*b % 64 == 0).

#pragma once

#include <cstdint>

#include "util/aligned_buffer.h"
#include "util/bit_util.h"
#include "util/file_io.h"
#include "util/macros.h"

namespace deltamerge {

class PackedVector {
 public:
  static constexpr uint8_t kMaxBits = 32;

  /// An empty vector of 1-bit codes; Reset() before use.
  PackedVector() : bits_(1), size_(0), capacity_(0) {}

  /// A vector of `size` codes of `bits` bits each, zero-initialized.
  PackedVector(uint64_t size, uint8_t bits) { Reset(size, bits); }

  PackedVector(PackedVector&&) noexcept = default;
  PackedVector& operator=(PackedVector&&) noexcept = default;
  DM_DISALLOW_COPY(PackedVector);

  /// Re-initializes to `size` zero codes of `bits` bits.
  void Reset(uint64_t size, uint8_t bits);

  uint64_t size() const { return size_; }
  uint8_t bits() const { return bits_; }
  bool empty() const { return size_ == 0; }

  /// Bytes of backing storage (whole words), the quantity that enters the
  /// memory-traffic model (Eqs. 13, 14).
  size_t byte_size() const { return buffer_.size(); }

  const uint64_t* words() const { return buffer_.As<uint64_t>(); }
  uint64_t* words() { return buffer_.As<uint64_t>(); }

  // --- durability (checkpoint files; see src/persist) ----------------------

  /// Writes size, bit width, and the packed words (host endianness).
  Status Serialize(FileWriter& out) const;

  /// Reads a vector written by Serialize, validating the declared shape
  /// against the word count so corrupt checkpoints fail loudly.
  static Result<PackedVector> Deserialize(FileReader& in);

  /// Decodes codes [first, first + n) into out[0, n). `first` must be a
  /// multiple of 64: each 64-code block fills exactly bits() words, and a
  /// decoder built per width decodes it with constant shifts and no branch
  /// — several times faster per code than Reader::Next. Codes past the
  /// last whole block go through a Reader.
  void Unpack(uint64_t first, uint64_t n, uint32_t* out) const;

  /// Reads code `i`. Hot path: two shifted loads at most.
  uint32_t Get(uint64_t i) const {
    DM_DCHECK(i < size_);
    const uint64_t bit = i * bits_;
    const uint64_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    const uint64_t* w = buffer_.As<uint64_t>();
    uint64_t v = w[word] >> shift;
    if (shift + bits_ > 64) {
      v |= w[word + 1] << (64 - shift);
    }
    return static_cast<uint32_t>(v & LowBitsMask(bits_));
  }

  /// Writes code `i`. Not safe for concurrent writers within one word.
  void Set(uint64_t i, uint32_t value) {
    DM_DCHECK(i < size_);
    DM_DCHECK(uint64_t{value} <= LowBitsMask(bits_));
    const uint64_t bit = i * bits_;
    const uint64_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    uint64_t* w = buffer_.As<uint64_t>();
    const uint64_t mask = LowBitsMask(bits_);
    w[word] = (w[word] & ~(mask << shift)) |
              (static_cast<uint64_t>(value) << shift);
    if (shift + bits_ > 64) {
      const unsigned spill = static_cast<unsigned>(shift + bits_ - 64);
      const uint64_t hi_mask = LowBitsMask(static_cast<uint8_t>(spill));
      w[word + 1] = (w[word + 1] & ~hi_mask) |
                    (static_cast<uint64_t>(value) >> (64 - shift));
    }
  }

  /// Sequential reader cursor; noticeably faster than repeated Get() because
  /// the word and shift advance incrementally.
  class Reader {
   public:
    /// Positioned at tuple `start` of `v`.
    Reader(const PackedVector& v, uint64_t start = 0)
        : words_(v.words()), bits_(v.bits()), bit_(start * v.bits()) {}

    uint32_t Next() {
      const uint64_t word = bit_ >> 6;
      const unsigned shift = static_cast<unsigned>(bit_ & 63);
      uint64_t v = words_[word] >> shift;
      if (shift + bits_ > 64) {
        v |= words_[word + 1] << (64 - shift);
      }
      bit_ += bits_;
      return static_cast<uint32_t>(v & LowBitsMask(bits_));
    }

   private:
    const uint64_t* words_;
    uint8_t bits_;
    uint64_t bit_;
  };

  /// Sequential writer cursor. Must start on a 64-tuple boundary (or tuple 0)
  /// when several writers share the vector; see the class comment.
  class Writer {
   public:
    Writer(PackedVector& v, uint64_t start = 0)
        : words_(v.words()), bits_(v.bits()), bit_(start * v.bits()) {}

    void Append(uint32_t value) {
      DM_DCHECK(uint64_t{value} <= LowBitsMask(bits_));
      const uint64_t word = bit_ >> 6;
      const unsigned shift = static_cast<unsigned>(bit_ & 63);
      const uint64_t mask = LowBitsMask(bits_);
      words_[word] = (words_[word] & ~(mask << shift)) |
                     (static_cast<uint64_t>(value) << shift);
      if (shift + bits_ > 64) {
        const unsigned spill = static_cast<unsigned>(shift + bits_ - 64);
        const uint64_t hi_mask = LowBitsMask(static_cast<uint8_t>(spill));
        words_[word + 1] = (words_[word + 1] & ~hi_mask) |
                           (static_cast<uint64_t>(value) >> (64 - shift));
      }
      bit_ += bits_;
    }

   private:
    uint64_t* words_;
    uint8_t bits_;
    uint64_t bit_;
  };

 private:
  AlignedBuffer buffer_;
  uint8_t bits_;
  uint64_t size_;
  uint64_t capacity_;
};

}  // namespace deltamerge
