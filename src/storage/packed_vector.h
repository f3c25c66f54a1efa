// Copyright (c) 2026 The DeltaMerge Authors.
// PackedVector: the bit-compressed code storage of a main partition.
//
// A column's main partition stores, per tuple, the index of its value in the
// sorted dictionary, using E_C = ceil(log2 |U|) bits per code (paper §3, §5,
// Eq. 4). PackedVector packs codes of a fixed bit width (1..32) contiguously
// into 64-bit words. It supports random get/set, sequential reader and
// writer cursors, and the block decoder Unpack that the merge's Step 2
// streams through: 64 codes of b bits fill exactly b words, so a block
// decodes with compile-time shifts.
//
// The Writer stores whole words and zeroes the bits above its last code in
// its word. The codes that follow a Writer's range in its last word are
// therefore lost — write a vector front to back, or in 64-code-aligned
// chunks. A Writer started mid-word keeps the codes below its start.
//
// Thread-safety: concurrent reads are safe. Concurrent writes are safe iff
// the writers' tuple ranges touch disjoint 64-bit words; the parallel merge
// guarantees this by aligning thread chunks to 64-tuple boundaries (64 tuples
// of b bits always end on a word boundary since 64*b % 64 == 0), and a
// Writer never stores to a word that holds none of its codes.

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

  /// Sequential writer cursor: a store-through register accumulator. Each
  /// Append ORs its code into the accumulator and stores the current word
  /// whole, so the vector is current after every call and no flush exists.
  /// The writer zeroes the bits above its last code in that word, keeps the
  /// bits below its start (read once, at construction), moves to the next
  /// word only when a code spills into it, and never stores to a word that
  /// holds none of its codes. Several writers may share the vector when each
  /// starts on a 64-tuple boundary; see the class comment.
  class Writer {
   public:
    Writer(PackedVector& v, uint64_t start = 0)
        : words_(v.words()),
          bits_(v.bits()),
          word_(start * v.bits() >> 6),
          shift_(static_cast<unsigned>(start * v.bits() & 63)),
          acc_(shift_ == 0 ? 0
                          : words_[word_] &
                                LowBitsMask(static_cast<uint8_t>(shift_))) {}

    void Append(uint32_t value) {
      DM_DCHECK(uint64_t{value} <= LowBitsMask(bits_));
      acc_ |= static_cast<uint64_t>(value) << shift_;
      words_[word_] = acc_;
      shift_ += bits_;
      if (shift_ >= 64) {
        shift_ -= 64;
        ++word_;
        acc_ = 0;
        if (shift_ != 0) {
          acc_ = static_cast<uint64_t>(value) >> (bits_ - shift_);
          words_[word_] = acc_;
        }
      }
    }

   private:
    uint64_t* words_;
    uint8_t bits_;
    uint64_t word_;   ///< the word the next code starts in
    unsigned shift_;  ///< its bit offset in that word
    uint64_t acc_;    ///< that word's bits below shift_, as last stored
  };

 private:
  AlignedBuffer buffer_;
  uint8_t bits_;
  uint64_t size_;
  uint64_t capacity_;
};

}  // namespace deltamerge
