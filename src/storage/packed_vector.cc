// Copyright (c) 2026 The DeltaMerge Authors.

#include "storage/packed_vector.h"

#include <array>
#include <utility>

namespace deltamerge {

namespace {

/// Code J of a block of B-bit codes: its word index, shift and mask are
/// compile-time constants, and only a code that straddles two words reads
/// the second.
template <unsigned B, unsigned J>
void UnpackCode(const uint64_t* w, uint32_t* out) {
  constexpr unsigned kWord = J * B / 64;
  constexpr unsigned kShift = J * B % 64;
  uint64_t v = w[kWord] >> kShift;
  if constexpr (kShift + B > 64) v |= w[kWord + 1] << (64 - kShift);
  out[J] = static_cast<uint32_t>(v & LowBitsMask(B));
}

template <unsigned B, size_t... J>
void UnpackCodes(const uint64_t* w, uint32_t* out,
                 std::index_sequence<J...>) {
  (UnpackCode<B, J>(w, out), ...);
}

/// The 64 codes of one block (B words), fully unrolled.
template <unsigned B>
void UnpackBlock(const uint64_t* w, uint32_t* out) {
  UnpackCodes<B>(w, out, std::make_index_sequence<64>{});
}

using UnpackBlockFn = void (*)(const uint64_t*, uint32_t*);

template <size_t... I>
constexpr std::array<UnpackBlockFn, sizeof...(I)> UnpackBlockTable(
    std::index_sequence<I...>) {
  return {&UnpackBlock<I + 1>...};
}

/// kUnpackBlock[b - 1] decodes a block of b-bit codes.
constexpr auto kUnpackBlock =
    UnpackBlockTable(std::make_index_sequence<PackedVector::kMaxBits>{});

}  // namespace

void PackedVector::Reset(uint64_t size, uint8_t bits) {
  DM_CHECK_MSG(bits >= 1 && bits <= kMaxBits, "code width out of range");
  bits_ = bits;
  size_ = size;
  capacity_ = size;
  // One spare word so the two-word read in Get()/Reader is always in bounds
  // even when the last code ends exactly at a word boundary.
  buffer_ = AlignedBuffer(PackedBytes(size, bits) + sizeof(uint64_t));
}

void PackedVector::Unpack(uint64_t first, uint64_t n, uint32_t* out) const {
  DM_DCHECK(first % 64 == 0 && first + n <= size_);
  const UnpackBlockFn unpack = kUnpackBlock[bits_ - 1];
  uint64_t i = 0;
  for (; i + 64 <= n; i += 64) {
    unpack(words() + (first + i) / 64 * bits_, out + i);
  }
  Reader r(*this, first + i);
  for (; i < n; ++i) out[i] = r.Next();
}

Status PackedVector::Serialize(FileWriter& out) const {
  const uint64_t word_count = PackedBytes(size_, bits_) / sizeof(uint64_t);
  DM_RETURN_NOT_OK(out.WriteU64(size_));
  DM_RETURN_NOT_OK(out.WriteU8(bits_));
  DM_RETURN_NOT_OK(out.WriteU64(word_count));
  if (word_count > 0) {
    DM_RETURN_NOT_OK(out.Write(words(), word_count * sizeof(uint64_t)));
  }
  return Status::OK();
}

Result<PackedVector> PackedVector::Deserialize(FileReader& in) {
  uint64_t size = 0;
  uint8_t bits = 0;
  uint64_t word_count = 0;
  DM_RETURN_NOT_OK(in.ReadU64(&size));
  DM_RETURN_NOT_OK(in.ReadU8(&bits));
  DM_RETURN_NOT_OK(in.ReadU64(&word_count));
  if (bits < 1 || bits > kMaxBits) {
    return Status::Internal("packed vector bit width out of range");
  }
  // Untrusted sizes (the CRC trailer is only checked after the reads):
  // bound by the file size with divisions before any multiply can wrap,
  // and reject sizes whose bit count would overflow PackedBytes.
  if (word_count > in.file_size() / sizeof(uint64_t) ||
      size > uint64_t{1} << 48 ||
      word_count != PackedBytes(size, bits) / sizeof(uint64_t)) {
    return Status::Internal("packed vector shape does not match word count");
  }
  PackedVector v(size, bits);
  if (word_count > 0) {
    DM_RETURN_NOT_OK(in.Read(v.words(), word_count * sizeof(uint64_t)));
  }
  return v;
}

}  // namespace deltamerge
