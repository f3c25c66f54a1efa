// Copyright (c) 2026 The DeltaMerge Authors.

#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#define DM_HAVE_PCLMUL_CRC 1
#include <immintrin.h>
#endif

namespace deltamerge {

namespace {

static_assert(std::endian::native == std::endian::little,
              "slicing-by-8 reads little-endian words");

// Reflected CRC-32, polynomial 0xEDB88320 (the IEEE/zlib polynomial).
// kTables[0] is the classic byte table; kTables[k][i] is the register
// contribution of byte i followed by k zero bytes, so eight lookups advance
// the register over a whole 64-bit word (Intel's slicing-by-8).
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr SliceTables kTables = BuildTables();

/// Advances the (pre-inverted) register `c` over `p[0..n)`.
uint32_t CrcSliceBy8(uint32_t c, const uint8_t* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef DM_HAVE_PCLMUL_CRC
/// Advances the register `c` over `p[0..n)`, n >= 64 and a multiple of 16,
/// by carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009; the
/// bit-reflected constants below are the paper's, as used by zlib and
/// Chromium). Four 128-bit lanes fold 64 bytes per iteration, collapse
/// to one lane, fold any remaining 16-byte blocks, and Barrett-reduce the
/// 128-bit remainder to the 32-bit register.
uint32_t CrcFoldPclmul(uint32_t c, const uint8_t* p, size_t n) {
  // _mm_set_epi64x takes (high, low); each pair is listed low-first in the
  // paper: k1/k2, k3/k4, k5, and P'/mu for the Barrett step.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // One fold step: x * k (both 64-bit halves) xor the next block.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif  // DM_HAVE_PCLMUL_CRC

// --- Crc32Combine machinery (zlib's gf2-matrix crc32_combine) ---------------
//
// Appending k zero bits to a message transforms its CRC register linearly
// over GF(2), so "append k zeros" is a 32x32 bit matrix. We precompute the
// operators for 2^k zero BYTES once; combining then walks the set bits of
// len_b. The pre/post inversion of the CRC cancels out exactly as in zlib:
// crc(A||B) = apply_zeros(crc(A), len_b) ^ crc(B).

uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = Gf2MatrixTimes(mat, mat[n]);
}

/// byte_ops[k] is the operator for appending 2^k zero bytes.
struct ZeroByteOperators {
  uint32_t byte_ops[64][32];

  ZeroByteOperators() {
    // Operator for ONE zero bit: the CRC shift-and-conditionally-xor step.
    uint32_t odd[32];
    odd[0] = 0xEDB88320u;  // the reflected polynomial
    uint32_t row = 1;
    for (int n = 1; n < 32; ++n) {
      odd[n] = row;
      row <<= 1;
    }
    // Square up to 8 zero bits = 1 zero byte, then keep doubling.
    uint32_t even[32];
    Gf2MatrixSquare(even, odd);           // 2 bits
    Gf2MatrixSquare(odd, even);           // 4 bits
    Gf2MatrixSquare(byte_ops[0], odd);    // 8 bits = 1 byte
    for (int k = 1; k < 64; ++k) {
      Gf2MatrixSquare(byte_ops[k], byte_ops[k - 1]);
    }
  }
};

const ZeroByteOperators& ZeroOps() {
  static const ZeroByteOperators ops;
  return ops;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef DM_HAVE_PCLMUL_CRC
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = CrcFoldPclmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return CrcSliceBy8(c, p, n) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  if (len_b == 0) return crc_a;
  const ZeroByteOperators& ops = ZeroOps();
  for (int k = 0; len_b != 0; ++k, len_b >>= 1) {
    if (len_b & 1) crc_a = Gf2MatrixTimes(ops.byte_ops[k], crc_a);
  }
  return crc_a ^ crc_b;
}

}  // namespace deltamerge
