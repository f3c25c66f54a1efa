// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for PackedVector: roundtrips at every code width, word-boundary
// straddling, reader/writer cursors, the Unpack block decoder, and the
// word-safety contract the parallel merge relies on.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/packed_vector.h"
#include "util/random.h"

namespace deltamerge {
namespace {

TEST(PackedVector, EmptyVector) {
  PackedVector v(0, 5);
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.bits(), 5);
  EXPECT_TRUE(v.empty());
}

TEST(PackedVector, SetGetSingleValue) {
  PackedVector v(10, 3);
  v.Set(7, 5);
  EXPECT_EQ(v.Get(7), 5u);
  EXPECT_EQ(v.Get(6), 0u);
  EXPECT_EQ(v.Get(8), 0u);
}

TEST(PackedVector, OverwriteClearsOldBits) {
  PackedVector v(4, 8);
  v.Set(2, 0xff);
  v.Set(2, 0x01);
  EXPECT_EQ(v.Get(2), 0x01u);
}

TEST(PackedVector, ZeroInitialized) {
  PackedVector v(1000, 13);
  for (uint64_t i = 0; i < v.size(); ++i) EXPECT_EQ(v.Get(i), 0u);
}

TEST(PackedVector, WordStraddlingCodes) {
  // 17-bit codes: tuple 3 occupies bits 51..67, crossing the word boundary.
  PackedVector v(8, 17);
  const uint32_t pattern = 0x1abcd;  // needs 17 bits
  v.Set(3, pattern);
  EXPECT_EQ(v.Get(3), pattern);
  EXPECT_EQ(v.Get(2), 0u);
  EXPECT_EQ(v.Get(4), 0u);
}

TEST(PackedVector, MaxWidth32) {
  PackedVector v(5, 32);
  v.Set(0, 0xffffffffu);
  v.Set(4, 0x80000001u);
  EXPECT_EQ(v.Get(0), 0xffffffffu);
  EXPECT_EQ(v.Get(4), 0x80000001u);
}

TEST(PackedVector, ResetChangesShape) {
  PackedVector v(4, 4);
  v.Set(0, 15);
  v.Reset(100, 9);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v.bits(), 9);
  EXPECT_EQ(v.Get(0), 0u);  // zeroed
}

TEST(PackedVector, ByteSizeIsWholeWordsPlusSpare) {
  PackedVector v(10, 7);  // 70 bits -> 2 words + 1 spare
  EXPECT_EQ(v.byte_size(), 3u * 8);
}

// Property: random set/get roundtrip at every width in [1, 32].
class PackedVectorWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedVectorWidthTest, RandomRoundtrip) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 3000;
  const uint64_t mask = LowBitsMask(bits);
  PackedVector v(n, bits);
  Rng rng(1000 + bits);
  std::vector<uint32_t> expected(n);
  for (uint64_t i = 0; i < n; ++i) {
    expected[i] = static_cast<uint32_t>(rng.Next() & mask);
    v.Set(i, expected[i]);
  }
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(v.Get(i), expected[i]) << "width " << int(bits) << " i " << i;
  }
}

TEST_P(PackedVectorWidthTest, WriterMatchesSet) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 2048;
  const uint64_t mask = LowBitsMask(bits);
  PackedVector via_set(n, bits);
  PackedVector via_writer(n, bits);
  Rng rng(77 + bits);
  PackedVector::Writer w(via_writer);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t x = static_cast<uint32_t>(rng.Next() & mask);
    via_set.Set(i, x);
    w.Append(x);
  }
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(via_writer.Get(i), via_set.Get(i));
  }
}

TEST_P(PackedVectorWidthTest, ReaderMatchesGet) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 2048;
  const uint64_t mask = LowBitsMask(bits);
  PackedVector v(n, bits);
  Rng rng(99 + bits);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
  }
  PackedVector::Reader r(v);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(r.Next(), v.Get(i));
  }
  // Mid-vector start.
  PackedVector::Reader r2(v, n / 2);
  for (uint64_t i = n / 2; i < n; ++i) {
    ASSERT_EQ(r2.Next(), v.Get(i));
  }
}

TEST_P(PackedVectorWidthTest, UnpackMatchesGet) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 64 * 9 + 37;  // whole blocks plus a Reader tail
  const uint64_t mask = LowBitsMask(bits);
  PackedVector v(n, bits);
  Rng rng(111 + bits);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
  }
  for (uint64_t first : {uint64_t{0}, uint64_t{64}, uint64_t{64 * 9}}) {
    for (uint64_t count : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                           uint64_t{64}, uint64_t{130}, n - first}) {
      if (first + count > n) continue;
      std::vector<uint32_t> out(count + 1, 0xdeadbeef);
      v.Unpack(first, count, out.data());
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], v.Get(first + i))
            << "first " << first << " count " << count << " i " << i;
      }
      ASSERT_EQ(out[count], 0xdeadbeef) << "wrote past the range";
    }
  }
}

// The Writer's word contract at every width: it keeps the bits below a
// mid-word start, and a code that ends exactly on a word boundary leaves the
// next word alone.
TEST_P(PackedVectorWidthTest, WriterKeepsWordsOutsideItsCodes) {
  const uint8_t bits = static_cast<uint8_t>(GetParam());
  const uint64_t n = 64 * 3;
  const uint64_t mask = LowBitsMask(bits);
  Rng rng(321 + bits);
  auto random_vector = [&] {
    PackedVector v(n, bits);
    for (uint64_t i = 0; i < n; ++i) {
      v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
    }
    return v;
  };

  // Started mid-word (code 3 starts at bit 3 * bits, never a word boundary
  // at these widths): codes 0..2 keep their values.
  PackedVector mid = random_vector();
  std::vector<uint32_t> low(3);
  for (uint64_t i = 0; i < 3; ++i) low[i] = mid.Get(i);
  PackedVector::Writer mid_writer(mid, 3);
  mid_writer.Append(static_cast<uint32_t>(mask));
  for (uint64_t i = 0; i < 3; ++i) ASSERT_EQ(mid.Get(i), low[i]) << i;
  EXPECT_EQ(mid.Get(3), static_cast<uint32_t>(mask));

  // The first run of codes from tuple 0 that ends exactly on a word
  // boundary: the word after it keeps every bit.
  PackedVector v = random_vector();
  uint64_t k = 1;
  while (k * bits % 64 != 0) ++k;
  const uint64_t data_words = PackedBytes(n, bits) / sizeof(uint64_t);
  const std::vector<uint64_t> before(v.words(), v.words() + data_words);
  PackedVector::Writer w(v);
  for (uint64_t i = 0; i < k; ++i) w.Append(static_cast<uint32_t>(i & mask));
  for (uint64_t i = 0; i < k; ++i) ASSERT_EQ(v.Get(i), i & mask) << i;
  for (uint64_t word = k * bits / 64; word < data_words; ++word) {
    ASSERT_EQ(v.words()[word], before[word]) << "word " << word;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackedVectorWidthTest,
                         ::testing::Range(1, 33));

// The parallel-merge contract: writers on 64-tuple-aligned disjoint ranges
// never corrupt each other, for any width.
TEST(PackedVector, ConcurrentAlignedWriters) {
  for (uint8_t bits : {3, 7, 17, 27}) {
    const uint64_t n = 64 * 257;  // odd multiple of the alignment
    PackedVector v(n, bits);
    const uint64_t mask = LowBitsMask(bits);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        uint64_t begin = n * t / kThreads / 64 * 64;
        uint64_t end = (t == kThreads - 1) ? n : n * (t + 1) / kThreads / 64 * 64;
        PackedVector::Writer w(v, begin);
        for (uint64_t i = begin; i < end; ++i) {
          w.Append(static_cast<uint32_t>((i * 2654435761u) & mask));
        }
      });
    }
    for (auto& th : threads) th.join();
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(v.Get(i), static_cast<uint32_t>((i * 2654435761u) & mask))
          << "bits " << int(bits) << " i " << i;
    }
  }
}

}  // namespace
}  // namespace deltamerge
