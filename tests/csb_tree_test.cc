// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the CSB+ tree: node geometry, insertion/splits, duplicate
// postings, ordered traversal, range pruning, randomized equivalence
// against std::map<key, vector<tid>>, and the batch insert's equivalence
// to per-key inserts.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "storage/csb_tree.h"
#include "util/random.h"

namespace deltamerge {
namespace {

TEST(CsbTreeGeometry, NodeCapacitiesMatchCacheLines) {
  // §6.1: "with E_j = 16 bytes, each node consists of a maximum of 3 values".
  EXPECT_EQ(CsbTree<16>::kInternalKeys, 3u);
  EXPECT_EQ(CsbTree<8>::kInternalKeys, 7u);
  EXPECT_EQ(CsbTree<4>::kInternalKeys, 14u);
  // Leaves carry (value, postings-id) pairs.
  EXPECT_EQ(CsbTree<16>::kLeafKeys, 2u);
  EXPECT_EQ(CsbTree<8>::kLeafKeys, 4u);
  EXPECT_EQ(CsbTree<4>::kLeafKeys, 7u);
}

TEST(CsbTree, EmptyTree) {
  CsbTree<8> tree;
  EXPECT_EQ(tree.unique_keys(), 0u);
  EXPECT_EQ(tree.total_tuples(), 0u);
  EXPECT_FALSE(tree.Contains(Value8::FromKey(1)));
  int visits = 0;
  tree.ForEachSorted([&](const Value8&, PostingsCursor) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(CsbTree, SingleInsertAndFind) {
  CsbTree<8> tree;
  tree.Insert(Value8::FromKey(42), 0);
  EXPECT_EQ(tree.unique_keys(), 1u);
  EXPECT_EQ(tree.total_tuples(), 1u);
  EXPECT_TRUE(tree.Contains(Value8::FromKey(42)));
  EXPECT_FALSE(tree.Contains(Value8::FromKey(41)));
  auto cursor = tree.Find(Value8::FromKey(42));
  ASSERT_FALSE(cursor.Done());
  EXPECT_EQ(cursor.TupleId(), 0u);
  cursor.Advance();
  EXPECT_TRUE(cursor.Done());
}

TEST(CsbTree, DuplicateInsertsExtendPostingsInOrder) {
  // The paper's Figure 5 example: "charlie" inserted at positions 1 and 3.
  CsbTree<8> tree;
  tree.Insert(Value8::FromKey(100), 1);
  tree.Insert(Value8::FromKey(100), 3);
  tree.Insert(Value8::FromKey(100), 2);
  EXPECT_EQ(tree.unique_keys(), 1u);
  EXPECT_EQ(tree.total_tuples(), 3u);
  EXPECT_EQ(tree.CountOf(Value8::FromKey(100)), 3u);
  std::vector<uint32_t> tids;
  for (auto c = tree.Find(Value8::FromKey(100)); !c.Done(); c.Advance()) {
    tids.push_back(c.TupleId());
  }
  EXPECT_EQ(tids, (std::vector<uint32_t>{1, 3, 2}));  // insertion order
}

TEST(CsbTree, SortedTraversalAfterManySplits) {
  CsbTree<8> tree;
  Rng rng(5);
  std::vector<uint64_t> keys(5000);
  for (auto& k : keys) k = rng.Next();
  for (uint32_t i = 0; i < keys.size(); ++i) {
    tree.Insert(Value8::FromKey(keys[i]), i);
  }
  uint64_t prev = 0;
  bool first = true;
  uint64_t count = 0;
  tree.ForEachSorted([&](const Value8& v, PostingsCursor) {
    if (!first) {
      EXPECT_LT(prev, v.key());
    }
    prev = v.key();
    first = false;
    ++count;
  });
  EXPECT_EQ(count, tree.unique_keys());
  EXPECT_GT(tree.height(), 1);
}

TEST(CsbTree, AscendingAndDescendingInsertions) {
  for (bool descending : {false, true}) {
    CsbTree<4> tree;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      const uint64_t k = descending ? (n - i) : i + 1;
      tree.Insert(Value4::FromKey(k), static_cast<uint32_t>(i));
    }
    EXPECT_EQ(tree.unique_keys(), static_cast<uint64_t>(n));
    uint64_t expected = 1;
    tree.ForEachSorted([&](const Value4& v, PostingsCursor) {
      EXPECT_EQ(v.key(), expected);
      ++expected;
    });
    EXPECT_EQ(expected, static_cast<uint64_t>(n) + 1);
  }
}

TEST(CsbTree, RangeTraversalPrunes) {
  CsbTree<8> tree;
  for (uint64_t k = 0; k < 1000; ++k) {
    tree.Insert(Value8::FromKey(k * 10), static_cast<uint32_t>(k));
  }
  std::vector<uint64_t> seen;
  tree.ForEachInRange(Value8::FromKey(995), Value8::FromKey(1035),
                      [&](const Value8& v, PostingsCursor) {
                        seen.push_back(v.key());
                      });
  EXPECT_EQ(seen, (std::vector<uint64_t>{1000, 1010, 1020, 1030}));

  // Empty and inverted ranges.
  seen.clear();
  tree.ForEachInRange(Value8::FromKey(3), Value8::FromKey(7),
                      [&](const Value8&, PostingsCursor) {
                        seen.push_back(0);
                      });
  EXPECT_TRUE(seen.empty());
  tree.ForEachInRange(Value8::FromKey(100), Value8::FromKey(50),
                      [&](const Value8&, PostingsCursor) { FAIL(); });
}

TEST(CsbTree, RangeIncludesEndpoints) {
  CsbTree<8> tree;
  for (uint64_t k : {10u, 20u, 30u}) tree.Insert(Value8::FromKey(k), 0);
  int count = 0;
  tree.ForEachInRange(Value8::FromKey(10), Value8::FromKey(30),
                      [&](const Value8&, PostingsCursor) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(CsbTree, ClearResets) {
  CsbTree<8> tree;
  for (uint64_t k = 0; k < 100; ++k) {
    tree.Insert(Value8::FromKey(k), static_cast<uint32_t>(k));
  }
  tree.Clear();
  EXPECT_EQ(tree.unique_keys(), 0u);
  EXPECT_EQ(tree.total_tuples(), 0u);
  EXPECT_EQ(tree.height(), 1);
  tree.Insert(Value8::FromKey(7), 0);
  EXPECT_TRUE(tree.Contains(Value8::FromKey(7)));
}

TEST(CsbTree, MemoryAccounting) {
  CsbTree<8> tree;
  for (uint64_t k = 0; k < 10000; ++k) {
    tree.Insert(Value8::FromKey(k * 2654435761ULL), static_cast<uint32_t>(k));
  }
  EXPECT_GT(tree.memory_bytes(), 10000u * 8);
  EXPECT_GT(tree.live_node_bytes(), 0u);
  EXPECT_LE(tree.live_node_bytes(), tree.memory_bytes());
}

// Randomized equivalence against std::map across widths and duplicate rates.
template <size_t W>
void RandomizedEquivalence(uint64_t n, uint64_t domain, uint64_t seed) {
  CsbTree<W> tree;
  std::map<uint64_t, std::vector<uint32_t>> reference;
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t key = rng.Below(domain);
    tree.Insert(FixedValue<W>::FromKey(key), i);
    reference[key].push_back(i);
  }
  ASSERT_EQ(tree.unique_keys(), reference.size());
  ASSERT_EQ(tree.total_tuples(), n);

  // Traversal yields exactly the reference map, keys ascending, postings in
  // insertion order.
  auto it = reference.begin();
  tree.ForEachSorted([&](const FixedValue<W>& v, PostingsCursor c) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(v.key(), it->first);
    std::vector<uint32_t> tids;
    for (; !c.Done(); c.Advance()) tids.push_back(c.TupleId());
    EXPECT_EQ(tids, it->second);
    ++it;
  });
  EXPECT_EQ(it, reference.end());

  // Point lookups agree (members and non-members).
  for (int probe = 0; probe < 1000; ++probe) {
    const uint64_t key = rng.Below(domain * 2);
    const auto ref = reference.find(key);
    EXPECT_EQ(tree.CountOf(FixedValue<W>::FromKey(key)),
              ref == reference.end() ? 0 : ref->second.size());
  }
}

struct EquivalenceParam {
  uint64_t n;
  uint64_t domain;
};

class CsbTreeEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(CsbTreeEquivalenceTest, Width4) {
  RandomizedEquivalence<4>(GetParam().n, GetParam().domain, 17);
}
TEST_P(CsbTreeEquivalenceTest, Width8) {
  RandomizedEquivalence<8>(GetParam().n, GetParam().domain, 18);
}
TEST_P(CsbTreeEquivalenceTest, Width16) {
  RandomizedEquivalence<16>(GetParam().n, GetParam().domain, 19);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsbTreeEquivalenceTest,
    ::testing::Values(EquivalenceParam{100, 1000000},   // all unique-ish
                      EquivalenceParam{5000, 500},      // heavy duplicates
                      EquivalenceParam{20000, 20000},   // ~63% unique
                      EquivalenceParam{3000, 1}));      // single value

// --- batch insert: differential against per-key Insert -----------------------

enum class BatchShape { kSingle, kAllDuplicates, kAscendingUnique,
                        kDescending, kRandom };

/// A value from [0, domain); for W = 16 with `high_word`, also a non-zero
/// high word, so the sort's upper eight digits vary too.
template <size_t W>
FixedValue<W> DrawValue(Rng& rng, uint64_t domain, bool high_word) {
  if constexpr (W == 16) {
    if (high_word) {
      return FixedValue<16>::FromKeyPair(1 + rng.Below(3), rng.Below(domain));
    }
  }
  return FixedValue<W>::FromKey(rng.Below(domain));
}

template <size_t W>
std::vector<FixedValue<W>> MakeBatch(BatchShape shape, uint64_t n,
                                     uint64_t domain, bool high_word,
                                     Rng& rng) {
  std::vector<FixedValue<W>> batch;
  switch (shape) {
    case BatchShape::kSingle:
      batch.push_back(DrawValue<W>(rng, domain, high_word));
      break;
    case BatchShape::kAllDuplicates:
      batch.assign(n, DrawValue<W>(rng, domain, high_word));
      break;
    case BatchShape::kAscendingUnique:
    case BatchShape::kDescending: {
      // Distinct values, spread over the domain and beyond it.
      const uint64_t start = rng.Below(domain);
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back(FixedValue<W>::FromKey(start + 3 * i));
      }
      if (shape == BatchShape::kDescending) {
        std::reverse(batch.begin(), batch.end());
        // Repeat a run so descending input also carries duplicates.
        const std::vector<FixedValue<W>> head(batch.begin(),
                                              batch.begin() + n / 4);
        batch.insert(batch.end(), head.begin(), head.end());
      }
      break;
    }
    case BatchShape::kRandom:
      for (uint64_t i = 0; i < n; ++i) {
        batch.push_back(DrawValue<W>(rng, domain, high_word));
      }
      break;
  }
  return batch;
}

template <size_t W>
using TreeDump =
    std::vector<std::pair<FixedValue<W>, std::vector<uint32_t>>>;

std::vector<uint32_t> Tids(PostingsCursor c) {
  std::vector<uint32_t> tids;
  for (; !c.Done(); c.Advance()) tids.push_back(c.TupleId());
  return tids;
}

template <size_t W>
TreeDump<W> DumpSorted(const CsbTree<W>& tree) {
  TreeDump<W> out;
  tree.ForEachSorted([&](const FixedValue<W>& v, PostingsCursor c) {
    out.emplace_back(v, Tids(c));
  });
  return out;
}

template <size_t W>
TreeDump<W> DumpRange(const CsbTree<W>& tree, const FixedValue<W>& lo,
                      const FixedValue<W>& hi) {
  TreeDump<W> out;
  tree.ForEachInRange(lo, hi, [&](const FixedValue<W>& v, PostingsCursor c) {
    out.emplace_back(v, Tids(c));
  });
  return out;
}

/// Everything a reader can observe of `batch` against `per_key`, which
/// received the same values at the same tuple ids one Insert at a time.
template <size_t W>
void ExpectSameTree(const CsbTree<W>& per_key, const CsbTree<W>& batch,
                    uint64_t domain, bool high_word, Rng& rng) {
  ASSERT_EQ(batch.unique_keys(), per_key.unique_keys());
  ASSERT_EQ(batch.total_tuples(), per_key.total_tuples());
  const TreeDump<W> expected = DumpSorted(per_key);
  ASSERT_EQ(DumpSorted(batch), expected);
  // Present keys: every stored value; absent keys: draws from twice the
  // domain, about half of which miss.
  std::vector<FixedValue<W>> probes;
  for (const auto& [v, tids] : expected) probes.push_back(v);
  for (int i = 0; i < 200; ++i) {
    probes.push_back(DrawValue<W>(rng, 2 * domain + 1, high_word));
  }
  for (const FixedValue<W>& v : probes) {
    EXPECT_EQ(batch.CountOf(v), per_key.CountOf(v)) << v.ToString();
    EXPECT_EQ(Tids(batch.Find(v)), Tids(per_key.Find(v))) << v.ToString();
  }
  for (int i = 0; i < 100; ++i) {
    FixedValue<W> lo = DrawValue<W>(rng, 2 * domain + 1, high_word);
    FixedValue<W> hi = DrawValue<W>(rng, 2 * domain + 1, high_word);
    if (hi < lo) std::swap(lo, hi);
    EXPECT_EQ(DumpRange(batch, lo, hi), DumpRange(per_key, lo, hi));
  }
  EXPECT_LE(batch.live_node_bytes(), batch.memory_bytes());
  EXPECT_LE(per_key.live_node_bytes(), per_key.memory_bytes());
}

/// Builds one tree per key and one by batches from the same values: an
/// optional prefill batch (so the main batch meets a non-empty tree), the
/// main batch, then per-key inserts into both (splitting bulk-loaded full
/// leaves). Compares after each step.
template <size_t W>
void BatchMatchesPerKey(BatchShape shape, uint64_t domain, bool prefill,
                        bool high_word, uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "W=" << W << " shape=" << static_cast<int>(shape)
               << " domain=" << domain << " prefill=" << prefill
               << " high_word=" << high_word);
  Rng rng(seed);
  CsbTree<W> per_key;
  CsbTree<W> batch;
  uint32_t next_tid = 0;
  const auto insert_batch = [&](const std::vector<FixedValue<W>>& values) {
    for (size_t i = 0; i < values.size(); ++i) {
      per_key.Insert(values[i], next_tid + static_cast<uint32_t>(i));
    }
    batch.InsertBatch(values, next_tid);
    next_tid += static_cast<uint32_t>(values.size());
  };
  if (prefill) {
    insert_batch(MakeBatch<W>(BatchShape::kRandom, 700, domain, high_word,
                              rng));
    ExpectSameTree(per_key, batch, domain, high_word, rng);
  }
  insert_batch(MakeBatch<W>(shape, 3000, domain, high_word, rng));
  ExpectSameTree(per_key, batch, domain, high_word, rng);
  for (int i = 0; i < 500; ++i) {
    const FixedValue<W> v = DrawValue<W>(rng, 2 * domain + 1, high_word);
    per_key.Insert(v, next_tid);
    batch.Insert(v, next_tid);
    ++next_tid;
  }
  ExpectSameTree(per_key, batch, domain, high_word, rng);
}

template <size_t W>
void BatchMatchesPerKeyAllShapes(uint64_t seed) {
  for (const bool prefill : {false, true}) {
    for (const bool high_word : {false, true}) {
      if (high_word && W != 16) continue;
      for (const BatchShape shape :
           {BatchShape::kSingle, BatchShape::kAllDuplicates,
            BatchShape::kAscendingUnique, BatchShape::kDescending}) {
        BatchMatchesPerKey<W>(shape, 1000, prefill, high_word, seed++);
      }
      for (const uint64_t domain : {32ULL, 1000ULL, 50000ULL, 1ULL << 20}) {
        BatchMatchesPerKey<W>(BatchShape::kRandom, domain, prefill, high_word,
                              seed++);
      }
    }
  }
}

TEST(CsbTreeBatch, MatchesPerKeyInsertWidth4) {
  BatchMatchesPerKeyAllShapes<4>(400);
}
TEST(CsbTreeBatch, MatchesPerKeyInsertWidth8) {
  BatchMatchesPerKeyAllShapes<8>(800);
}
TEST(CsbTreeBatch, MatchesPerKeyInsertWidth16) {
  BatchMatchesPerKeyAllShapes<16>(1600);
}

TEST(CsbTreeBatch, EmptyBatchIsANoOp) {
  CsbTree<8> tree;
  tree.InsertBatch({}, 0);
  EXPECT_EQ(tree.unique_keys(), 0u);
  EXPECT_EQ(tree.total_tuples(), 0u);
  tree.Insert(Value8::FromKey(3), 0);
  tree.InsertBatch({}, 1);
  EXPECT_EQ(tree.total_tuples(), 1u);
}

TEST(CsbTreeBatch, BulkLoadBuildsFullNodes) {
  // A batch into an empty tree fills every leaf and internal node, so the
  // tree is as shallow as full cache-line nodes allow.
  CsbTree<8> tree;
  std::vector<Value8> values;
  for (uint64_t k = 0; k < 10000; ++k) values.push_back(Value8::FromKey(k));
  tree.InsertBatch(values, 0);
  EXPECT_EQ(tree.unique_keys(), 10000u);
  // 2500 full leaves under full 8-way internal nodes: 2500 -> 313 -> 40 -> 5
  // -> 1.
  EXPECT_EQ(tree.height(), 5);
  EXPECT_EQ(tree.live_node_bytes(),
            (2500u + 313u + 40u + 5u + 1u) * kCacheLineSize);
}

}  // namespace
}  // namespace deltamerge
