// Copyright (c) 2026 The DeltaMerge Authors.
// Tests for the query evaluators: lookups (the range form with lo == hi),
// range selects and sums against brute-force references, over main, delta,
// and both.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/merge_algorithms.h"
#include "query/aggregate.h"
#include "query/range_select.h"
#include "storage/column.h"
#include "util/random.h"
#include "workload/value_generator.h"

namespace deltamerge {
namespace {

struct Fixture {
  MainPartition<8> main;
  DeltaPartition<8> delta;
  std::vector<uint64_t> all_keys;  // main order then delta order

  explicit Fixture(uint64_t seed, uint64_t nm = 5000, uint64_t nd = 800,
                   uint64_t domain = 400) {
    Rng rng(seed);
    std::vector<Value8> mv;
    for (uint64_t i = 0; i < nm; ++i) {
      const uint64_t k = rng.Below(domain);
      mv.push_back(Value8::FromKey(k));
      all_keys.push_back(k);
    }
    main = MainPartition<8>::FromValues(mv);
    for (uint64_t i = 0; i < nd; ++i) {
      const uint64_t k = rng.Below(domain);
      delta.Insert(Value8::FromKey(k));
      all_keys.push_back(k);
    }
  }

  uint64_t BruteCountEquals(uint64_t key) const {
    return static_cast<uint64_t>(
        std::count(all_keys.begin(), all_keys.end(), key));
  }

  uint64_t BruteCountRange(uint64_t lo, uint64_t hi) const {
    uint64_t n = 0;
    for (uint64_t k : all_keys) n += (k >= lo && k <= hi);
    return n;
  }

  /// Main's evaluator, then the whole delta's, on [lo, hi].
  uint64_t Count(uint64_t lo, uint64_t hi) const {
    const Value8 vlo = Value8::FromKey(lo), vhi = Value8::FromKey(hi);
    return query::CountMain(query::MainSpec(main, vlo, vhi), nullptr) +
           query::CountDelta(delta, vlo, vhi, delta.size(), main.size(),
                             nullptr);
  }

  /// Row positions (main, then delta offset by main's size) in [lo, hi].
  std::vector<uint64_t> Collect(uint64_t lo, uint64_t hi) const {
    const Value8 vlo = Value8::FromKey(lo), vhi = Value8::FromKey(hi);
    std::vector<uint64_t> rows;
    query::CollectMain(query::MainSpec(main, vlo, vhi), &rows);
    query::CollectDelta(delta, vlo, vhi, delta.size(), main.size(), &rows);
    return rows;
  }

  uint64_t Sum() const {
    return query::SumMain(main, nullptr) +
           query::SumDelta(delta, delta.size(), main.size(), nullptr);
  }
};

TEST(Lookup, CountEqualsMatchesBruteForce) {
  Fixture f(101);
  Rng rng(1);
  for (int probe = 0; probe < 200; ++probe) {
    const uint64_t key = rng.Below(500);  // includes absent keys
    EXPECT_EQ(f.Count(key, key), f.BruteCountEquals(key)) << "key " << key;
  }
}

TEST(Lookup, CollectReturnsPositions) {
  Fixture f(102, 1000, 200, 50);
  const uint64_t key = 7;
  const std::vector<uint64_t> rows = f.Collect(key, key);
  ASSERT_EQ(rows.size(), f.BruteCountEquals(key));
  for (uint64_t r : rows) {
    EXPECT_EQ(f.all_keys[r], key);
  }
}

TEST(Lookup, AbsentKeyFindsNothing) {
  Fixture f(103);
  EXPECT_EQ(f.Count(1u << 30, 1u << 30), 0u);
  EXPECT_TRUE(f.Collect(1u << 30, 1u << 30).empty());
}

TEST(RangeSelect, CountMatchesBruteForce) {
  Fixture f(104);
  Rng rng(2);
  for (int probe = 0; probe < 200; ++probe) {
    const uint64_t lo = rng.Below(450);
    const uint64_t hi = lo + rng.Below(60);
    EXPECT_EQ(f.Count(lo, hi), f.BruteCountRange(lo, hi)) << lo << ".." << hi;
  }
}

TEST(RangeSelect, EmptyAndInvertedRanges) {
  Fixture f(105);
  EXPECT_EQ(f.Count(10, 9), 0u);
  EXPECT_EQ(f.Count(1u << 20, 1u << 21), 0u);
  EXPECT_TRUE(f.Collect(10, 9).empty());
}

TEST(RangeSelect, CollectMatchesCount) {
  Fixture f(106, 2000, 300, 100);
  const std::vector<uint64_t> rows = f.Collect(10, 20);
  EXPECT_EQ(rows.size(), f.BruteCountRange(10, 20));
  for (uint64_t r : rows) {
    EXPECT_GE(f.all_keys[r], 10u);
    EXPECT_LE(f.all_keys[r], 20u);
  }
}

TEST(Aggregate, SumMatchesBruteForce) {
  Fixture f(109);
  uint64_t expected = 0;
  for (uint64_t k : f.all_keys) expected += k;
  EXPECT_EQ(f.Sum(), expected);
}

TEST(Aggregate, SumEmptyPartitionsIsZero) {
  MainPartition<8> main;
  DeltaPartition<8> delta;
  EXPECT_EQ(query::SumMain(main, nullptr), 0u);
  EXPECT_EQ(query::SumDelta(delta, 0, 0, nullptr), 0u);
}

TEST(Query, AnswersStableAcrossMerge) {
  // The core read-your-merges property: query answers must be identical
  // before and after folding the delta into the main partition.
  Fixture f(110, 3000, 500, 120);
  const uint64_t probe_eq = 17;
  const uint64_t before_eq = f.Count(probe_eq, probe_eq);
  const uint64_t before_sum = f.Sum();

  // Merge (serial linear).
  Column<8> col{std::move(f.main)};
  for (const auto& v : f.delta.values()) col.Insert(v);
  col.FreezeDelta();
  MergeStats stats;
  auto merged = MergeColumnPartitions<8>(col.main(), *col.frozen(),
                                         MergeOptions{}, nullptr, &stats);
  col.CommitMerge(std::move(merged));

  const Value8 v = Value8::FromKey(probe_eq);
  EXPECT_EQ(query::CountMain(query::MainSpec(col.main(), v, v), nullptr),
            before_eq);
  EXPECT_EQ(query::SumMain(col.main(), nullptr), before_sum);
}

}  // namespace
}  // namespace deltamerge
