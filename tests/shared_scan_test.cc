// Copyright (c) 2026 The DeltaMerge Authors.
// Cooperative scan sharing (query/shared_scan.h): ScanGate protocol unit
// tests against raw packed vectors, Table/Snapshot integration (gate
// routing must be answer-invisible), the validity-masked snapshot
// aggregates, and the 3-reader/1-writer/daemon torture with shared sweeps
// enabled — readers verify capture-instant model answers while segments
// roll over and merge underneath. TSan runs the torture.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/partitioned_table.h"
#include "core/table.h"
#include "durable_torture_util.h"
#include "query/shared_scan.h"
#include "reference_model.h"
#include "simd/simd_kernels.h"
#include "storage/packed_vector.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using query::PackedScanSpec;
using query::ScanGate;
using testref::kTortureKeyDomain;
using testref::ReferenceModel;
using testref::TortureSchema;
using testref::TortureWidths;

PackedVector RandomCodes(uint64_t n, uint8_t bits, uint64_t seed) {
  PackedVector v(n, bits);
  Rng rng(seed);
  const uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & mask));
  }
  return v;
}

PackedScanSpec SpecOf(const PackedVector& v, uint32_t lo, uint32_t hi) {
  PackedScanSpec spec;
  spec.codes = &v;
  spec.tuples = v.size();
  spec.c_lo = lo;
  spec.c_hi = hi;
  spec.match = true;
  return spec;
}

// ---------------------------------------------------------------------------
// ScanGate protocol
// ---------------------------------------------------------------------------

TEST(ScanGate, SoloCountsMatchTheKernel) {
  const PackedVector v = RandomCodes(4099, 12, 1);
  ScanGate gate;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Below(1u << 12));
    const uint32_t b = static_cast<uint32_t>(rng.Below(1u << 12));
    const uint32_t lo = a < b ? a : b;
    const uint32_t hi = a < b ? b : a;
    ASSERT_EQ(gate.Count(0, SpecOf(v, lo, hi)),
              simd::CountRangePackedScalar(v, 0, v.size(), lo, hi));
  }
  const ScanGate::Stats s = gate.stats();
  EXPECT_EQ(s.queries_served, 50u);
  EXPECT_EQ(s.sweeps, 50u);  // solo: every enrollment sweeps alone
  EXPECT_EQ(s.shared_queries, 0u);
  EXPECT_EQ(s.bypasses, 0u);
}

TEST(ScanGate, NonMatchingSpecsShortCircuit) {
  const PackedVector v = RandomCodes(100, 8, 3);
  ScanGate gate;
  PackedScanSpec missed = SpecOf(v, 5, 9);
  missed.match = false;  // dictionary miss: nothing to sweep
  EXPECT_EQ(gate.Count(0, missed), 0u);
  PackedScanSpec inverted = SpecOf(v, 9, 5);  // empty code range
  EXPECT_EQ(gate.Count(0, inverted), 0u);
  PackedScanSpec empty = SpecOf(v, 0, 255);
  empty.tuples = 0;  // empty main partition
  EXPECT_EQ(gate.Count(0, empty), 0u);
  const ScanGate::Stats s = gate.stats();
  EXPECT_EQ(s.queries_served, 0u);
  EXPECT_EQ(s.sweeps, 0u);
}

TEST(ScanGate, ConcurrentEnrolleesAllGetExactAnswers) {
  // 8 threads hammer one generation with random ranges; every answer must
  // be bit-exact regardless of which sweeps batched whom. The per-column
  // accounting must add up: every enrollment served, bypasses impossible
  // (single generation).
  const PackedVector v = RandomCodes(200001, 16, 7);
  ScanGate gate;
  constexpr int kThreads = 8;
  constexpr int kQueries = 200;
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kQueries; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.Below(1u << 16));
        const uint32_t b = static_cast<uint32_t>(rng.Below(1u << 16));
        const uint32_t lo = a < b ? a : b;
        const uint32_t hi = a < b ? b : a;
        const uint64_t got = gate.Count(0, SpecOf(v, lo, hi));
        const uint64_t want =
            simd::CountRangePacked(v, 0, v.size(), lo, hi);
        if (got != want) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const ScanGate::Stats s = gate.stats();
  EXPECT_EQ(s.queries_served,
            static_cast<uint64_t>(kThreads) * kQueries);
  EXPECT_EQ(s.bypasses, 0u);
  EXPECT_LE(s.sweeps, s.queries_served);
  EXPECT_GE(s.sweeps, 1u);
}

TEST(ScanGate, GenerationMismatchBypassesWithoutCorruption) {
  // Two threads alternate between two generations on the SAME column slot.
  // Whenever one generation's batch is in flight as the other arrives, the
  // arrival must bypass solo — and in every interleaving both threads'
  // answers stay exact. The two vectors differ in content AND size, so a
  // cross-generation mixup would show up as a wrong count immediately.
  const PackedVector va = RandomCodes(100003, 10, 11);
  const PackedVector vb = RandomCodes(50001, 10, 13);
  const uint64_t want_a = simd::CountRangePacked(va, 0, va.size(), 100, 700);
  const uint64_t want_b = simd::CountRangePacked(vb, 0, vb.size(), 100, 700);
  ScanGate gate;
  std::atomic<uint64_t> wrong{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      const PackedVector& mine = (t == 0) ? va : vb;
      const uint64_t want = (t == 0) ? want_a : want_b;
      for (int i = 0; i < 4000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        if (gate.Count(0, SpecOf(mine, 100, 700)) != want) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        // Once a bypass has been observed the race has been exercised.
        if ((i & 63) == 0 && gate.stats().bypasses > 0) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  // Not asserted > 0: with an unlucky scheduler the two threads might
  // never overlap; correctness above is the hard requirement.
}

// ---------------------------------------------------------------------------
// Table / Snapshot integration
// ---------------------------------------------------------------------------

TEST(SharedScanTable, GateRoutingIsAnswerInvisible) {
  Table t(TortureSchema());
  ReferenceModel model(TortureWidths());
  Rng rng(21);
  std::vector<uint64_t> keys(3);
  for (int i = 0; i < 3000; ++i) {
    for (auto& k : keys) k = rng.Below(kTortureKeyDomain);
    t.InsertRow(keys);
    model.Insert(keys);
  }
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  // Post-merge writes leave rows in the active delta too, so the gated
  // count composes main (gate) + frozen + active paths.
  for (int i = 0; i < 200; ++i) {
    for (auto& k : keys) k = rng.Below(kTortureKeyDomain);
    t.InsertRow(keys);
    model.Insert(keys);
  }

  EXPECT_FALSE(t.shared_scans_enabled());
  t.EnableSharedScans(true);
  Snapshot gated = t.CreateSnapshot();
  t.EnableSharedScans(false);
  Snapshot plain = t.CreateSnapshot();
  ASSERT_NE(gated.scan_gate(), nullptr);
  ASSERT_EQ(plain.scan_gate(), nullptr);  // policy captured at creation

  for (int i = 0; i < 40; ++i) {
    const uint64_t key = rng.Below(kTortureKeyDomain);
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(gated.CountEquals(c, key), model.CountEquals(c, key));
      ASSERT_EQ(gated.CountEquals(c, key), plain.CountEquals(c, key));
      ASSERT_EQ(gated.CountRange(c, key, key + 99),
                model.CountRange(c, key, key + 99));
    }
  }
  const ScanGate::Stats s = t.shared_scan_stats();
  EXPECT_GT(s.queries_served, 0u);
  EXPECT_GT(s.sweeps, 0u);
}

TEST(SharedScanTable, ValidAggregatesMatchFilteredCollects) {
  Table t(TortureSchema());
  ReferenceModel model(TortureWidths());
  Rng rng(31);
  std::vector<uint64_t> keys(3);
  for (int i = 0; i < 2000; ++i) {
    for (auto& k : keys) k = rng.Below(kTortureKeyDomain);
    const uint64_t row = t.InsertRow(keys);
    model.Insert(keys);
    if (i % 7 == 0) {
      ASSERT_TRUE(t.DeleteRow(row).ok());
      model.Delete(row);
    }
  }
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  for (int i = 0; i < 300; ++i) {
    for (auto& k : keys) k = rng.Below(kTortureKeyDomain);
    const uint64_t row = t.InsertRow(keys);
    model.Insert(keys);
    if (i % 5 == 0) {
      ASSERT_TRUE(t.DeleteRow(row).ok());
      model.Delete(row);
    }
  }

  t.EnableSharedScans(true);
  const Snapshot snap = t.CreateSnapshot();
  // Deletes AFTER the capture must not leak into the masked answers.
  for (uint64_t row = 0; row < 50; ++row) (void)t.DeleteRow(row * 3);

  for (int i = 0; i < 30; ++i) {
    const uint64_t key = rng.Below(kTortureKeyDomain);
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(snap.CountEquals(c, key, true),
                snap.CollectEquals(c, key, true).size());
      ASSERT_EQ(snap.CountEquals(c, key, true),
                model.CountEquals(c, key, true));
      ASSERT_EQ(snap.CountRange(c, key, key + 99, true),
                snap.CollectRange(c, key, key + 99, true).size());
    }
  }
  for (size_t c = 0; c < 3; ++c) {
    ASSERT_EQ(snap.SumColumn(c, true), model.Sum(c, true));
  }
  // A validity mask is per snapshot: masked counts never enroll.
  const ScanGate::Stats gate = t.shared_scan_stats();
  EXPECT_EQ(gate.queries_served + gate.bypasses, 0u);
}

// ---------------------------------------------------------------------------
// Torture: shared sweeps under writer + rollovers + merge daemon
// ---------------------------------------------------------------------------

TEST(SharedScanTorture, ReadersShareSweepsWhileWriterAndDaemonRun) {
  // The PR 10 acceptance archetype: 3 readers enroll in shared sweeps
  // (gate enabled on every segment, propagating across rollovers) while a
  // writer inserts/updates/deletes and the partitioned daemon merges.
  // Every reader answer must equal the capture-instant model answer.
  PartitionedTable table(TortureSchema(), 512);
  table.EnableSharedScans(true);
  std::mutex model_mu;
  ReferenceModel model(TortureWidths());

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.0;
  policy.min_delta_rows = 1;
  policy.poll_interval_us = 200;
  TableMergeOptions merge_options;
  merge_options.inter_column_delay_us = 100;  // stretch merge bodies
  PartitionedMergeDaemon daemon(&table, policy, merge_options);
  daemon.Start();

  constexpr uint64_t kWriterOps = 8000;
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, kWriterOps, kTortureKeyDomain, 777);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};

  const auto reader_body = [&](uint64_t seed) {
    SCOPED_TRACE(::testing::Message() << "reader seed=" << seed);
    Rng rng(seed);
    while (!stop.load(std::memory_order_acquire)) {
      PartitionedSnapshot snap;
      ReferenceModel expect({});
      {
        std::lock_guard<std::mutex> lock(model_mu);
        snap = table.CreateSnapshot();
        expect = model;
      }
      ASSERT_EQ(snap.num_rows(), expect.size());
      for (int i = 0; i < 4; ++i) {
        const uint64_t key = rng.Below(kTortureKeyDomain);
        const size_t c = rng.Below(3);
        ASSERT_EQ(snap.CountEquals(c, key), expect.CountEquals(c, key));
        ASSERT_EQ(snap.CountRange(c, key, key + 100),
                  expect.CountRange(c, key, key + 100));
      }
      verified.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back(reader_body, 0x5ca0 + static_cast<uint64_t>(r));
  }

  for (const WriteOp& op : ops) {
    std::lock_guard<std::mutex> lock(model_mu);
    ApplyWriteOp(&table, op);
    switch (op.kind) {
      case WriteOpKind::kInsert:
        model.Insert(op.keys);
        break;
      case WriteOpKind::kUpdate:
        model.Update(op.target_row, op.keys);
        break;
      case WriteOpKind::kDelete:
        model.Delete(op.target_row);
        break;
      case WriteOpKind::kInsertBatch:
      case WriteOpKind::kTxn:
        break;  // not generated here
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((daemon.stats().segments_merged < 2 || verified.load() < 12) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  daemon.Stop();

  EXPECT_GT(table.num_segments(), 8u);  // rollovers happened mid-run
  EXPECT_GE(verified.load(), 12u);
  const ScanGate::Stats s = table.shared_scan_stats();
  // Every reader count's main share enrolled at some segment's gate.
  EXPECT_GT(s.queries_served, 0u);
  EXPECT_GE(s.sweeps, 1u);
}

}  // namespace
}  // namespace deltamerge
