// Copyright (c) 2026 The DeltaMerge Authors.
// Sharded-scale systems bench: PartitionedTable at several segment counts
// vs the monolithic shape — one unbounded segment, ingested and merged
// through the same front door and the same §4 trigger.
//
// Three questions, matching the §9 claims the sharded front door exists
// for:
//
//   1. Merge pauses: the worst single merge pause must track the segment
//      capacity, not the table size (mono's worst merge grows with N_M;
//      the partitioned worst merge is bounded).
//   2. Fan-out reads: aggregate scans fanned out over segments on the
//      shared TaskQueue vs scanned serially.
//   3. Concurrency: reads against ingest. The pre-PR5 PartitionedTable
//      held ONE mutex across every serial segment scan, so a writer
//      stalled for whole scan durations; the rebuilt capture-then-scan
//      path never blocks ingest behind a reader. The "locked" mode below
//      reproduces the old discipline faithfully (one mutex around every
//      read and write) against the same table.
//
// Env knobs: DM_SCALE / DM_THREADS (bench_common.h); DM_JSON appends one
// object per configuration for the BENCH_pr5.json trajectory.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "core/partitioned_table.h"

using namespace deltamerge;
using namespace deltamerge::bench;

namespace {

constexpr int kColumns = 4;
constexpr uint64_t kKeyDomain = 1 << 20;

std::vector<uint64_t> MakeBatch(Rng& rng, uint64_t rows) {
  std::vector<uint64_t> keys(rows * kColumns);
  for (auto& k : keys) k = rng.Below(kKeyDomain);
  return keys;
}

struct IngestResult {
  double rows_per_sec = 0;
  uint64_t merges = 0;
  uint64_t worst_merge_cycles = 0;
  uint64_t total_merge_cycles = 0;
};

IngestResult IngestPartitioned(PartitionedTable* table, uint64_t total,
                               uint64_t batch_rows) {
  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 256;
  IngestResult out;
  Rng rng(4242);
  const uint64_t t0 = CycleClock::Now();
  for (uint64_t done = 0; done < total; done += batch_rows) {
    const uint64_t n = std::min(batch_rows, total - done);
    const std::vector<uint64_t> keys = MakeBatch(rng, n);
    table->InsertRows(keys, n);
    const PartitionedMergeReport r =
        table->MergeDueSegments(policy, TableMergeOptions{});
    if (r.segments_merged > 0) {
      out.merges += r.segments_merged;
      out.worst_merge_cycles =
          std::max(out.worst_merge_cycles, r.max_segment_wall_cycles);
      out.total_merge_cycles += r.table.wall_cycles;
    }
  }
  out.rows_per_sec = static_cast<double>(total) /
                     CycleClock::ToSeconds(CycleClock::Now() - t0);
  return out;
}

/// Cycles for `iters` rounds of one range count + one column sum.
uint64_t TimeReads(const PartitionedTable& t, int iters) {
  uint64_t checksum = 0;
  const uint64_t t0 = CycleClock::Now();
  for (int i = 0; i < iters; ++i) {
    checksum += t.CountRange(0, 1000, 50'000 + static_cast<uint64_t>(i));
    checksum += t.SumColumn(1);
  }
  const uint64_t cycles = CycleClock::Now() - t0;
  if (checksum == 0xdeadbeef) std::abort();  // keep the reads alive
  return cycles;
}

struct ConcurrentResult {
  double reads_per_sec = 0;
  double writes_per_sec = 0;
  uint64_t write_p99_cycles = 0;  ///< 99th-percentile single-insert latency
  uint64_t write_max_cycles = 0;  ///< worst insert stall
};

/// One reader scanning while one writer ingests, for ~`duration_cycles`.
/// With `locked`, every operation takes the shared mutex — the pre-PR5
/// serial-locked discipline, under which each insert can stall for a whole
/// fan-out scan.
ConcurrentResult RunConcurrent(PartitionedTable* t, bool locked,
                               uint64_t duration_cycles) {
  std::mutex legacy_mu;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::vector<uint64_t> write_lat;
  write_lat.reserve(1 << 20);
  uint64_t reads = 0;
  std::thread writer([&] {
    Rng rng(777);
    std::vector<uint64_t> row(kColumns);
    while (!stop.load(std::memory_order_acquire)) {
      for (auto& k : row) k = rng.Below(kKeyDomain);
      const uint64_t w0 = CycleClock::Now();
      if (locked) {
        std::lock_guard<std::mutex> lock(legacy_mu);
        t->InsertRow(row);
      } else {
        t->InsertRow(row);
      }
      if (write_lat.size() < write_lat.capacity()) {
        write_lat.push_back(CycleClock::Now() - w0);
      }
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  uint64_t checksum = 0;
  const uint64_t t0 = CycleClock::Now();
  while (CycleClock::Now() - t0 < duration_cycles) {
    // A real analytic scan (range count + full-column sum), so the locked
    // mode's mutex is held for scan-length stretches — exactly the pre-PR5
    // behaviour that starved ingest.
    if (locked) {
      std::lock_guard<std::mutex> lock(legacy_mu);
      checksum += t->CountRange(0, 1000, 50'000);
      checksum += t->SumColumn(1);
    } else {
      checksum += t->CountRange(0, 1000, 50'000);
      checksum += t->SumColumn(1);
    }
    ++reads;
  }
  const double seconds = CycleClock::ToSeconds(CycleClock::Now() - t0);
  stop.store(true, std::memory_order_release);
  writer.join();
  if (checksum == 0xdeadbeef) std::abort();
  ConcurrentResult out;
  out.reads_per_sec = static_cast<double>(reads) / seconds;
  out.writes_per_sec = static_cast<double>(writes.load()) / seconds;
  if (!write_lat.empty()) {
    std::sort(write_lat.begin(), write_lat.end());
    out.write_p99_cycles = write_lat[write_lat.size() * 99 / 100];
    out.write_max_cycles = write_lat.back();
  }
  return out;
}

}  // namespace

int main() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Sharded scale (§9): segment count vs merge pause, fan-out "
              "reads, reads-vs-ingest",
              cfg);

  const uint64_t total = cfg.Scaled(10'000'000);
  const uint64_t batch = std::max<uint64_t>(1, total / 200);
  const int read_iters = 20;

  // --- monolithic baseline: one segment that never seals ---
  PartitionedTable mono(Schema::Uniform(kColumns, 8),
                        std::numeric_limits<uint64_t>::max());
  const IngestResult mono_r = IngestPartitioned(&mono, total, batch);
  std::printf("%-12s %10s %12s %14s %14s %12s %12s\n", "config", "merges",
              "ingest Mr/s", "worst mrg Mcy", "total mrg Mcy", "rd ser Mcy",
              "rd par Mcy");
  std::printf("%-12s %10llu %12.2f %14.2f %14.2f %12s %12s\n", "monolithic",
              (unsigned long long)mono_r.merges, mono_r.rows_per_sec / 1e6,
              static_cast<double>(mono_r.worst_merge_cycles) / 1e6,
              static_cast<double>(mono_r.total_merge_cycles) / 1e6, "-", "-");
  AppendJsonResult(
      "\"bench\":\"sharded_scale\",\"segments\":1,\"rows\":" +
      std::to_string(total) +
      ",\"ingest_rows_s\":" + std::to_string(mono_r.rows_per_sec) +
      ",\"worst_merge_mcycles\":" +
      std::to_string(static_cast<double>(mono_r.worst_merge_cycles) / 1e6));

  // --- partitioned at several segment counts ---
  TaskQueue pool(cfg.threads);
  for (uint64_t segs : {4ull, 16ull, 64ull}) {
    const uint64_t capacity = std::max<uint64_t>(1, total / segs);
    PartitionedTable part(Schema::Uniform(kColumns, 8), capacity);
    const IngestResult r = IngestPartitioned(&part, total, batch);
    const uint64_t serial_cycles = TimeReads(part, read_iters);
    part.AttachReadPool(&pool);
    const uint64_t parallel_cycles = TimeReads(part, read_iters);
    part.AttachReadPool(nullptr);
    char label[32];
    std::snprintf(label, sizeof(label), "%llu segments",
                  (unsigned long long)segs);
    std::printf("%-12s %10llu %12.2f %14.2f %14.2f %12.2f %12.2f\n", label,
                (unsigned long long)r.merges, r.rows_per_sec / 1e6,
                static_cast<double>(r.worst_merge_cycles) / 1e6,
                static_cast<double>(r.total_merge_cycles) / 1e6,
                static_cast<double>(serial_cycles) / 1e6,
                static_cast<double>(parallel_cycles) / 1e6);
    AppendJsonResult(
        "\"bench\":\"sharded_scale\",\"segments\":" + std::to_string(segs) +
        ",\"rows\":" + std::to_string(total) +
        ",\"ingest_rows_s\":" + std::to_string(r.rows_per_sec) +
        ",\"worst_merge_mcycles\":" +
        std::to_string(static_cast<double>(r.worst_merge_cycles) / 1e6) +
        ",\"read_serial_mcycles\":" +
        std::to_string(static_cast<double>(serial_cycles) / 1e6) +
        ",\"read_parallel_mcycles\":" +
        std::to_string(static_cast<double>(parallel_cycles) / 1e6));
  }

  // --- reads vs ingest: the serial-locked (pre-PR5) discipline vs the
  // capture-then-scan path, same table shape ---
  const uint64_t duration =
      static_cast<uint64_t>(0.25 * CycleClock::FrequencyHz());
  PartitionedTable locked_t(Schema::Uniform(kColumns, 8),
                            std::max<uint64_t>(1, total / 16));
  IngestPartitioned(&locked_t, total, batch);
  const ConcurrentResult locked = RunConcurrent(&locked_t, true, duration);
  // Capture-then-scan WITHOUT the fan-out pool: this isolates the lock
  // split itself (the fan-out parallelism is measured above and is a
  // multi-core lever; on one core a pool only adds switching overhead).
  PartitionedTable free_t(Schema::Uniform(kColumns, 8),
                          std::max<uint64_t>(1, total / 16));
  IngestPartitioned(&free_t, total, batch);
  const ConcurrentResult lockfree = RunConcurrent(&free_t, false, duration);

  std::printf("\nreads vs ingest (16 segments, 1 reader + 1 writer):\n");
  std::printf("%-22s %15s %15s\n", "", "locked(pre-PR5)", "capture+scan");
  std::printf("%-22s %15.0f %15.0f\n", "reads/s", locked.reads_per_sec,
              lockfree.reads_per_sec);
  std::printf("%-22s %15.0f %15.0f\n", "writer inserts/s",
              locked.writes_per_sec, lockfree.writes_per_sec);
  std::printf("%-22s %15.1f %15.1f\n", "insert p99 us",
              static_cast<double>(locked.write_p99_cycles) /
                  CycleClock::FrequencyHz() * 1e6,
              static_cast<double>(lockfree.write_p99_cycles) /
                  CycleClock::FrequencyHz() * 1e6);
  std::printf("%-22s %15.1f %15.1f\n", "insert max us",
              static_cast<double>(locked.write_max_cycles) /
                  CycleClock::FrequencyHz() * 1e6,
              static_cast<double>(lockfree.write_max_cycles) /
                  CycleClock::FrequencyHz() * 1e6);
  AppendJsonResult(
      "\"bench\":\"sharded_scale_concurrent\",\"rows\":" +
      std::to_string(total) +
      ",\"locked_reads_s\":" + std::to_string(locked.reads_per_sec) +
      ",\"locked_writes_s\":" + std::to_string(locked.writes_per_sec) +
      ",\"locked_insert_p99_us\":" +
      std::to_string(static_cast<double>(locked.write_p99_cycles) /
                     CycleClock::FrequencyHz() * 1e6) +
      ",\"lockfree_reads_s\":" + std::to_string(lockfree.reads_per_sec) +
      ",\"lockfree_writes_s\":" + std::to_string(lockfree.writes_per_sec) +
      ",\"lockfree_insert_p99_us\":" +
      std::to_string(static_cast<double>(lockfree.write_p99_cycles) /
                     CycleClock::FrequencyHz() * 1e6));

  std::printf(
      "\nreading the table: the worst merge pause is bounded by the segment "
      "capacity (vs the monolithic pause growing with table size), fan-out "
      "reads parallelize over segments, and ingest no longer stalls behind "
      "readers.\n");
  return 0;
}
