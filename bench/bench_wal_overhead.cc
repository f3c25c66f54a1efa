// Copyright (c) 2026 The DeltaMerge Authors.
// WAL overhead: what does durability cost the paper's update stream?
//
// The paper's delta is the durability frontier — every insert/update/delete
// is one append-only WAL record, and the merge doubles as the checkpoint.
// This bench runs the same deterministic insert/update/delete schedule
// (the 55/30/15 mix of the concurrent driver) against:
//
//   memory        a PartitionedTable, no journal — the PR 2 baseline;
//   sync=none     WAL buffered to the OS only (crash loses the tail);
//   sync=interval WAL fsynced by a background thread every 1 ms
//                 (bounded loss window);
//   sync=commit   group-committed fdatasync before each op acknowledges —
//                 the full "no acknowledged write is ever lost" contract.
//
// Every mode runs the monolithic shape: one segment of unbounded capacity,
// durable through a DurablePartitionedTable in the sync modes. A
// foreground merge runs every `ops/8` operations, so the durable modes
// also pay (and amortize) real checkpoint writes + WAL truncation. Reported
// per mode: sustained updates/s, fsyncs issued, checkpoints written, and
// bytes left in the table directory at the end.
//
// Knobs: DM_SCALE / DM_THREADS / DM_JSON (bench_common.h); DM_WAL_DIR to
// put the table directory somewhere other than ./ (e.g. a real disk
// instead of tmpfs — fsync cost is the whole story here).

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>

#include "bench_common.h"
#include "core/partitioned_table.h"
#include "persist/durable_partitioned_table.h"
#include "util/cycle_clock.h"
#include "util/file_io.h"
#include "workload/query_gen.h"

namespace deltamerge::bench {
namespace {

constexpr uint64_t kPaperWriterOps = 1'000'000;
constexpr uint64_t kKeyDomain = 1 << 20;
constexpr size_t kColumns = 4;
constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max();

struct ModeResult {
  double updates_per_second = 0;
  uint64_t syncs = 0;
  uint64_t checkpoints = 0;
  uint64_t dir_bytes = 0;
};

/// Bytes of every file under `dir`, segment subdirectories included.
uint64_t DirBytes(const std::string& dir) {
  auto names = ListDir(dir);
  if (!names.ok()) return 0;
  uint64_t total = 0;
  for (const auto& name : names.ValueOrDie()) {
    const std::string path = dir + "/" + name;
    if (ListDir(path).ok()) {
      total += DirBytes(path);
      continue;
    }
    auto sz = FileSize(path);
    if (sz.ok()) total += sz.ValueOrDie();
  }
  return total;
}

Schema MakeSchema() {
  Schema schema;
  for (size_t c = 0; c < kColumns; ++c) {
    schema.columns.push_back({8, "col" + std::to_string(c)});
  }
  return schema;
}

ModeResult RunMode(const BenchConfig& cfg, const std::vector<WriteOp>& ops,
                   const char* mode,
                   const persist::WalSyncPolicy* policy) {
  WriteScheduleOptions schedule;
  schedule.merge_every = ops.size() / 8 == 0 ? 0 : ops.size() / 8;
  schedule.merge.num_threads = cfg.threads;
  schedule.merge.parallelism = MergeParallelism::kColumnTasks;

  ModeResult out;
  if (policy == nullptr) {
    PartitionedTable table(MakeSchema(), kUnbounded);
    const WriteScheduleReport r = RunWriteSchedule(&table, ops, schedule);
    out.updates_per_second = r.updates_per_second();
  } else {
    const char* base = std::getenv("DM_WAL_DIR");
    const std::string dir = std::string(base != nullptr && *base != '\0'
                                            ? base
                                            : ".") +
                            "/dm_bench_wal_" + mode;
    (void)RemoveDirAll(dir);
    {
      persist::DurableTableOptions options;
      options.wal.policy = *policy;
      options.wal.interval_us = 1000;
      auto opened = persist::DurablePartitionedTable::Open(
          dir, MakeSchema(), kUnbounded, options);
      if (!opened.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     opened.status().ToString().c_str());
        return out;
      }
      auto table = std::move(opened).ValueOrDie();
      const WriteScheduleReport r =
          RunWriteSchedule(&table->table(), ops, schedule);
      out.updates_per_second = r.updates_per_second();
      const persist::DurableTable& segment = table->durable_segment(0);
      out.syncs = segment.wal().sync_count();
      out.checkpoints = segment.durability().checkpoints_written();
      out.dir_bytes = DirBytes(dir);
    }
    (void)RemoveDirAll(dir);
  }

  std::printf("%-12s %12.0f %8" PRIu64 " %11" PRIu64 " %12" PRIu64 "\n",
              mode, out.updates_per_second, out.syncs, out.checkpoints,
              out.dir_bytes);
  char json[256];
  std::snprintf(json, sizeof(json),
                "\"bench\":\"wal_overhead\",\"mode\":\"%s\","
                "\"updates_per_s\":%.0f,\"syncs\":%" PRIu64
                ",\"checkpoints\":%" PRIu64 ",\"dir_bytes\":%" PRIu64,
                mode, out.updates_per_second, out.syncs, out.checkpoints,
                out.dir_bytes);
  AppendJsonResult(json);
  return out;
}

}  // namespace
}  // namespace deltamerge::bench

int main() {
  using namespace deltamerge;
  using namespace deltamerge::bench;

  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader(
      "WAL overhead: durable update stream vs. the in-memory baseline "
      "(group commit, merge-coupled checkpoints)",
      cfg);

  const uint64_t num_ops = cfg.Scaled(kPaperWriterOps);
  const std::vector<WriteOp> ops =
      GenerateWriteOps(kColumns, num_ops, kKeyDomain, /*seed=*/42);
  std::printf("ops=%" PRIu64 "  columns=%zu  merges=%d (checkpoints in "
              "durable modes)\n\n",
              num_ops, kColumns, 8);
  std::printf("%-12s %12s %8s %11s %12s\n", "mode", "updates/s", "fsyncs",
              "checkpoints", "dir_bytes");

  const double base =
      RunMode(cfg, ops, "memory", nullptr).updates_per_second;
  const persist::WalSyncPolicy none = persist::WalSyncPolicy::kNone;
  const persist::WalSyncPolicy interval = persist::WalSyncPolicy::kInterval;
  const persist::WalSyncPolicy commit = persist::WalSyncPolicy::kEveryCommit;
  const double n = RunMode(cfg, ops, "sync=none", &none).updates_per_second;
  const double i =
      RunMode(cfg, ops, "sync=interval", &interval).updates_per_second;
  const double e =
      RunMode(cfg, ops, "sync=commit", &commit).updates_per_second;

  if (base > 0) {
    std::printf("\ndurability cost vs. memory: none %.1f%%, interval "
                "%.1f%%, every-commit %.1f%%\n",
                100.0 * (1.0 - n / base), 100.0 * (1.0 - i / base),
                100.0 * (1.0 - e / base));
  }
  return 0;
}
