// Copyright (c) 2026 The DeltaMerge Authors.
// WAL corruption fuzzer: a seeded, time-boxed property test.
//
// A mixed schedule (checkpoints included) is written once through an
// unbounded DurablePartitionedTable — the monolithic shape, one segment
// that never seals — and that segment's directory (its WAL and checkpoint
// files; never the manifest) snapshotted to memory. Each iteration
// restores the pristine image, mutates it — random byte flips, random
// truncation, garbage extension, byte-range duplication (a doubled frame),
// checkpoint damage, or several at once — and reopens. Two schedule
// framings run: row/batch records, and multi-row transactions whose
// kTxnCommit frames must replay whole or vanish whole — never a row
// prefix. The properties, asserted every time:
//
//   1. recovery never crashes (it returns a Status — ASan/the process both
//      stay clean; CI runs this suite under ASan);
//   2. a corrupt record is never applied: if Open succeeds, the recovered
//      table is *byte-equal to the reference model* at the exact prefix
//      its recovered LSN covers (PartitionedPlan) — a flipped bit that
//      slipped past the CRC, a partially applied batch, or a row decoded
//      from garbage would all break the differential;
//   3. the result is always a valid prefix — never more records than the
//      schedule logged, and mutations confined to the WAL tail never cost
//      checkpoint-covered history.
//
// Open is also allowed to *fail loudly* (corrupt checkpoint whose WAL
// history is gone, WAL gap): refusing is correct; silently inventing or
// dropping acknowledged state is the bug class this fuzzer hunts.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/partitioned_table.h"
#include "durable_torture_util.h"
#include "persist/durable_partitioned_table.h"
#include "persist/wal.h"
#include "util/file_io.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using persist::DurablePartitionedTable;
using persist::DurableTableOptions;
using persist::WalSyncPolicy;
using testref::ExpectTableMatchesModel;
using testref::kTortureKeyDomain;
using testref::kUnboundedCapacity;
using testref::PartitionedPlan;
using testref::PartitionedRecoveredModel;
using testref::PlanPartitionedSchedule;
using testref::ReferenceModel;
using testref::TortureSchema;
using testref::TortureScratchDir;

using DirImage = std::map<std::string, std::vector<uint8_t>>;

DirImage SnapshotDir(const std::string& dir) {
  DirImage image;
  auto names = ListDir(dir);
  EXPECT_TRUE(names.ok());
  if (!names.ok()) return image;
  for (const std::string& name : names.ValueOrDie()) {
    auto in = FileReader::Open(dir + "/" + name);
    EXPECT_TRUE(in.ok());
    if (!in.ok()) continue;
    std::vector<uint8_t> bytes(in.ValueOrDie()->file_size());
    if (!bytes.empty()) {
      EXPECT_TRUE(in.ValueOrDie()->Read(bytes.data(), bytes.size()).ok());
    }
    image.emplace(name, std::move(bytes));
  }
  return image;
}

void RestoreDir(const std::string& dir, const DirImage& image) {
  auto names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : names.ValueOrDie()) {
    ASSERT_TRUE(RemoveFile(dir + "/" + name).ok());
  }
  for (const auto& [name, bytes] : image) {
    auto out = FileWriter::Create(dir + "/" + name);
    ASSERT_TRUE(out.ok());
    if (!bytes.empty()) {
      ASSERT_TRUE(out.ValueOrDie()->Write(bytes.data(), bytes.size()).ok());
    }
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }
}

/// One mutation of one on-disk file. Returns a description for diagnostics.
std::string MutateFile(const std::string& path, Rng* rng) {
  auto size_or = FileSize(path);
  if (!size_or.ok()) return "unreadable";
  const uint64_t size = size_or.ValueOrDie();
  char what[96];
  switch (rng->Below(4)) {
    case 0: {  // flip 1..8 random bytes
      if (size == 0) return "empty";
      std::vector<uint8_t> bytes(size);
      {
        auto in = FileReader::Open(path);
        if (!in.ok()) return "unreadable";
        if (!in.ValueOrDie()->Read(bytes.data(), size).ok()) {
          return "unreadable";
        }
      }
      const uint64_t flips = 1 + rng->Below(8);
      for (uint64_t f = 0; f < flips; ++f) {
        bytes[rng->Below(size)] ^=
            static_cast<uint8_t>(1 + rng->Below(255));
      }
      auto out = FileWriter::Create(path);
      if (!out.ok()) return "unwritable";
      (void)out.ValueOrDie()->Write(bytes.data(), size);
      (void)out.ValueOrDie()->Close();
      std::snprintf(what, sizeof(what), "flip x%llu",
                    static_cast<unsigned long long>(flips));
      return what;
    }
    case 1: {  // truncate to a random length
      const uint64_t cut = rng->Below(size + 1);
      (void)TruncateFile(path, cut);
      std::snprintf(what, sizeof(what), "truncate %llu -> %llu",
                    static_cast<unsigned long long>(size),
                    static_cast<unsigned long long>(cut));
      return what;
    }
    case 2: {  // duplicate a byte range in place (a doubled frame: replay
               // must not apply the same record — LSN — twice)
      if (size == 0) return "empty";
      std::vector<uint8_t> bytes(size);
      {
        auto in = FileReader::Open(path);
        if (!in.ok()) return "unreadable";
        if (!in.ValueOrDie()->Read(bytes.data(), size).ok()) {
          return "unreadable";
        }
      }
      const uint64_t off = rng->Below(size);
      const uint64_t len =
          1 + rng->Below(std::min<uint64_t>(size - off, 256));
      bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(off + len),
                   bytes.begin() + static_cast<ptrdiff_t>(off),
                   bytes.begin() + static_cast<ptrdiff_t>(off + len));
      auto out = FileWriter::Create(path);
      if (!out.ok()) return "unwritable";
      (void)out.ValueOrDie()->Write(bytes.data(), bytes.size());
      (void)out.ValueOrDie()->Close();
      std::snprintf(what, sizeof(what), "duplicate [%llu, +%llu)",
                    static_cast<unsigned long long>(off),
                    static_cast<unsigned long long>(len));
      return what;
    }
    default: {  // append garbage (a crash can leave arbitrary tail bytes)
      std::vector<uint8_t> junk(1 + rng->Below(96));
      for (auto& b : junk) b = static_cast<uint8_t>(rng->Below(256));
      std::vector<uint8_t> bytes(size);
      if (size > 0) {
        auto in = FileReader::Open(path);
        if (!in.ok()) return "unreadable";
        if (!in.ValueOrDie()->Read(bytes.data(), size).ok()) {
          return "unreadable";
        }
      }
      auto out = FileWriter::Create(path);
      if (!out.ok()) return "unwritable";
      if (size > 0) (void)out.ValueOrDie()->Write(bytes.data(), size);
      (void)out.ValueOrDie()->Write(junk.data(), junk.size());
      (void)out.ValueOrDie()->Close();
      std::snprintf(what, sizeof(what), "append %zu junk bytes",
                    junk.size());
      return what;
    }
  }
}

/// The fuzz loop shared by every schedule framing: write `schedule` once
/// (checkpoints every `merge_every` entries), snapshot the segment
/// directory, then mutate-and-reopen until the time budget (default 8 s,
/// DM_FUZZ_MS to override) or the iteration cap runs out — keeps the ctest
/// entry bounded under sanitizers while soaking longer locally via
/// DM_FUZZ_MS=60000. `base_seed` drives the mutation stream and prints on
/// every failure.
void RunWalFuzz(const std::vector<WriteOp>& schedule, uint64_t merge_every,
                uint64_t base_seed, const std::string& tag) {
  SCOPED_TRACE(::testing::Message() << "mutation base_seed=" << base_seed);
  const char* budget_env = std::getenv("DM_FUZZ_MS");
  const uint64_t budget_ms =
      budget_env != nullptr && *budget_env != '\0'
          ? std::strtoull(budget_env, nullptr, 10)
          : 8000;
  const uint64_t max_iters = 400;
  const PartitionedPlan plan =
      PlanPartitionedSchedule(schedule, kUnboundedCapacity);
  ASSERT_EQ(plan.planned_records.size(), 1u);

  TortureScratchDir dir(tag);
  const std::string seg_dir = dir.path() + "/seg-000000";
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  // Replay LSN of the newest installed checkpoint: the records below it
  // are checkpoint-covered history.
  uint64_t checkpoint_lsn = 0;
  {
    auto opened = DurablePartitionedTable::Open(
        dir.path(), TortureSchema(), kUnboundedCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteScheduleOptions sched_options;
    sched_options.merge_every = merge_every;
    RunWriteSchedule(&opened.ValueOrDie()->table(), schedule, sched_options);
    const persist::DurabilityManager& durability =
        opened.ValueOrDie()->durable_segment(0).durability();
    EXPECT_GE(durability.checkpoints_written(), 1u);
    checkpoint_lsn = durability.installed_replay_lsn();
  }
  const DirImage pristine = SnapshotDir(seg_dir);
  ASSERT_GE(pristine.size(), 2u);  // >= 1 checkpoint + >= 1 WAL segment

  Rng rng(base_seed);
  uint64_t opened_ok = 0, refused = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t iter = 0; iter < max_iters; ++iter) {
    if (std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() > static_cast<int64_t>(budget_ms)) {
      break;
    }
    RestoreDir(seg_dir, pristine);
    if (::testing::Test::HasFatalFailure()) return;

    // 1..3 mutations, each on a random file of the image.
    std::vector<std::string> names;
    for (const auto& [name, bytes] : pristine) names.push_back(name);
    const uint64_t mutations = 1 + rng.Below(3);
    std::string what;
    for (uint64_t m = 0; m < mutations; ++m) {
      const std::string& victim = names[rng.Below(names.size())];
      what += victim + ": " + MutateFile(seg_dir + "/" + victim, &rng) + "; ";
    }

    auto reopened = DurablePartitionedTable::Open(
        dir.path(), TortureSchema(), kUnboundedCapacity, options);
    if (!reopened.ok()) {
      // Refusing loudly is a legal outcome (e.g. the only checkpoint is
      // corrupt and its history already dropped). Silently wrong is not.
      ++refused;
      continue;
    }
    ++opened_ok;
    const auto& dt = *reopened.ValueOrDie();
    ASSERT_EQ(dt.recovery().segments.size(), 1u);
    const uint64_t lsn = dt.recovery().segments[0].recovered_lsn;
    ASSERT_LE(lsn, plan.planned_records[0]) << "iter " << iter << ": " << what;
    // A successful open means some checkpoint validated, and mutations can
    // only reach the surviving (post-checkpoint) files — so the
    // checkpoint-covered history (records below its replay LSN) must be
    // fully present.
    ASSERT_GE(lsn + 1, checkpoint_lsn) << "iter " << iter << ": " << what;
    const ReferenceModel model = PartitionedRecoveredModel(plan, {lsn});
    ExpectTableMatchesModel(dt.table(), model, /*seed=*/iter);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "iter " << iter << " mutations: " << what
                    << " recovered_lsn=" << lsn;
      return;
    }
  }
  // The run must have exercised both outcomes to mean anything.
  EXPECT_GT(opened_ok, 0u);
  EXPECT_GT(opened_ok + refused, 20u);
  std::printf("wal_fuzz[%s]: %llu recovered, %llu refused\n", tag.c_str(),
              static_cast<unsigned long long>(opened_ok),
              static_cast<unsigned long long>(refused));
}

TEST(WalFuzzTest, MutatedSegmentsAlwaysRecoverAValidPrefixOrFailLoudly) {
  const uint64_t kOps = 500;
  const uint64_t kBatch = 32;
  const uint64_t kMergeEvery = 120;  // entries; produces real checkpoints
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, kOps, kTortureKeyDomain, /*seed=*/0xf522);
  SCOPED_TRACE("schedule seed=0xf522");
  RunWalFuzz(CoalesceInsertBatches(ops, kBatch), kMergeEvery,
             /*base_seed=*/0xfa22ed, "fuzz");
}

TEST(WalFuzzTest, MutatedTxnCommitFramesReplayWholeOrVanishWhole) {
  // The kTxnCommit seeds: a schedule dominated by multi-row transaction
  // frames, mutated every way the fuzzer knows (including range
  // duplication, which doubles whole commit frames — replay must not
  // apply an LSN twice). A bit-flipped, truncated, or duplicated commit
  // record must contribute all of its ops or none: the differential
  // against the model at the plan's record-boundary prefix fails on any
  // row-prefix application.
  const uint64_t kOps = 500;
  const uint64_t kMergeEvery = 120;
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, kOps, kTortureKeyDomain, /*seed=*/0x7a22);
  SCOPED_TRACE("schedule seed=0x7a22");
  RunWalFuzz(GroupIntoTransactions(ops, /*max_txn_ops=*/6, 0x7a22),
             kMergeEvery, /*base_seed=*/0x7a22edULL, "txnfuzz");
}

}  // namespace
}  // namespace deltamerge
