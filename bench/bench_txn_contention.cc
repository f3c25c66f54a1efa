// Copyright (c) 2026 The DeltaMerge Authors.
// Optimistic-transaction contention (PR 8/9): N writer threads race
// multi-row transactions, in three modes selected by DM_MODE (default:
// all three, in order):
//
//   hot       PartitionedTable with one unbounded segment (the monolithic
//             shape). Writers fight over a small hot window of the newest
//             rows: observe valid (readset entry), update the first two
//             still-valid probes, blind-insert one row. Every collision is
//             decided by readset validation under the commit lock — first
//             updater wins, the loser aborts.
//   disjoint  PartitionedTable, one pre-sealed segment per writer. Each
//             transaction claims (reads-valid then deletes) two rows of
//             its own segment — a sealed-only, single-segment commit that
//             validates and applies entirely under that segment's commit
//             lock. The PR 9 scaling headline: commits/s should rise
//             near-linearly with writers at an identical (zero) abort
//             rate, because disjoint committers share no lock.
//   overlap   PartitionedTable, every writer probes the SAME sealed
//             segment with random claim transactions. The control: all
//             commits serialize on one segment commit lock and races are
//             resolved exactly as the single-table protocol resolves them
//             (first updater wins), so the abort-vs-throughput trade must
//             match the hot mode's shape.
//
// Reported per writer count (1/2/4/8): committed transactions/s, aborts,
// and the abort rate — the optimistic protocol's core trade.
//
// Knobs: DM_SCALE / DM_THREADS (bench_common.h), DM_MODE (hot | disjoint
// | overlap, default all), DM_HOT (hot-window rows, default 64), DM_TXNS
// (paper-scale transaction count before DM_SCALE, default 1M).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/partitioned_table.h"
#include "util/random.h"

namespace deltamerge::bench {
namespace {

constexpr uint64_t kPaperTxns = 1'000'000;
constexpr uint64_t kPaperPreloadRows = 1'000'000;
constexpr uint64_t kKeyDomain = 1 << 20;

struct ContentionResult {
  int writers = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  double seconds = 0;

  double commits_per_second() const {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0;
  }
  double abort_rate() const {
    const uint64_t attempts = commits + aborts;
    return attempts > 0 ? static_cast<double>(aborts) /
                              static_cast<double>(attempts)
                        : 0;
  }
};

void Report(const char* mode, const ContentionResult& r, uint64_t skipped) {
  std::printf("%9s %7d %12llu %10llu %10llu %12.0f %10.3f\n", mode,
              r.writers, static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.aborts),
              static_cast<unsigned long long>(skipped), r.commits_per_second(),
              r.abort_rate());

  char json[320];
  std::snprintf(json, sizeof(json),
                "\"bench\":\"txn_contention\",\"mode\":\"%s\",\"writers\":%d,"
                "\"commits\":%llu,\"aborts\":%llu,"
                "\"commits_per_s\":%.0f,\"abort_rate\":%.4f",
                mode, r.writers, static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.aborts),
                r.commits_per_second(), r.abort_rate());
  AppendJsonResult(json);
}

ContentionResult RunConfig(const BenchConfig& cfg, int writers,
                           uint64_t total_txns, uint64_t hot_window) {
  Schema schema;
  schema.columns = {{8, "a"}, {8, "b"}, {8, "c"}};
  PartitionedTable table(schema, std::numeric_limits<uint64_t>::max());

  const uint64_t preload = cfg.Scaled(kPaperPreloadRows);
  {
    Rng rng(42);
    std::vector<uint64_t> keys(3);
    for (uint64_t i = 0; i < preload; ++i) {
      for (auto& k : keys) k = rng.Below(kKeyDomain);
      table.InsertRow(keys);
    }
  }

  const uint64_t per_writer =
      (total_txns + static_cast<uint64_t>(writers) - 1) /
      static_cast<uint64_t>(writers);
  std::atomic<uint64_t> skipped{0};  // hot row already dead at read time

  const uint64_t t0 = CycleClock::Now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writers));
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0xc0117e5d + static_cast<uint64_t>(w) * 7919);
      std::vector<uint64_t> keys(3);
      constexpr uint64_t kReadsPerTxn = 8;
      for (uint64_t i = 0; i < per_writer; ++i) {
        // Observe kReadsPerTxn of the newest rows — the hot window every
        // writer fights over — then update the first two still valid and
        // append one fresh row. A wide readset is what makes the
        // optimistic trade visible: ANY observed row superseded by a
        // racing commit before ours aborts the whole transaction.
        const uint64_t n = table.num_rows();
        const uint64_t window = hot_window < n ? hot_window : n;

        auto txn = table.BeginTransaction();
        uint64_t valid_rows[kReadsPerTxn];
        uint64_t num_valid = 0;
        for (uint64_t j = 0; j < kReadsPerTxn; ++j) {
          const uint64_t row = n - window + rng.Below(window);
          if (txn.ReadRowValid(row)) valid_rows[num_valid++] = row;
        }
        if (num_valid == 0) {
          // Racing commits already superseded every probe; not a
          // validation abort.
          txn.Abort();
          skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (uint64_t j = 0; j < num_valid && j < 2; ++j) {
          for (auto& k : keys) k = rng.Below(kKeyDomain);
          txn.Update(valid_rows[j], keys);
        }
        for (auto& k : keys) k = rng.Below(kKeyDomain);
        txn.Insert(keys);
        (void)txn.Commit();  // aborts are tallied in table.txn_stats()
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t elapsed = CycleClock::Now() - t0;

  const Table::TxnStats stats = table.txn_stats();
  ContentionResult r;
  r.writers = writers;
  r.commits = stats.commits;
  r.aborts = stats.aborts;
  r.seconds = static_cast<double>(elapsed) / CycleClock::FrequencyHz();
  Report("hot", r, skipped.load());
  return r;
}

// Partitioned claim workload (PR 9): every transaction reads two rows
// valid and deletes them — a sealed-only commit whose entire validate +
// apply runs under the owning segment's commit lock, never touching
// tail_mu_. `disjoint` pins writer w to its own pre-sealed segment
// (deterministic claims, zero conflicts — the parallel-commit scaling
// measurement); otherwise every writer probes random rows of segment 0
// (all commits serialize on one commit lock and collisions abort by
// first-updater-wins — the overlap control).
ContentionResult RunPartitionedConfig(const BenchConfig& cfg, int writers,
                                      uint64_t total_txns, bool disjoint) {
  Schema schema;
  schema.columns = {{8, "a"}, {8, "b"}, {8, "c"}};

  const uint64_t per_writer =
      (total_txns + static_cast<uint64_t>(writers) - 1) /
      static_cast<uint64_t>(writers);
  // Two claimable rows per transaction. Disjoint seals one such segment
  // per writer; overlap seals ONE segment sized for the whole run and
  // points every writer at it.
  const uint64_t capacity =
      disjoint ? 2 * per_writer : 2 * per_writer * static_cast<uint64_t>(writers);
  const uint64_t preload = disjoint ? capacity * static_cast<uint64_t>(writers)
                                    : capacity;
  PartitionedTable table(schema, capacity);
  {
    Rng rng(42);
    std::vector<uint64_t> keys(3);
    for (uint64_t i = 0; i < preload; ++i) {
      for (auto& k : keys) k = rng.Below(kKeyDomain);
      table.InsertRow(keys);
    }
  }

  std::atomic<uint64_t> skipped{0};  // every probed row already claimed

  const uint64_t t0 = CycleClock::Now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writers));
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0x9e3779b9 + static_cast<uint64_t>(w) * 7919);
      const uint64_t base = disjoint ? static_cast<uint64_t>(w) * capacity : 0;
      for (uint64_t i = 0; i < per_writer; ++i) {
        auto txn = table.BeginTransaction();
        uint64_t claims[2];
        uint64_t num_claims = 0;
        if (disjoint) {
          // Deterministic sequential claims inside the writer's own
          // segment: always valid, never contended.
          claims[num_claims++] = base + 2 * i;
          claims[num_claims++] = base + 2 * i + 1;
          (void)txn.ReadRowValid(claims[0]);
          (void)txn.ReadRowValid(claims[1]);
        } else {
          // Random probes over the shared segment; claim the first two
          // still-valid rows. Racing claimers of the same row both pass
          // the read — validation under the commit lock picks the winner.
          for (uint64_t j = 0; j < 8 && num_claims < 2; ++j) {
            const uint64_t row = rng.Below(preload);
            if (txn.ReadRowValid(row)) claims[num_claims++] = row;
          }
          if (num_claims == 0) {
            txn.Abort();
            skipped.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        }
        for (uint64_t j = 0; j < num_claims; ++j) txn.Delete(claims[j]);
        (void)txn.Commit();  // aborts are tallied in table.txn_stats()
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t elapsed = CycleClock::Now() - t0;

  const Table::TxnStats stats = table.txn_stats();
  ContentionResult r;
  r.writers = writers;
  r.commits = stats.commits;
  r.aborts = stats.aborts;
  r.seconds = static_cast<double>(elapsed) / CycleClock::FrequencyHz();
  Report(disjoint ? "disjoint" : "overlap", r, skipped.load());
  (void)cfg;
  return r;
}

void Run() {
  const BenchConfig cfg = BenchConfig::FromEnv();
  PrintHeader("Optimistic transaction contention: aborts vs. throughput",
              cfg);
  const uint64_t total_txns = cfg.Scaled(EnvU64("DM_TXNS", kPaperTxns));
  const uint64_t hot_window = EnvU64("DM_HOT", 64);
  const char* mode_env = std::getenv("DM_MODE");
  const std::string mode = mode_env == nullptr ? "" : mode_env;
  std::printf("txns/config=%s  hot_window=%llu rows  modes=%s\n",
              HumanCount(total_txns).c_str(),
              static_cast<unsigned long long>(hot_window),
              mode.empty() ? "hot,disjoint,overlap" : mode.c_str());
  std::printf("%9s %7s %12s %10s %10s %12s %10s\n", "mode", "writers",
              "commits", "aborts", "skipped", "commits/s", "abort-rate");

  for (const int writers : {1, 2, 4, 8}) {
    if (mode.empty() || mode == "hot") {
      RunConfig(cfg, writers, total_txns, hot_window);
    }
    if (mode.empty() || mode == "disjoint") {
      RunPartitionedConfig(cfg, writers, total_txns, /*disjoint=*/true);
    }
    if (mode.empty() || mode == "overlap") {
      RunPartitionedConfig(cfg, writers, total_txns, /*disjoint=*/false);
    }
  }
}

}  // namespace
}  // namespace deltamerge::bench

int main() {
  deltamerge::bench::Run();
  return 0;
}
