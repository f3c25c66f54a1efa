// Copyright (c) 2026 The DeltaMerge Authors.
// History & audit: the payoff of the insert-only design (§3).
//
// "We chose this concept because ... the insert-only approach allows queries
// to also work on the history of data." (§3)
//
// An account-balance table receives a stream of updates. Because updates are
// new inserts and deletes only invalidate, every superseded version remains
// addressable after any number of merges — this example reconstructs an
// account's full change history and runs an audit (sum of valid balances)
// that stays consistent across merge cycles. It uses the horizontally
// partitioned table (§9 extension) so the periodic merges stay bounded.
//
// Usage: ./build/examples/history_audit  (env: DM_SCALE)

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "deltamerge.h"

using namespace deltamerge;

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback
                                      : std::strtoull(v, nullptr, 10);
}

}  // namespace

int main() {
  const uint64_t scale = EnvU64("DM_FULL", 0) ? 1 : EnvU64("DM_SCALE", 25);
  const uint64_t accounts = 200'000 / (scale == 0 ? 1 : scale) + 10;
  const uint64_t updates = 2'000'000 / (scale == 0 ? 1 : scale);

  // Columns: account id, balance, version counter.
  Schema schema;
  schema.columns = {{8, "account"}, {8, "balance"}, {8, "version"}};
  PartitionedTable ledger(schema, /*segment_capacity=*/updates / 8 + 16);

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.02;
  policy.min_delta_rows = 1024;
  TableMergeOptions merge_options;

  // Track the current row of each account plus a reference balance sheet.
  // Validity now lives in the table itself: UpdateRow routes the fresh
  // version to the tail segment and invalidates the superseded global row.
  std::map<uint64_t, uint64_t> current_row;
  std::map<uint64_t, uint64_t> reference_balance;

  Rng rng(20260611);
  uint64_t merges = 0;
  std::printf("replaying %llu balance updates over %llu accounts...\n",
              (unsigned long long)updates, (unsigned long long)accounts);
  for (uint64_t i = 0; i < updates; ++i) {
    const uint64_t account = rng.Below(accounts);
    const uint64_t balance = rng.Below(1'000'000);
    uint64_t row;
    if (auto it = current_row.find(account); it != current_row.end()) {
      const uint64_t version = ledger.GetKey(2, it->second) + 1;
      row = ledger.UpdateRow(it->second, {account, balance, version});
    } else {
      row = ledger.InsertRow({account, balance, 0});
    }
    current_row[account] = row;
    reference_balance[account] = balance;

    if (i % 4096 == 0) {
      const PartitionedMergeReport r =
          ledger.MergeDueSegments(policy, merge_options);
      if (r.segments_merged > 0) ++merges;
    }
  }
  ledger.MergeAll(merge_options);
  ++merges;

  std::printf("done: %llu rows across %zu segments, %llu merge rounds\n",
              (unsigned long long)ledger.num_rows(), ledger.num_segments(),
              (unsigned long long)merges);

  // --- audit: the valid versions must reproduce the reference balances ---
  unsigned __int128 expected = 0;
  for (const auto& [account, balance] : reference_balance) {
    expected += balance;
  }
  unsigned __int128 audited = 0;
  uint64_t valid_rows = 0;
  for (uint64_t row = 0; row < ledger.num_rows(); ++row) {
    if (ledger.IsRowValid(row)) {
      audited += ledger.GetKey(1, row);
      ++valid_rows;
    }
  }
  std::printf("audit: %llu live versions, balance sheet %s (%llu)\n",
              (unsigned long long)valid_rows,
              audited == expected ? "MATCHES" : "MISMATCH",
              (unsigned long long)static_cast<uint64_t>(audited));
  if (audited != expected) return 1;

  // --- history: reconstruct one account's version chain post-merge ---
  const uint64_t probe = accounts / 2;
  std::printf("\nhistory of account %llu (every version survives the "
              "merges):\n",
              (unsigned long long)probe);
  uint64_t versions = 0;
  for (uint64_t row = 0; row < ledger.num_rows(); ++row) {
    if (ledger.GetKey(0, row) == probe) {
      std::printf("  version %llu: balance %llu%s\n",
                  (unsigned long long)ledger.GetKey(2, row),
                  (unsigned long long)ledger.GetKey(1, row),
                  ledger.IsRowValid(row) ? "  <- current" : "");
      ++versions;
      if (versions >= 12) {
        std::printf("  ... (%s more)\n", "output truncated; all versions remain queryable");
        break;
      }
    }
  }
  if (versions == 0) {
    std::printf("  (account %llu saw no updates in this run)\n",
                (unsigned long long)probe);
  }
  return 0;
}
