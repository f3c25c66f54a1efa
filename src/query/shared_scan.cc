// Copyright (c) 2026 The DeltaMerge Authors.

#include "query/shared_scan.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "simd/simd_kernels.h"
#include "storage/packed_vector.h"
#include "util/macros.h"

namespace deltamerge::query {
namespace {

// Boarding window: a fresh leader that saw sharing on the column's previous
// sweep briefly holds the car at the platform before taking the pending
// list. Without it, batch sizes oscillate around N/2 under N steady
// readers: when a sweep serving batch B finishes, the other N-B readers'
// pending list is claimed immediately, while the B just-served readers
// re-enroll a moment later and must ride the car after next. The window
// merges the two half-batches. It only arms when the previous sweep
// actually shared (last_batch > 1) and the column is big enough that the
// wait is a small fraction of the sweep (solo queries and small columns
// never pay it).
constexpr uint64_t kBoardingMinTuples = 2'000'000;

uint64_t BoardingWindowUs(uint64_t tuples) {
  // ~200us against a multi-ms sweep, scaled down for columns near the
  // threshold so the window stays under ~10% of the sweep itself.
  return std::min<uint64_t>(200, tuples / 20'000);
}

}  // namespace

uint64_t ScanGate::Count(size_t col, const PackedScanSpec& spec) {
  if (!spec.match || spec.tuples == 0 || spec.c_hi < spec.c_lo) return 0;
  DM_DCHECK(spec.codes != nullptr);

  Enrollee self;
  self.lo = spec.c_lo;
  self.hi = spec.c_hi;

  mu_.lock();
  {
    ColumnState& st = StateFor(col);
    if (st.gen != spec.codes || st.tuples != spec.tuples) {
      if (st.sweeping || !st.pending.empty()) {
        // Another generation's batch is in flight; we can't adopt the slot
        // without orphaning its enrollees. Solo scan instead.
        ++stats_.bypasses;
        mu_.unlock();
        return CountMain(spec, nullptr);
      }
      st.gen = spec.codes;
      st.tuples = spec.tuples;
    }
    st.pending.push_back(&self);
  }

  // NOTE: cols_ references are invalid across any unlock or Wait (rehash by
  // other threads) — re-fetch through StateFor every iteration.
  while (!self.done) {
    if (StateFor(col).sweeping) {
      cv_.Wait(mu_);
      continue;
    }

    // Become leader: claim the car first (sweeping = true keeps rival
    // leaders out and routes new same-generation arrivals into pending),
    // optionally hold it for the boarding window, then take the WHOLE
    // pending list (self included) so nobody queued during the previous
    // sweep starves, and sweep outside the lock.
    std::vector<Enrollee*> batch;
    const PackedVector* sweep_codes = nullptr;
    uint64_t sweep_tuples = 0;
    bool board = false;
    {
      ColumnState& st = StateFor(col);
      st.sweeping = true;
      board = st.last_batch > 1 && st.tuples >= kBoardingMinTuples;
      sweep_tuples = st.tuples;
    }
    if (board) {
      mu_.unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(BoardingWindowUs(sweep_tuples)));
      mu_.lock();
    }
    {
      ColumnState& st = StateFor(col);
      batch.swap(st.pending);
      sweep_codes = st.gen;
      sweep_tuples = st.tuples;
    }
    mu_.unlock();

    std::vector<uint64_t> counts(batch.size(), 0);
    if (batch.size() == 1) {
      // A solo sweep runs the same kernel selection as an ungated count.
      counts[0] = CountMain(PackedScanSpec{sweep_codes, sweep_tuples,
                                           batch[0]->lo, batch[0]->hi, true},
                            nullptr);
    } else {
      std::vector<simd::CodeRange> preds(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        preds[i] = simd::CodeRange{batch[i]->lo, batch[i]->hi};
      }
      simd::MultiCountRangePacked(*sweep_codes, 0, sweep_tuples, preds,
                                  counts.data());
    }

    mu_.lock();
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i]->result = counts[i];
      batch[i]->done = true;
    }
    {
      ColumnState& st = StateFor(col);
      st.sweeping = false;
      st.last_batch = batch.size();
    }
    ++stats_.sweeps;
    stats_.queries_served += batch.size();
    if (batch.size() > 1) stats_.shared_queries += batch.size();
    cv_.NotifyAll();
    // self.done is now true (self rode its own sweep) — loop exits.
  }

  const uint64_t result = self.result;
  mu_.unlock();
  return result;
}

ScanGate::Stats ScanGate::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace deltamerge::query
