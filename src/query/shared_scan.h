// Copyright (c) 2026 The DeltaMerge Authors.
// Cooperative scan sharing: concurrent snapshot queries that sweep the SAME
// immutable main partition enroll their predicates at a per-column gate
// instead of each sweeping alone. One enrollee becomes the sweep leader,
// evaluates every enrolled predicate per unpacked 8-code block in a single
// pass (simd::MultiCountRangePacked), and wakes the others with their
// answers — N readers, one trip through memory. This is the cooperative
// scans idea (Zukowski et al., PVLDB 2007 lineage) specialized to the
// DeltaMerge read path, where it is unusually clean: a snapshot's main
// partition is immutable and epoch-pinned, so enrolled queries never chase
// a moving target and the shared sweep needs no versioning of its own.
//
// Protocol (the "elevator"): an arriving query enrolls into the column's
// pending list. If no sweep is in flight, it elects itself leader, takes
// the ENTIRE pending list (not just itself — enrollees queued during the
// previous sweep must ride the next car, not starve), and sweeps outside
// the lock. Queries arriving mid-sweep enroll and wait; the first waiter to
// observe the sweep finish becomes the next leader, again taking the whole
// pending list. A fresh leader whose column shared on the previous sweep
// briefly holds the car before taking the pending list (the "boarding
// window", ~200us on multi-million-tuple columns): without it, batch sizes
// under N steady readers oscillate around N/2, because the just-served
// readers re-enroll moments after the next leader has already departed.
// Solo queries and small columns never pay the window. A query whose
// main-partition generation (PackedVector
// identity + tuple count) differs from the one in flight cannot share that
// sweep and bypasses with a solo kernel scan — never blocking on, or
// corrupting, the other generation's batch.
//
// Generation identity is pointer equality, which is ABA-safe here: every
// enrollee holds an epoch pin on its snapshot, so the main partitions of
// all concurrently enrolled queries are live objects — equal addresses of
// live objects imply the same partition. A stale cached pointer that a NEW
// arrival happens to match (old partition freed, new one at the same
// address) is also benign: the sweep reads through the arrival's own
// (live) pointer.
//
// The gate is a Table-lifetime singleton (Table owns one; PartitionedTable
// segments each own their table's). It holds no partition references of its
// own between sweeps beyond the raw generation tag, and it never outlives
// the epoch pins of the queries using it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "query/range_select.h"
#include "util/thread_annotations.h"

namespace deltamerge::query {

/// Per-table scan gate. Thread-safe; all methods callable concurrently.
class ScanGate {
 public:
  struct Stats {
    uint64_t sweeps = 0;          ///< physical passes over a main partition
    uint64_t queries_served = 0;  ///< enrollments answered by those passes
    uint64_t shared_queries = 0;  ///< enrollments whose pass served > 1
    uint64_t bypasses = 0;        ///< generation-mismatch solo scans
  };

  ScanGate() = default;
  ScanGate(const ScanGate&) = delete;
  ScanGate& operator=(const ScanGate&) = delete;

  /// COUNT of tuples in [0, spec.tuples) of *spec.codes whose code lies in
  /// [spec.c_lo, spec.c_hi] — answered by a shared sweep when compatible
  /// concurrent queries exist, by CountMain (range_select.h) when the query
  /// sweeps alone. Blocks until the answer is available (one sweep's
  /// latency at most). The caller must keep *spec.codes alive across the
  /// call (snapshot epoch pin).
  uint64_t Count(size_t col, const PackedScanSpec& spec);

  Stats stats() const;

 private:
  /// One parked query. Stack-allocated by Count; the leader writes
  /// result/done under mu_, the owner reads them under mu_.
  struct Enrollee {
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint64_t result = 0;
    bool done = false;
  };

  /// Sweep state of one column slot.
  struct ColumnState {
    const PackedVector* gen = nullptr;  ///< generation tag (see header)
    uint64_t tuples = 0;
    bool sweeping = false;
    size_t last_batch = 1;  ///< size of the most recent sweep's batch; > 1
                            ///< arms the next leader's boarding window
    std::vector<Enrollee*> pending;  ///< enrolled, not yet taken by a leader
  };

  ColumnState& StateFor(size_t col) DM_REQUIRES(mu_) { return cols_[col]; }

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<size_t, ColumnState> cols_ DM_GUARDED_BY(mu_);
  Stats stats_ DM_GUARDED_BY(mu_);
};

}  // namespace deltamerge::query
