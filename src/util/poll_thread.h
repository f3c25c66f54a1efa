// Copyright (c) 2026 The DeltaMerge Authors.
// PollThread: the shared background poll-loop harness.
//
// Two subsystems poll a condition on a cadence and want identical
// lifecycle semantics: PartitionedMergeDaemon (§4's merge trigger) and the
// WAL's interval-sync thread. Both need the same fiddly details — a Nudge
// that actually shortcuts the wait (a predicate flag, not a bare notify)
// and a Stop that tolerates concurrent stoppers racing the destructor — so
// the harness lives here once and the poll body is a callback.
//
// The body runs with no PollThread lock held, so it may freely call back
// into Nudge() and block for as long as it likes (a merge body, an
// fdatasync); Stop() waits for an in-flight body to finish.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/macros.h"
#include "util/thread_annotations.h"

namespace deltamerge {

class PollThread {
 public:
  /// `body` is invoked once per poll (every `interval_us`, or immediately
  /// after a Nudge) while started.
  PollThread(uint64_t interval_us, std::function<void()> body);
  ~PollThread();

  DM_DISALLOW_COPY_AND_MOVE(PollThread);

  /// Spawns the poll thread; no-op if already running. Restartable after
  /// Stop().
  void Start() DM_EXCLUDES(join_mu_, mu_);

  /// Stops and joins the thread; an in-flight body completes first. Safe to
  /// call concurrently (e.g. an explicit Stop racing the destructor) —
  /// exactly one caller joins, the rest wait for the join to finish.
  void Stop() DM_EXCLUDES(join_mu_, mu_);

  /// Wakes the poller immediately instead of at the next interval tick.
  void Nudge() DM_EXCLUDES(mu_);

  bool running() const DM_EXCLUDES(mu_);

  /// Poll iterations since construction.
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

 private:
  void Loop() DM_EXCLUDES(mu_);

  const uint64_t interval_us_;
  const std::function<void()> body_;

  // Lock order: join_mu_ before mu_ (Start takes both; the poll loop only
  // ever takes mu_, so the join never deadlocks against a ticking poller).
  Mutex join_mu_;  ///< serializes concurrent Stop() calls on join
  mutable Mutex mu_ DM_ACQUIRED_AFTER(join_mu_);
  CondVar wake_;
  bool stop_requested_ DM_GUARDED_BY(mu_) = false;
  bool nudged_ DM_GUARDED_BY(mu_) = false;
  bool running_ DM_GUARDED_BY(mu_) = false;
  std::thread thread_ DM_GUARDED_BY(join_mu_);
  std::atomic<uint64_t> polls_{0};
};

}  // namespace deltamerge
