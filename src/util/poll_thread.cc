// Copyright (c) 2026 The DeltaMerge Authors.

#include "util/poll_thread.h"

#include <chrono>
#include <utility>

namespace deltamerge {

PollThread::PollThread(uint64_t interval_us, std::function<void()> body)
    : interval_us_(interval_us), body_(std::move(body)) {
  DM_CHECK_MSG(body_ != nullptr, "PollThread needs a poll body");
}

PollThread::~PollThread() { Stop(); }

void PollThread::Start() {
  // join_mu_ first (it guards thread_), then mu_ — the documented order.
  MutexLock join_lock(join_mu_);
  MutexLock lock(mu_);
  if (running_) return;
  stop_requested_ = false;
  nudged_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void PollThread::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.NotifyAll();
  // join_mu_ serializes concurrent stoppers: exactly one joins; the others
  // wait here until the poller has terminated, then see it already joined.
  {
    MutexLock join_lock(join_mu_);
    if (thread_.joinable()) thread_.join();
  }
  MutexLock lock(mu_);
  running_ = false;
}

void PollThread::Nudge() {
  {
    MutexLock lock(mu_);
    nudged_ = true;  // makes the wait predicate true — notify alone would
                     // just re-enter the wait until the poll deadline
  }
  wake_.NotifyAll();
}

bool PollThread::running() const {
  MutexLock lock(mu_);
  return running_;
}

void PollThread::Loop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(interval_us_);
      while (!stop_requested_ && !nudged_) {
        if (wake_.WaitUntil(mu_, deadline)) break;  // interval tick
      }
      nudged_ = false;
      if (stop_requested_) return;
      polls_.fetch_add(1, std::memory_order_relaxed);
    }
    body_();
  }
}

}  // namespace deltamerge
