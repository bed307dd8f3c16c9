#pragma once

#include <cstddef>
#include <deque>

#include "src/obs/metrics.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// One ready unit of pipeline work: run the forward or backward pass of
/// microbatch `micro` through the modules of stage `stage`. Tasks carry no
/// payload — activations and gradients live in the engine's per-microbatch
/// flow slots — so a task is three ints and queue traffic is cheap.
struct Task {
  enum class Kind { Forward, Backward };
  Kind kind = Kind::Forward;
  int stage = 0;
  int micro = 0;
};

/// The per-stage deque of *ready* tasks the work-stealing runtime drains:
/// every stage owns one, its home worker pops from it, and idle workers
/// steal from the deque of the stage the StealPolicy names.
///
/// The layout follows the Chase-Lev work-stealing deque — one deque per
/// owner, owner and thieves operating on opposite preferences — with two
/// deliberate departures:
///
///  1. *Owner takes the oldest, not the newest.* Classic Chase-Lev owners
///     pop LIFO for cache locality of freshly spawned subtasks. Pipeline
///     tasks have an intrinsic microbatch order (the 1F1B wavefront moves
///     micro 0 first) and backwards are serialized per stage anyway, so a
///     LIFO owner would invert the wavefront for no benefit. Both ends pop
///     FIFO; what remains of Chase-Lev is the topology (one deque per
///     stage, thief-end discipline, steal = oldest).
///  2. *A small mutex instead of the lock-free CAS protocol.* Ready tasks
///     are produced by whichever worker completed the predecessor — a
///     multi-producer pattern the single-pusher Chase-Lev ring does not
///     support — and one task is a full layer-range forward/backward pass
///     (micro- to milliseconds), so queue ops are nowhere near the
///     critical path. The mutex also gives the scheduler its
///     happens-before edge for free: a flow slot written before push() is
///     visible to the worker that pop()s the task.
///
/// Priorities: the owner drains the backward lane first (backwards are the
/// serialized half of 1F1B whose completion slides the stage's admission
/// window); a thief prefers the oldest *forward* (forwards
/// of a stage are mutually independent, so they are the parallel-friendly
/// work worth moving to another core, and the backward chain stays warm on
/// whichever worker has been running it).
///
/// Both lanes are GUARDED_BY(m_): the multi-producer/multi-consumer
/// discipline is proven by a Clang -Wthread-safety build, not just by the
/// TSan CI job.
class TaskQueue {
 public:
  TaskQueue() = default;
  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  /// Enqueues a ready task (any worker; multi-producer).
  void push(Task t) {
    pushed_counter().add();
    util::MutexLock lock(m_);
    if (t.kind == Task::Kind::Backward) {
      bwd_.push_back(t);
    } else {
      fwd_.push_back(t);
    }
  }

  /// Home-worker pop: oldest backward first, then oldest forward.
  bool pop(Task& out) {
    util::MutexLock lock(m_);
    if (!bwd_.empty()) {
      out = bwd_.front();
      bwd_.pop_front();
      popped_counter().add();
      return true;
    }
    if (!fwd_.empty()) {
      out = fwd_.front();
      fwd_.pop_front();
      popped_counter().add();
      return true;
    }
    return false;
  }

  /// Thief pop: oldest forward first, then oldest backward.
  bool steal(Task& out) {
    util::MutexLock lock(m_);
    if (!fwd_.empty()) {
      out = fwd_.front();
      fwd_.pop_front();
      popped_counter().add();
      return true;
    }
    if (!bwd_.empty()) {
      out = bwd_.front();
      bwd_.pop_front();
      popped_counter().add();
      return true;
    }
    return false;
  }

  std::size_t size() const {
    util::MutexLock lock(m_);
    return fwd_.size() + bwd_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  // Process-global queue-traffic counters (one lookup per process, then a
  // relaxed fetch_add per op — a task is a full layer-range pass, so queue
  // traffic is far off the critical path).
  static obs::Counter& pushed_counter() {
    static obs::Counter& c =
        obs::MetricsRegistry::instance().counter("sched.tasks_pushed");
    return c;
  }
  static obs::Counter& popped_counter() {
    static obs::Counter& c =
        obs::MetricsRegistry::instance().counter("sched.tasks_popped");
    return c;
  }

  mutable util::Mutex m_;
  std::deque<Task> fwd_ GUARDED_BY(m_);
  std::deque<Task> bwd_ GUARDED_BY(m_);
};

}  // namespace pipemare::sched
