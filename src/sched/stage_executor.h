#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/pipeline/stage_stats.h"
#include "src/sched/task_queue.h"
#include "src/sched/worker_pool.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// The one stage executor of the pipeline task graph, shared by its two
/// clients: StealingEngine (training: the forward+backward graph, one pool
/// generation per minibatch) and serve::PipelineServer (serving: the
/// forward-only graph, one generation per serving session). It owns
///  - one TaskQueue of ready tasks per stage, fed through push();
///  - the WorkerPool, with stage s *home* to worker s mod W;
///  - the acquire rule: pop from the home stages, then steal along the
///    client's victim order (or steal first). A task of a stage the worker
///    is not home to counts as stolen, whichever scan found it;
///  - the per-stage and per-worker StageStats counters;
///  - the park loop, with an optional timed wake-up and the `pop_wait`
///    bubble span (category `sched`).
/// Readiness, admission and what "finished" means stay with the client,
/// under the client's own lock, behind three hooks.
///
/// Wake-up protocol. The executor's mutex guards only a push version. A
/// worker reads the version, *then* asks the client whether the generation
/// is finished, then scans the queues; finding nothing, it parks until the
/// version moves. push() bumps the version, and a client that changes
/// state a parked worker must see (its last task completed, a slot freed,
/// a stop) calls notify() *after* the change. Either the worker's
/// finished() read sees the change, or the bump follows its version read
/// and the park returns at once: no wake-up is slept through. Lock order
/// is client lock -> executor lock; no hook runs under the executor lock.
class StageExecutor {
 public:
  using Clock = std::chrono::steady_clock;
  using StageStats = pipeline::StageStats;

  struct Client {
    /// Runs `task` on `worker` (`stolen`: not the stage's home worker) and
    /// returns the busy nanoseconds charged to the stage and the worker.
    /// Must not throw; clients record failures themselves.
    std::function<std::uint64_t(int worker, const Task& task, bool stolen)> execute;
    /// True once the open generation has no work left and will get none.
    std::function<bool()> finished;
    /// Optional, called when no task is ready anywhere: may push work, and
    /// returns how long the worker may park before calling it again (max:
    /// until the next push or notify(); zero or less: rescan at once).
    std::function<Clock::duration()> idle;
  };

  /// Spawns `workers` parked workers over `stages` stage queues.
  StageExecutor(int stages, int workers, Client client);
  ~StageExecutor();

  StageExecutor(const StageExecutor&) = delete;
  StageExecutor& operator=(const StageExecutor&) = delete;

  int num_stages() const { return static_cast<int>(queues_.size()); }
  int num_workers() const { return pool_->size(); }

  /// The steal rule: victim stages in preference order (empty: never
  /// steal), and whether to scan them before the home stages. Set between
  /// generations; the pool barrier publishes it.
  void set_victims(const std::vector<int>& order, bool steal_first);

  /// Enqueues a ready task and wakes the parked workers.
  void push(Task task);
  /// Wakes the parked workers without a task: the client changed state
  /// that finished() or idle() reads.
  void notify();

  /// Runs one generation to completion (training's per-minibatch barrier);
  /// its `pop_wait` spans carry `trace_step`.
  void run(std::int64_t trace_step = -1);
  /// The halves of run() for a generation that lasts a serving session.
  void begin() { pool_->begin_generation(); }
  void wait() { pool_->wait_generation(); }

  /// Cumulative counters since construction or the last reset_stats():
  /// relaxed atomics, exact between generations, transiently skewed (never
  /// torn) while one runs. Waiting is worker-side, so stage w's
  /// pop_wait_ns is worker w's idle wait for w < min(W, P): exact per stage
  /// when W == P, and for W <= P the per-stage sum is the total worker idle.
  std::vector<StageStats> stage_stats() const;
  std::vector<StageStats> worker_stats() const;
  void reset_stats();

 private:
  /// Multi-writer for a stage (thieves of one stage run concurrently),
  /// single-writer for a worker; relaxed atomics either way so a serving
  /// client can read them mid-generation.
  struct Counters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> pop_wait_ns{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> stolen_items{0};
    std::atomic<std::uint64_t> stolen_ns{0};
  };

  void work(int worker);
  bool acquire(int worker, Task& out, bool& stolen);
  bool scan(const std::vector<int>& stages, bool steal, Task& out);
  void charge(int worker, const Task& task, bool stolen, std::uint64_t busy_ns);
  Counters& stage_counters(int s) { return counters_[static_cast<std::size_t>(s)]; }
  Counters& worker_counters(int w) {
    return counters_[static_cast<std::size_t>(num_stages() + w)];
  }
  std::vector<StageStats> snapshot(int first, int count) const;

  Client client_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;  ///< per stage
  std::vector<std::vector<int>> home_stages_;       ///< per worker
  std::vector<int> victims_;  ///< barrier-published, like trace_step_
  bool steal_first_ = false;
  std::int64_t trace_step_ = -1;
  std::vector<Counters> counters_;  ///< P stage slots, then W worker slots

  util::Mutex m_;
  util::CondVar cv_;
  std::uint64_t push_version_ GUARDED_BY(m_) = 0;

  std::unique_ptr<WorkerPool> pool_;  ///< last member: joins before teardown
};

}  // namespace pipemare::sched
