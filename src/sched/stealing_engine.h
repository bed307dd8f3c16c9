#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/config.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/stage_stats.h"
#include "src/pipeline/weight_versions.h"
#include "src/sched/steal_policy.h"
#include "src/sched/task_queue.h"
#include "src/sched/worker_pool.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// Configuration of the work-stealing runtime: the shared pipeline
/// EngineConfig plus the scheduler knobs (registered with the
/// core::BackendRegistry as "threaded_steal" via core::StealOptions; the
/// "threaded" preset fixes workers = num_stages, mode = Disabled).
struct StealConfig {
  pipeline::EngineConfig engine;
  int workers = 0;          ///< worker threads; 0 = min(cores, num_stages)
  StealMode mode = StealMode::LoadAware;
  bool record_log = false;  ///< keep the per-step steal log (the
                            ///< deterministic modes log regardless)
};

/// One recorded steal: worker `worker` executed a task of stage `stage`
/// (whose home worker it is not) during optimizer step `step`.
struct StealRecord {
  std::int64_t step = 0;
  int worker = 0;
  int stage = 0;
  int micro = 0;
  Task::Kind kind = Task::Kind::Forward;
};

/// Work-stealing pipeline-parallel execution, registered with the
/// core::BackendRegistry twice: as "threaded_steal" (the StealOptions
/// knobs) and as the "threaded" preset (W = P workers, StealMode::Disabled:
/// stage-per-thread 1F1B). Instead of pinning one thread per stage, W
/// workers — W chosen independently of P — drain per-stage TaskQueue
/// deques of *ready* forward/backward microbatch tasks, and an idle worker
/// steals the oldest ready task from the stage the StealPolicy ranks
/// busiest (seeded from the partition cost model's predicted stage costs,
/// re-ranked between minibatches from the observed per-stage busy
/// counters). Stage s is *home* to worker s mod W; any other worker
/// executing its tasks is a thief, counted in the stolen_items / stolen_ns
/// stats and (in the deterministic modes or with record_log) appended to
/// the steal log.
///
/// 1F1B admission (every mode): Forward(s, m) is admissible only while
/// m - next_bwd[s] < max(1, min(N, P - s)), where next_bwd[s] is the
/// oldest microbatch whose backward at stage s has not completed — the
/// warmup depth of PipeDream's one-forward-one-backward schedule. A
/// forward whose input arrives beyond that window is parked and released
/// when the stage's backward chain advances. The oldest unretired
/// microbatch is always admissible at every stage, so the rule cannot
/// deadlock. It bounds the microbatches admitted per stage (see
/// inflight_high_water()), not the per-microbatch activation caches,
/// which are allocated for all N microbatches.
///
/// PipeMare semantics are preserved exactly: a stolen task executes with
/// the *owner stage's* weight version — every (stage, microbatch) forward
/// and backward parameter view is assembled through the same shared
/// WeightVersions snapshot protocol the sequential engine uses, so the
/// delay distribution (Table 1) does not depend on which worker runs the
/// task.
///
/// Stronger still, the engine's numerics are *scheduling-independent by
/// construction*, so training curves are bitwise-identical to the
/// "sequential" engine whether stealing is off, on, or forced (tests
/// assert it), and bitwise run-to-run reproducible in every mode:
///  1. weight views are pure functions of (stage, micro, step) through
///     WeightVersions, frozen within a minibatch;
///  2. forwards of a stage touch disjoint per-microbatch caches and
///     counter-based Dropout masks are draw-order-independent, so their
///     execution order is free;
///  3. backwards of a stage are serialized in microbatch order by a
///     readiness chain (Backward(s, m) becomes ready only once
///     Backward(s+1, m) produced its gradient AND Backward(s, m-1)
///     completed), so gradient accumulation into the stage's disjoint
///     slice of the gradient buffer replays the sequential order;
///  4. per-microbatch losses land in slots merged in microbatch order
///     after the minibatch barrier, replaying the sequential sum.
/// The StealMode therefore only changes *which worker* runs a task and
/// when — wall-clock, busy spread, steal counters — never the floats.
///
/// The surface matches the core::train_loop engine concept /
/// core::ExecutionBackend interface. Unsupported: activation
/// recomputation (an analytic-engine feature).
class StealingEngine {
 public:
  using StepResult = pipeline::StepResult;
  using StageStats = pipeline::StageStats;

  StealingEngine(const nn::Model& model, StealConfig cfg, std::uint64_t seed);
  ~StealingEngine();

  StealingEngine(const StealingEngine&) = delete;
  StealingEngine& operator=(const StealingEngine&) = delete;

  /// Runs the N microbatches of one minibatch through the worker pool
  /// with schedule-exact weight versions, accumulating the mean gradient.
  /// Rethrows the first worker-side exception (after the task graph
  /// drains).
  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  std::span<float> weights() { return store_.live(); }
  std::span<const float> weights() const { return store_.live(); }
  std::span<float> gradients() { return grads_; }
  void commit_update() { store_.commit_update(); }

  /// Evaluation helper: forward-only on the live weights (single-threaded).
  nn::LossResult evaluate(const nn::Flow& input, const tensor::Tensor& target,
                          const nn::LossHead& head) const;

  void set_method(pipeline::Method m) { cfg_.engine.method = m; }
  pipeline::Method method() const { return cfg_.engine.method; }

  /// Epoch-boundary dynamic repartitioning: swaps in a new unit -> stage
  /// assignment over the same weight units (checked by
  /// pipeline::validate_repartition), rebuilds the per-stage module/unit
  /// ranges, and reseeds the StealPolicy's victim ranking from the new
  /// partition's predicted stage costs. Only call between minibatches:
  /// the workers are parked on the pool barrier then, and the next
  /// generation's release barrier publishes the new state. No weights,
  /// version history, or optimizer state move.
  void repartition(const pipeline::Partition& next);

  const pipeline::Partition& partition() const { return partition_; }
  const pipeline::Schedule& schedule() const { return schedule_; }
  const nn::Model& model() const { return model_; }
  const StealConfig& config() const { return cfg_; }
  const StealPolicy& policy() const { return policy_; }
  std::int64_t steps_taken() const { return store_.step(); }
  int num_workers() const { return pool_->size(); }

  std::vector<double> stage_tau_fwd() const {
    return pipeline::stage_tau_fwd_vector(schedule_);
  }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return pipeline::stage_lr_segments(partition_, base_lr, scales);
  }

  /// Per-*stage* load counters, cumulative since construction (or the last
  /// reset): busy/items of the stage's tasks wherever they executed, plus
  /// stolen_items / stolen_ns for the share executed by non-home workers.
  /// Waiting is worker-side, so stage w's pop_wait_ns is worker w's idle
  /// wait for w < min(W, P): exact per stage when W == P (the "threaded"
  /// preset), and for W <= P the per-stage sum is the total worker idle.
  /// push_wait_ns is 0 (task hand-off never blocks). Call between
  /// minibatches.
  std::vector<StageStats> stage_stats() const;
  void reset_stage_stats();

  /// Per-stage peak of admitted-but-unretired microbatches (forward
  /// admitted, backward at that stage not yet complete), cumulative since
  /// construction or the last reset_stage_stats(). The 1F1B admission rule
  /// keeps stage s at most max(1, min(N, P - s)). Call between minibatches.
  std::vector<std::size_t> inflight_high_water() const;

  /// Per-*worker* load counters: busy time, pop_wait_ns = time idle waiting
  /// for any admissible task, items executed, stolen_items = tasks taken
  /// from stages the worker is not home to. The busy spread across workers
  /// is the number stealing actually flattens (per-stage busy is invariant
  /// under stealing — a stage's compute is its compute wherever it runs).
  std::vector<StageStats> worker_stats() const;

  /// The steal log (populated in the deterministic modes or when
  /// cfg.record_log is set; capped — see dropped_log_entries()). Call
  /// between minibatches; the returned reference stays valid until the
  /// next forward_backward or clear_steal_log.
  const std::vector<StealRecord>& steal_log() const;
  std::uint64_t dropped_log_entries() const;
  void clear_steal_log();

  /// Total tasks stolen since construction (or the last stats reset).
  std::uint64_t total_steals() const;

 private:
  using StageRange = pipeline::StageModuleRange;

  /// Per-stage counters with multi-writer slots (two thieves can execute
  /// forwards of the same stage concurrently), hence atomics; relaxed
  /// increments, read between minibatches under the pool barrier.
  struct AtomicStageCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> stolen_items{0};
    std::atomic<std::uint64_t> stolen_ns{0};
  };

  void drain(int worker);
  /// Fills `out` with the next task for `worker`; `stolen` reports whether
  /// it came from a stage the worker is not home to.
  bool acquire(int worker, Task& out, bool& stolen);
  bool acquire_home(int worker, Task& out);
  bool acquire_steal(int worker, Task& out, bool& stolen);
  void execute(int worker, const Task& task, bool stolen, std::vector<float>& w);
  /// Run one task's compute; returns the busy nanoseconds spent.
  std::uint64_t run_forward(int worker, const Task& task, std::vector<float>& w);
  std::uint64_t run_backward(int worker, const Task& task, std::vector<float>& w);
  /// Admits Forward(stage, micro) whose input just arrived: enqueues it
  /// if the 1F1B window allows, parks it otherwise.
  void admit_forward(int stage, int micro);
  bool admit_forward_locked(int stage, int micro) REQUIRES(sched_m_);
  void push_forward_locked(int stage, int micro) REQUIRES(sched_m_);
  /// Marks Backward(stage, micro)'s gradient input as available and
  /// enqueues it if its predecessor in the stage's backward chain is done.
  void mark_backward_ready(int stage, int micro);
  void complete_task();
  void record_failure(const char* what);
  int home_worker(int stage) const { return stage % pool_->size(); }
  /// The 1F1B warmup depth of `stage`: max(1, min(N, P - stage)).
  int admission_window(int stage) const {
    return std::max(1, std::min(cfg_.engine.num_microbatches,
                                cfg_.engine.num_stages - stage));
  }

  const nn::Model& model_;
  StealConfig cfg_;
  pipeline::Partition partition_;
  pipeline::Schedule schedule_;
  pipeline::WeightVersions store_;
  StealPolicy policy_;
  std::vector<float> grads_;

  std::vector<StageRange> ranges_;                   ///< per stage
  std::vector<std::vector<int>> home_stages_;        ///< per worker
  std::vector<std::unique_ptr<TaskQueue>> queues_;   ///< per stage
  std::vector<std::vector<nn::Cache>> caches_;       ///< per microbatch

  std::unique_ptr<AtomicStageCounters[]> stage_counters_;  ///< per stage
  /// Per-worker counters: single-writer slots (each worker writes only its
  /// own), read between minibatches under the pool barrier — plain fields.
  std::vector<StageStats> worker_stats_;

  // Per-minibatch context, owned by forward_backward for the duration of
  // one generation; workers read it between the pool barriers.
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  std::vector<nn::Flow> fwd_flow_;   ///< per micro: activation between stages
  std::vector<nn::Flow> bwd_flow_;   ///< per micro: gradient between stages
  std::vector<double> micro_loss_;   ///< per micro: loss slots (ordered merge)
  std::vector<double> micro_correct_;
  std::vector<double> micro_count_;
  std::atomic<bool> mb_failed_{false};
  std::string mb_error_ GUARDED_BY(sched_m_);  ///< first worker exception

  // Scheduler state: remaining task count, push notification version, and
  // the backward-chain gates, all GUARDED_BY(sched_m_) — a Clang
  // -Wthread-safety build proves the gating protocol never touches them
  // unlocked. Lock order is sched_m_ -> TaskQueue::m_
  // (enqueue-while-gating); TaskQueue ops never take sched_m_.
  mutable util::Mutex sched_m_;
  util::CondVar sched_cv_;
  int remaining_ GUARDED_BY(sched_m_) = 0;
  std::uint64_t push_version_ GUARDED_BY(sched_m_) = 0;
  std::vector<int> next_bwd_ GUARDED_BY(sched_m_);      ///< per stage: next micro
  std::vector<std::uint8_t> bwd_ready_ GUARDED_BY(sched_m_);  ///< [stage*N+micro]
  /// 1F1B admission state: forwards admitted this minibatch, forwards
  /// parked outside the window, and the cumulative in-flight peak.
  std::vector<int> fwd_admitted_ GUARDED_BY(sched_m_);         ///< per stage
  std::vector<std::uint8_t> fwd_parked_ GUARDED_BY(sched_m_);  ///< [stage*N+micro]
  std::vector<std::size_t> inflight_high_water_ GUARDED_BY(sched_m_);  ///< per stage

  std::vector<StealRecord> steal_log_ GUARDED_BY(sched_m_);
  std::uint64_t dropped_log_entries_ GUARDED_BY(sched_m_) = 0;
  std::vector<std::vector<float>> scratch_;  ///< per worker: weight buffer

  std::unique_ptr<WorkerPool> pool_;  ///< last member: joins before teardown
};

}  // namespace pipemare::sched
