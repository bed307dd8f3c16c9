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
#include "src/sched/stage_executor.h"
#include "src/sched/steal_policy.h"
#include "src/util/sync.h"

namespace pipemare::sched {

/// Configuration of the work-stealing runtime: the shared pipeline
/// EngineConfig plus the scheduler knobs (registered with the
/// core::BackendRegistry as "threaded_steal" via core::StealOptions; the
/// "threaded" preset fixes workers = num_stages, mode = Disabled).
struct StealConfig {
  pipeline::EngineConfig engine;
  int workers = 0;  ///< worker threads; 0 = min(cores, num_stages)
  StealMode mode = StealMode::LoadAware;
};

/// Work-stealing pipeline-parallel execution, registered with the
/// core::BackendRegistry twice: as "threaded_steal" (the StealOptions
/// knobs) and as the "threaded" preset (W = P workers, StealMode::Disabled:
/// stage-per-thread 1F1B). Instead of pinning one thread per stage, W
/// workers — W chosen independently of P — drain the per-stage queues of
/// *ready* forward/backward microbatch tasks of a sched::StageExecutor, and
/// an idle worker steals the oldest ready task from the stage the
/// StealPolicy ranks busiest (seeded from the partition cost model's
/// predicted stage costs, re-ranked between minibatches from the observed
/// per-stage busy counters). Stage s is *home* to worker s mod W; any other
/// worker executing its tasks is a thief, counted in the stolen_items /
/// stolen_ns stats and marked by a `steal` trace instant on the thief's
/// thread. This engine is the executor's training
/// client: it owns the readiness rules below, the executor owns the
/// queues, the workers and the load counters.
///
/// 1F1B admission (every mode): Forward(s, m) is admissible only while
/// m - next_bwd[s] < max(1, min(N, P - s)), where next_bwd[s] is the
/// oldest microbatch whose backward at stage s has not completed — the
/// warmup depth of PipeDream's one-forward-one-backward schedule. A
/// forward whose input arrives beyond that window is parked and released
/// when the stage's backward chain advances. The oldest unretired
/// microbatch is always admissible at every stage, so the rule cannot
/// deadlock. It bounds the microbatches admitted per stage (see
/// inflight_high_water()), and with them the activation caches: the engine
/// keeps R = min(N, P) full-model cache sets, microbatch m using set
/// m mod R. Every window is at most R, so Forward(s, m + R) is admitted
/// only after Backward(s, m) retired, and stages touch disjoint module
/// entries of a set — a reused set never overwrites a live cache.
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
///  2. forwards of a stage touch distinct cache sets (see above) and
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
  int num_workers() const { return exec_->num_workers(); }

  std::vector<double> stage_tau_fwd() const {
    return pipeline::stage_tau_fwd_vector(schedule_);
  }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return pipeline::stage_lr_segments(partition_, base_lr, scales);
  }

  /// Per-*stage* load counters (StageExecutor::stage_stats): busy/items of
  /// the stage's tasks wherever they executed, plus stolen_items /
  /// stolen_ns for the share executed by non-home workers. push_wait_ns is
  /// 0 (task hand-off never blocks). Call between minibatches.
  std::vector<StageStats> stage_stats() const { return exec_->stage_stats(); }
  void reset_stage_stats();

  /// Per-stage peak of admitted-but-unretired microbatches (forward
  /// admitted, backward at that stage not yet complete), cumulative since
  /// construction or the last reset_stage_stats(). The 1F1B admission rule
  /// keeps stage s at most max(1, min(N, P - s)). Call between minibatches.
  std::vector<std::size_t> inflight_high_water() const;

  /// Per-*worker* load counters: pop_wait_ns = time idle waiting for any
  /// admissible task, stolen_items = tasks taken from stages the worker is
  /// not home to. The busy spread across workers is the number stealing
  /// actually flattens (per-stage busy is invariant under stealing — a
  /// stage's compute is its compute wherever it runs).
  std::vector<StageStats> worker_stats() const { return exec_->worker_stats(); }

  /// Total tasks stolen since construction (or the last stats reset).
  std::uint64_t total_steals() const;

 private:
  using StageRange = pipeline::StageModuleRange;

  /// The executor hooks: run one task (returns its busy nanoseconds), and
  /// "every task of the minibatch completed".
  std::uint64_t execute(int worker, const Task& task, bool stolen);
  bool finished() const;
  /// Run one task's compute; returns the busy nanoseconds spent.
  std::uint64_t run_forward(const Task& task, std::vector<float>& w);
  std::uint64_t run_backward(const Task& task, std::vector<float>& w);
  /// Admits Forward(stage, micro) whose input just arrived: enqueues it
  /// if the 1F1B window allows, parks it otherwise.
  void admit_forward_locked(int stage, int micro) REQUIRES(sched_m_);
  void push_forward_locked(int stage, int micro) REQUIRES(sched_m_);
  /// Marks Backward(stage, micro)'s gradient input as available and
  /// enqueues it if its predecessor in the stage's backward chain is done.
  void mark_backward_ready(int stage, int micro);
  void complete_task();
  void record_failure(const char* what);
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

  std::vector<StageRange> ranges_;              ///< per stage
  std::vector<std::vector<nn::Cache>> caches_;  ///< min(N, P) sets, by micro mod R

  // Per-minibatch context, owned by forward_backward for the duration of
  // one generation; workers read it between the pool barriers.
  const std::vector<tensor::Tensor>* mb_targets_ = nullptr;
  const nn::LossHead* mb_head_ = nullptr;
  std::vector<nn::Flow> fwd_flow_;   ///< per micro: activation between stages
  std::vector<nn::Flow> bwd_flow_;   ///< per micro: gradient between stages
  std::vector<StepResult> micro_;    ///< per micro: loss slots (ordered merge)
  std::atomic<bool> mb_failed_{false};
  std::string mb_error_ GUARDED_BY(sched_m_);  ///< first worker exception

  // Scheduler state: remaining task count and the backward-chain gates,
  // all GUARDED_BY(sched_m_) — a Clang -Wthread-safety build proves the
  // gating protocol never touches them unlocked. Lock order is sched_m_ ->
  // the executor's locks (enqueue-while-gating); the executor never takes
  // sched_m_ while holding its own.
  mutable util::Mutex sched_m_;
  int remaining_ GUARDED_BY(sched_m_) = 0;
  std::vector<int> next_bwd_ GUARDED_BY(sched_m_);      ///< per stage: next micro
  std::vector<std::uint8_t> bwd_ready_ GUARDED_BY(sched_m_);  ///< [stage*N+micro]
  /// 1F1B admission state: forwards admitted this minibatch, forwards
  /// parked outside the window, and the cumulative in-flight peak.
  std::vector<int> fwd_admitted_ GUARDED_BY(sched_m_);         ///< per stage
  std::vector<std::uint8_t> fwd_parked_ GUARDED_BY(sched_m_);  ///< [stage*N+micro]
  std::vector<std::size_t> inflight_high_water_ GUARDED_BY(sched_m_);  ///< per stage

  std::vector<std::vector<float>> scratch_;  ///< per worker: weight buffer

  std::unique_ptr<StageExecutor> exec_;  ///< last member: joins before teardown
};

}  // namespace pipemare::sched
