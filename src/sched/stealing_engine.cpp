#include "src/sched/stealing_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/obs/trace.h"
#include "src/pipeline/cost_model.h"
#include "src/pipeline/repartition.h"
#include "src/util/stats.h"

namespace pipemare::sched {

namespace {

using Clock = std::chrono::steady_clock;
using util::ns_between;

/// Predicted per-stage busy shares for the StealPolicy seed. A balanced
/// partition already carries cost-model stage costs; a uniform partition's
/// stage_cost counts units (exactly the assumption the cost model
/// corrects), so re-profile through the cost model — analytic fallback
/// when the spec has no probe microbatch.
std::vector<double> predicted_stage_costs(const nn::Model& model,
                                          const pipeline::Partition& partition,
                                          pipeline::PartitionSpec spec) {
  if (partition.strategy == pipeline::PartitionStrategy::Balanced) {
    return partition.stage_cost;
  }
  if (!spec.probe) spec.measured = false;
  auto unit = pipeline::profile_unit_costs(model, partition.units, spec);
  std::vector<double> stage(static_cast<std::size_t>(partition.num_stages), 0.0);
  for (std::size_t u = 0; u < unit.size(); ++u) {
    stage[static_cast<std::size_t>(partition.unit_stage[u])] += unit[u];
  }
  return stage;
}

/// The victim policy for `mode`. Disabled never reads the victim order,
/// so it skips the cost-model profiling of the seed.
StealPolicy seed_policy(StealMode mode, const nn::Model& model,
                        const pipeline::Partition& partition,
                        const pipeline::PartitionSpec& spec) {
  if (mode == StealMode::Disabled) return StealPolicy(mode, {});
  return StealPolicy(mode, predicted_stage_costs(model, partition, spec));
}

}  // namespace

StealingEngine::StealingEngine(const nn::Model& model, StealConfig cfg,
                               std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      partition_(pipeline::make_partition(model, cfg_.engine.num_stages,
                                          cfg_.engine.split_bias,
                                          cfg_.engine.partition)),
      schedule_(cfg_.engine.num_stages, cfg_.engine.num_microbatches),
      store_(model, cfg_.engine, partition_, schedule_, seed),
      policy_(seed_policy(cfg_.mode, model, partition_, cfg_.engine.partition)) {
  if (cfg_.engine.recompute_segments > 0) {
    throw std::invalid_argument(
        "StealingEngine: activation recomputation is modelled only by the "
        "analytic PipelineEngine; set recompute_segments = 0");
  }
  if (cfg_.workers < 0) {
    throw std::invalid_argument("StealingEngine: workers must be >= 0");
  }
  // The probe microbatch is consumed by make_partition / the policy seed
  // above; don't keep its tensors alive for the whole engine lifetime.
  cfg_.engine.partition.probe.reset();
  grads_.assign(store_.live().size(), 0.0F);

  ranges_ = pipeline::stage_module_ranges(partition_);

  const int p = cfg_.engine.num_stages;
  const int n = cfg_.engine.num_microbatches;
  // The 1F1B window bounds the live cache sets (see the class comment).
  caches_.resize(static_cast<std::size_t>(std::min(n, p)));
  for (auto& c : caches_) c = model_.make_caches();
  fwd_flow_.resize(static_cast<std::size_t>(n));
  bwd_flow_.resize(static_cast<std::size_t>(n));
  micro_.resize(static_cast<std::size_t>(n));
  next_bwd_.assign(static_cast<std::size_t>(p), 0);
  bwd_ready_.assign(static_cast<std::size_t>(p) * static_cast<std::size_t>(n), 0);
  fwd_admitted_.assign(static_cast<std::size_t>(p), 0);
  fwd_parked_.assign(static_cast<std::size_t>(p) * static_cast<std::size_t>(n), 0);
  inflight_high_water_.assign(static_cast<std::size_t>(p), 0);

  const int w = resolve_workers(cfg_.workers, p);
  scratch_.resize(static_cast<std::size_t>(w));  // sized by each worker (execute)

  // Spawn last: the hooks touch every field above.
  exec_ = std::make_unique<StageExecutor>(
      p, w,
      StageExecutor::Client{
          [this](int worker, const Task& task, bool stolen) {
            return execute(worker, task, stolen);
          },
          [this] { return finished(); },
          {}});
}

StealingEngine::~StealingEngine() = default;

void StealingEngine::repartition(const pipeline::Partition& next) {
  pipeline::validate_repartition(partition_, next);
  // Quiescent point: between minibatches the workers are parked on the
  // pool barrier; the next generation's release barrier publishes the new
  // ranges / staleness map / victim order. Stage count is unchanged, so
  // the executor's queues, counters and home assignments stay valid.
  partition_ = next;
  ranges_ = pipeline::stage_module_ranges(partition_);
  // Reseed the victim ranking from the new split's predicted stage costs
  // (the probe was dropped after construction; the analytic fallback is
  // fine — a migrated partition carries observed-cost stage totals).
  policy_ = seed_policy(cfg_.mode, model_, partition_, cfg_.engine.partition);
}

void StealingEngine::record_failure(const char* what) {
  bool expected = false;
  if (mb_failed_.compare_exchange_strong(expected, true)) {
    util::MutexLock lock(sched_m_);
    mb_error_ = what;
  }
}

void StealingEngine::push_forward_locked(int stage, int micro) {
  const auto s = static_cast<std::size_t>(stage);
  exec_->push({Task::Kind::Forward, stage, micro});
  const auto inflight = static_cast<std::size_t>(++fwd_admitted_[s] - next_bwd_[s]);
  inflight_high_water_[s] = std::max(inflight_high_water_[s], inflight);
}

void StealingEngine::admit_forward_locked(int stage, int micro) {
  const auto s = static_cast<std::size_t>(stage);
  if (micro - next_bwd_[s] < admission_window(stage)) {
    push_forward_locked(stage, micro);
    return;
  }
  // Outside the 1F1B window: run_backward releases it when the stage's
  // backward chain advances far enough.
  fwd_parked_[s * static_cast<std::size_t>(cfg_.engine.num_microbatches) +
              static_cast<std::size_t>(micro)] = 1;
}

void StealingEngine::mark_backward_ready(int stage, int micro) {
  const int n = cfg_.engine.num_microbatches;
  util::MutexLock lock(sched_m_);
  bwd_ready_[static_cast<std::size_t>(stage) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(micro)] = 1;
  // Enqueue only at the chain head; Backward(stage, micro) with an
  // uncompleted predecessor is enqueued by that predecessor's
  // chain-advance instead. Both checks run under sched_m_, so exactly
  // one path fires.
  if (next_bwd_[static_cast<std::size_t>(stage)] == micro) {
    exec_->push({Task::Kind::Backward, stage, micro});
  }
}

void StealingEngine::complete_task() {
  bool all_done = false;
  {
    util::MutexLock lock(sched_m_);
    all_done = --remaining_ == 0;
  }
  // After the decrement: a worker that read the executor's version before
  // it either sees finished() or is woken by this bump.
  if (all_done) exec_->notify();
}

bool StealingEngine::finished() const {
  util::MutexLock lock(sched_m_);
  return remaining_ == 0;
}

std::uint64_t StealingEngine::execute(int worker, const Task& task, bool stolen) {
  // The trace names the thief through the emitting thread.
  if (stolen) obs::instant("steal", "sched", task.stage, task.micro, store_.step());
  // Each worker sizes (and first touches) its own weight buffer on its
  // first task, off the constructing thread.
  std::vector<float>& w = scratch_[static_cast<std::size_t>(worker)];
  if (w.empty()) w.resize(store_.live().size());
  std::uint64_t busy = 0;
  {
    obs::Span span(task.kind == Task::Kind::Forward ? "fwd" : "bwd", "sched",
                   task.stage, task.micro, store_.step());
    busy = task.kind == Task::Kind::Forward ? run_forward(task, w) : run_backward(task, w);
    complete_task();
  }
  return busy;
}

std::uint64_t StealingEngine::run_forward(const Task& task, std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  const bool last = s == cfg_.engine.num_stages - 1;
  std::uint64_t busy = 0;
  nn::Flow in = std::move(fwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow out;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
      store_.assemble_forward_units(r.unit_first, r.unit_last, m, w);
      out = model_.forward_range(r.module_first, r.module_last, std::move(in), w,
                                 caches_[static_cast<std::size_t>(m) % caches_.size()]);
      busy += ns_between(t0, Clock::now());
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (!last) {
    fwd_flow_[static_cast<std::size_t>(m)] = std::move(out);
    util::MutexLock lock(sched_m_);
    admit_forward_locked(s + 1, m);
    return busy;
  }
  // Tail stage: loss into this microbatch's slot (slots are merged in
  // microbatch order after the barrier, replaying the sequential sum even
  // when tail forwards complete out of order), then hand the output
  // gradient to the stage's backward chain.
  nn::Flow dflow;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
      nn::LossResult lr = mb_head_->forward_backward(
          out.x, (*mb_targets_)[static_cast<std::size_t>(m)]);
      busy += ns_between(t0, Clock::now());
      micro_[static_cast<std::size_t>(m)] = {lr.loss, lr.correct, lr.count};
      dflow.x = std::move(lr.doutput);
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  bwd_flow_[static_cast<std::size_t>(m)] = std::move(dflow);
  mark_backward_ready(s, m);
  return busy;
}

std::uint64_t StealingEngine::run_backward(const Task& task, std::vector<float>& w) {
  const int s = task.stage;
  const int m = task.micro;
  const int n = cfg_.engine.num_microbatches;
  const StageRange& r = ranges_[static_cast<std::size_t>(s)];
  std::uint64_t busy = 0;
  nn::Flow dflow = std::move(bwd_flow_[static_cast<std::size_t>(m)]);
  nn::Flow din;
  if (!mb_failed_.load(std::memory_order_relaxed)) {
    try {
      auto t0 = Clock::now();
      store_.assemble_backward_units(r.unit_first, r.unit_last, m, w);
      din = model_.backward_range(r.module_first, r.module_last, std::move(dflow), w,
                                  caches_[static_cast<std::size_t>(m) % caches_.size()],
                                  grads_);
      busy += ns_between(t0, Clock::now());
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (s > 0) {
    // The flow slot must be written before the ready flag is published;
    // the sched_m_ lock inside mark_backward_ready orders both for the
    // worker that picks the task up.
    bwd_flow_[static_cast<std::size_t>(m)] = std::move(din);
    mark_backward_ready(s - 1, m);
  }
  // Advance this stage's backward chain: the successor was parked if its
  // gradient arrived while we were running. Retiring micro m also slides
  // the 1F1B window by one, admitting Forward(s, m + window) if it was
  // parked.
  util::MutexLock lock(sched_m_);
  const auto row = static_cast<std::size_t>(s) * static_cast<std::size_t>(n);
  next_bwd_[static_cast<std::size_t>(s)] = m + 1;
  if (m + 1 < n && bwd_ready_[row + static_cast<std::size_t>(m) + 1] != 0) {
    exec_->push({Task::Kind::Backward, s, m + 1});
  }
  const int released = m + admission_window(s);
  if (released < n && fwd_parked_[row + static_cast<std::size_t>(released)] != 0) {
    fwd_parked_[row + static_cast<std::size_t>(released)] = 0;
    push_forward_locked(s, released);
  }
  return busy;
}

StealingEngine::StepResult StealingEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  const int n = cfg_.engine.num_microbatches;
  const int p = cfg_.engine.num_stages;
  if (static_cast<int>(micro_inputs.size()) != n ||
      static_cast<int>(micro_targets.size()) != n) {
    throw std::invalid_argument("forward_backward: expected N microbatches");
  }
  std::fill(grads_.begin(), grads_.end(), 0.0F);
  std::fill(micro_.begin(), micro_.end(), StepResult{});
  for (int m = 0; m < n; ++m) {
    nn::Flow in = micro_inputs[static_cast<std::size_t>(m)];
    in.training = true;
    in.micro = m;
    in.step = store_.step();
    fwd_flow_[static_cast<std::size_t>(m)] = std::move(in);
    bwd_flow_[static_cast<std::size_t>(m)] = nn::Flow{};
  }
  mb_targets_ = &micro_targets;
  mb_head_ = &head;
  mb_failed_.store(false);

  // Victim re-ranking from the cumulative busy counters (no-op when
  // stealing is disabled; the first minibatch keeps the cost-model seed).
  {
    std::vector<std::uint64_t> busy;
    busy.reserve(static_cast<std::size_t>(p));
    for (const StageStats& st : exec_->stage_stats()) busy.push_back(st.busy_ns);
    policy_.refresh(busy);
  }
  exec_->set_victims(policy_.victim_order(), policy_.steal_first());

  {
    // Workers are parked in the pool barrier here, so taking sched_m_ is
    // uncontended — and lets the analysis prove the per-minibatch resets
    // of the gating state never race a straggler.
    util::MutexLock lock(sched_m_);
    remaining_ = 2 * n * p;
    std::fill(next_bwd_.begin(), next_bwd_.end(), 0);
    std::fill(bwd_ready_.begin(), bwd_ready_.end(), 0);
    std::fill(fwd_admitted_.begin(), fwd_admitted_.end(), 0);
    std::fill(fwd_parked_.begin(), fwd_parked_.end(), 0);
    mb_error_.clear();
    // Every input is ready; stage 0's window admits the first
    // admission_window(0) and parks the rest.
    for (int m = 0; m < n; ++m) admit_forward_locked(0, m);
  }
  exec_->run(store_.step());
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  if (mb_failed_.load()) {
    util::MutexLock lock(sched_m_);
    throw std::runtime_error("StealingEngine worker failed: " + mb_error_);
  }

  // Ordered merge of the per-microbatch slots: bitwise-identical to the
  // sequential engine's in-order accumulation.
  return pipeline::merge_microbatches(micro_, grads_);
}

void StealingEngine::reset_stage_stats() {
  exec_->reset_stats();
  util::MutexLock lock(sched_m_);
  std::fill(inflight_high_water_.begin(), inflight_high_water_.end(), 0);
}

std::vector<std::size_t> StealingEngine::inflight_high_water() const {
  util::MutexLock lock(sched_m_);
  return inflight_high_water_;
}

std::uint64_t StealingEngine::total_steals() const {
  std::uint64_t total = 0;
  for (const auto& st : stage_stats()) total += st.stolen_items;
  return total;
}

}  // namespace pipemare::sched
