#pragma once

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/backend.h"
#include "src/core/task.h"
#include "src/optim/optimizer.h"
#include "src/optim/schedule.h"
#include "src/optim/t1_reschedule.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/repartition.h"
#include "src/util/stats.h"

namespace pipemare::util {
class Cli;
}

namespace pipemare::core {

/// Full training configuration: engine (method / stages / T2 / recompute),
/// execution backend, optimizer, base LR schedule, T1 annealing and T3
/// warmup.
struct TrainerConfig {
  pipeline::EngineConfig engine;

  /// Execution backend selection: a BackendRegistry key ("sequential",
  /// "threaded", "hogwild", "threaded_hogwild", "threaded_steal") plus
  /// that backend's typed options. core::train resolves it through the
  /// registry:
  ///
  ///   cfg.backend = "threaded";
  ///   cfg.backend = {"threaded_hogwild",
  ///                  ThreadedHogwildOptions{.max_delay = 8.0, .workers = 4}};
  BackendConfig backend;

  int epochs = 20;
  int minibatch_size = 64;
  int microbatch_size = 8;  ///< N = minibatch_size / microbatch_size

  enum class Opt { SgdMomentum, AdamW };
  Opt optimizer = Opt::SgdMomentum;
  double momentum = 0.9;
  double weight_decay = 5e-4;
  double adam_beta1 = 0.9;
  double adam_beta2 = 0.98;
  double adam_eps = 1e-9;
  double grad_clip = 0.0;  ///< 0 disables clipping

  enum class Sched { Constant, StepDecay, InverseSqrt };
  Sched schedule = Sched::StepDecay;
  double lr = 0.05;
  double drop_factor = 0.1;
  int drop_every_epochs = 10;
  int sched_warmup_steps = 200;  ///< linear warmup length for InverseSqrt

  /// Technique 1: rescale per-stage LR by tau^{-p_k}; K = annealing steps.
  bool t1 = false;
  std::int64_t t1_annealing_steps = 0;

  /// Technique 3: synchronous (GPipe-style) epochs before going async.
  int warmup_epochs = 0;

  /// Epoch-boundary dynamic repartitioning (`--repartition=off|auto[,t]`):
  /// when enabled, core::train installs a RepartitionObserver that
  /// compares observed per-stage busy time against the partition's
  /// predicted stage costs and migrates weight units across stage
  /// boundaries when the balance drifts (see pipeline/repartition.h).
  /// Requires a repartition-capable, stage-instrumented backend
  /// ("threaded", "threaded_steal").
  pipeline::RepartitionConfig repartition;

  std::uint64_t seed = 1;
  double divergence_loss = 1e3;  ///< train loss above this declares divergence

  /// Observability (`--trace=<file>` / `--metrics=<file>`): when
  /// trace_path is set, core::train enables the process-global
  /// obs::TraceRecorder for the run and writes Chrome trace-event JSON
  /// (open in Perfetto / chrome://tracing) at the end; when metrics_path
  /// is set it installs a MetricsObserver that rewrites a registry
  /// snapshot after every epoch. Recording never perturbs numerics —
  /// curves are bitwise-equal with tracing on or off.
  std::string trace_path;
  std::string metrics_path;

  int num_microbatches() const { return minibatch_size / microbatch_size; }
};

struct EpochRecord {
  int epoch = 0;           ///< 1-based
  double train_loss = 0.0;
  double metric = 0.0;     ///< task quality metric after this epoch
  double param_norm = 0.0; ///< ||w||_2, the Figure 7 divergence probe
  double base_lr = 0.0;
  double seconds = 0.0;    ///< wall-clock of this epoch (train + eval),
                           ///< stamped by the built-in EpochTimer observer

  /// When a run diverges mid-epoch the curve ends with a divergence
  /// record: train_loss holds the observed blow-up loss, param_norm the
  /// blown-up ||w||_2, and metric is NaN (no evaluation is run).
  bool is_divergence_record() const { return std::isnan(metric); }
};

/// Training-step context delivered to StepObserver::on_step after each
/// optimizer step commits.
struct StepInfo {
  int epoch = 0;                  ///< 1-based epoch the step belongs to
  std::int64_t step = 0;          ///< 0-based global optimizer-step index
  bool async = false;             ///< engine was in an asynchronous method
  double loss = 0.0;              ///< minibatch mean loss
  double base_lr = 0.0;           ///< schedule LR used for this step
  pipeline::StepResult result{};  ///< full step result
};

/// Hook interface threaded through train_loop. Default implementations are
/// no-ops, so observers override only what they need.
///
/// Call order per epoch: on_step after every committed optimizer step
/// (divergent steps abort before committing and produce no on_step);
/// on_epoch after the epoch's record is assembled and *before* it is
/// appended to the curve — observers may annotate the record (that is how
/// the built-in EpochTimer stamps EpochRecord::seconds). on_method_switch
/// fires whenever train_loop changes the engine's method: once when T3
/// warmup engages Sync before epoch 1 (epoch = 0) and once at the
/// mid-training switch back to the asynchronous method. on_repartition
/// fires after a RepartitionObserver migrated the backend to a new
/// unit -> stage assignment (and reset its stage counters) — observers
/// holding per-stage baselines must drop them (StageLoadObserver does).
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_step(const StepInfo& /*info*/) {}
  virtual void on_epoch(EpochRecord& /*record*/) {}
  virtual void on_method_switch(pipeline::Method /*from*/, pipeline::Method /*to*/,
                                int /*epoch*/) {}
  virtual void on_repartition(const pipeline::Partition& /*from*/,
                              const pipeline::Partition& /*to*/, int /*epoch*/) {}
};

/// Built-in observer that stamps EpochRecord::seconds with the wall-clock
/// duration of each epoch (training steps plus evaluation). train_loop
/// always installs one ahead of user observers, so BENCH_*.json-style
/// consumers can read real per-backend throughput off the curve.
class EpochTimer final : public StepObserver {
 public:
  EpochTimer();
  void on_epoch(EpochRecord& record) override;

 private:
  std::chrono::steady_clock::time_point epoch_start_;
};

struct TrainResult {
  std::string method;
  std::vector<EpochRecord> curve;
  double best_metric = -1e300;
  int best_epoch = -1;  ///< 1-based
  bool diverged = false;

  /// First epoch (1-based) whose metric reaches `target`; -1 if never.
  int epochs_to_target(double target) const {
    for (const auto& r : curve) {
      if (r.metric >= target) return r.epoch;
    }
    return -1;
  }

  /// Fully completed epochs — excludes a trailing divergence record, so
  /// "epochs run" consumers (amortized-throughput math, table columns) do
  /// not count the partial blow-up epoch.
  int epochs_completed() const {
    int n = 0;
    for (const auto& r : curve) {
      if (!r.is_divergence_record()) ++n;
    }
    return n;
  }

  /// Total wall-clock seconds over the curve (stamped by EpochTimer).
  double total_seconds() const {
    double secs = 0.0;
    for (const auto& r : curve) secs += r.seconds;
    return secs;
  }
};

/// Core training loop, templated over the execution engine so direct
/// (devirtualized) engine use stays zero-cost; core::train drives it
/// through the polymorphic ExecutionBackend instead.
///
/// Engine concept (== the ExecutionBackend interface): forward_backward,
/// weights, gradients, commit_update, lr_segments, stage_tau_fwd,
/// set_method, method, model.
template <class Engine>
TrainResult train_loop(const Task& task, Engine& engine, const TrainerConfig& cfg,
                       std::span<StepObserver* const> observers = {}) {
  TrainResult result;
  result.method = pipeline::method_name(cfg.engine.method);

  // The built-in epoch timer runs ahead of user observers so they already
  // see EpochRecord::seconds filled in.
  EpochTimer timer;
  std::vector<StepObserver*> obs;
  obs.reserve(observers.size() + 1);
  obs.push_back(&timer);
  for (StepObserver* o : observers) {
    if (o != nullptr) obs.push_back(o);
  }

  std::unique_ptr<optim::Optimizer> opt;
  if (cfg.optimizer == TrainerConfig::Opt::SgdMomentum) {
    opt = std::make_unique<optim::SgdMomentum>(cfg.momentum, cfg.weight_decay);
  } else {
    // Decoupled weight decay (the fairseq AdamW recipe).
    opt = std::make_unique<optim::AdamW>(cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps,
                                         cfg.weight_decay);
  }

  int steps_per_epoch = std::max(1, task.train_size() / cfg.minibatch_size);
  std::unique_ptr<optim::LrSchedule> sched;
  switch (cfg.schedule) {
    case TrainerConfig::Sched::Constant:
      sched = std::make_unique<optim::ConstantLr>(cfg.lr);
      break;
    case TrainerConfig::Sched::StepDecay:
      sched = std::make_unique<optim::StepDecay>(
          cfg.lr, cfg.drop_factor,
          static_cast<std::int64_t>(cfg.drop_every_epochs) * steps_per_epoch);
      break;
    case TrainerConfig::Sched::InverseSqrt:
      sched = std::make_unique<optim::InverseSqrtWarmup>(cfg.lr, cfg.sched_warmup_steps);
      break;
  }

  // T3: begin synchronously, switch to the configured (async) method later.
  pipeline::Method final_method = cfg.engine.method;
  if (cfg.warmup_epochs > 0 && final_method == pipeline::Method::PipeMare) {
    pipeline::Method from = engine.method();
    engine.set_method(pipeline::Method::Sync);
    for (StepObserver* o : obs) {
      o->on_method_switch(from, pipeline::Method::Sync, 0);
    }
  }

  // Default annealing horizon K when unspecified, following the paper's
  // rules of thumb: a quarter of the first fixed-LR phase (step decay), or
  // 5x the linear warmup (inverse-sqrt schedule).
  std::int64_t annealing_steps = cfg.t1_annealing_steps;
  if (cfg.t1 && annealing_steps <= 0) {
    annealing_steps = cfg.schedule == TrainerConfig::Sched::InverseSqrt
                          ? 5 * cfg.sched_warmup_steps
                          : std::max<std::int64_t>(
                                1, static_cast<std::int64_t>(cfg.drop_every_epochs) *
                                       steps_per_epoch / 4);
  }
  optim::T1Rescheduler t1(engine.stage_tau_fwd(), cfg.t1 ? annealing_steps : 0);

  util::Rng shuffle_rng(cfg.seed ^ 0x5bd1e995ULL);
  std::vector<int> order(static_cast<std::size_t>(task.train_size()));
  for (int i = 0; i < task.train_size(); ++i) order[static_cast<std::size_t>(i)] = i;

  std::int64_t step = 0;
  std::int64_t async_step = 0;  // T1 annealing counts from the async switch
  for (int epoch = 1; epoch <= cfg.epochs; ++epoch) {
    if (cfg.warmup_epochs > 0 && epoch == cfg.warmup_epochs + 1 &&
        final_method == pipeline::Method::PipeMare) {
      pipeline::Method from = engine.method();
      engine.set_method(final_method);
      for (StepObserver* o : obs) {
        o->on_method_switch(from, final_method, epoch);
      }
    }
    bool async_phase = engine.method() != pipeline::Method::Sync;

    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;
    int epoch_batches = 0;
    double divergent_loss = 0.0;
    for (int start = 0; start + cfg.minibatch_size <= task.train_size();
         start += cfg.minibatch_size) {
      std::vector<int> idx(order.begin() + start,
                           order.begin() + start + cfg.minibatch_size);
      auto mb = task.minibatch(idx, cfg.microbatch_size);
      auto res = engine.forward_backward(mb.inputs, mb.targets, task.loss());
      if (!res.finite || res.loss > cfg.divergence_loss) {
        result.diverged = true;
        divergent_loss = res.loss;
        break;
      }
      epoch_loss += res.loss;
      ++epoch_batches;

      if (cfg.grad_clip > 0.0) {
        optim::clip_grad_norm(engine.gradients(), cfg.grad_clip);
      }
      double base_lr = sched->lr(step);
      std::vector<double> scales;
      if (cfg.t1 && async_phase) {
        scales = t1.scales(async_step);
      }
      auto segments = engine.lr_segments(base_lr, scales);
      opt->step(engine.weights(), engine.gradients(), segments);
      engine.commit_update();

      StepInfo info;
      info.epoch = epoch;
      info.step = step;
      info.async = async_phase;
      info.loss = res.loss;
      info.base_lr = base_lr;
      info.result = res;
      ++step;
      if (async_phase) ++async_step;
      for (StepObserver* o : obs) o->on_step(info);
    }
    if (result.diverged) {
      // Keep the blow-up point: a mid-epoch divergence still emits a final
      // record (observed loss + blown-up ||w||, metric = NaN) so Figure
      // 7-style divergence probes see where the run exploded instead of a
      // silently truncated curve.
      EpochRecord rec;
      rec.epoch = epoch;
      rec.train_loss = divergent_loss;
      rec.metric = std::numeric_limits<double>::quiet_NaN();
      rec.param_norm = util::l2_norm(engine.weights());
      rec.base_lr = sched->lr(step);
      for (StepObserver* o : obs) o->on_epoch(rec);
      result.curve.push_back(rec);
      break;
    }

    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = epoch_batches > 0 ? epoch_loss / epoch_batches : 0.0;
    rec.metric = task.evaluate(engine.model(), engine.weights());
    rec.param_norm = util::l2_norm(engine.weights());
    rec.base_lr = sched->lr(step);
    for (StepObserver* o : obs) o->on_epoch(rec);
    if (rec.metric > result.best_metric) {
      result.best_metric = rec.metric;
      result.best_epoch = epoch;
    }
    result.curve.push_back(rec);
  }
  if (result.best_epoch < 0) result.best_metric = 0.0;
  return result;
}

/// Applies the shared backend CLI flags onto `cfg.backend` /
/// `cfg.engine.partition` / `cfg.repartition` (the one parser all
/// examples and bench drivers use):
///   --backend=<name>     BackendRegistry key; unknown names throw with
///                        the available list in the message
///   --partition=uniform|balanced[,measured|,calibrated]
///                        stage-partition strategy (any backend); measured
///                        micro-profiles module costs on a probe batch;
///                        calibrated rescales the analytic estimates by the
///                        kernel micro-profile (KernelCalibration)
///   --kernels=naive|tiled
///                        tensor kernel backend (process-global; both are
///                        bitwise-equal, see tensor::kernels::KernelRegistry)
///   --kernel-lanes=<int> intra-op GEMM lanes nested per worker (1 = off)
///   --max-delay=<float>  hogwild family: delay truncation bound
///   --workers=<int>      threaded_hogwild / threaded_steal: worker threads
///   --steal=off|load|forced
///                        threaded_steal: steal mode (see sched::StealMode)
///   --repartition=off|auto[,<threshold>]
///                        epoch-boundary dynamic repartitioning (threaded /
///                        threaded_steal; see pipeline::RepartitionConfig)
///   --trace=<file>       Chrome trace-event JSON of the run (any backend)
///   --metrics=<file>     per-epoch metrics registry snapshot (any backend)
/// Absent flags keep the configuration already in `cfg.backend`; switching
/// between the two hogwild backends carries max_delay over
/// (and worker counts carry between the worker-pool backends), while a
/// flag the selected built-in backend cannot honor (e.g. --workers with
/// "hogwild") throws instead of being silently dropped.
void parse_backend_cli(const util::Cli& cli, TrainerConfig& cfg);

/// The shared-flag usage block for --help text, with the backend list
/// built from the BackendRegistry — new backends appear in every binary's
/// help automatically instead of drifting hardcoded name lists.
std::string backend_cli_help();

/// Convenience wrapper: builds the model, resolves cfg.backend through the
/// BackendRegistry, and runs train_loop on the resulting ExecutionBackend.
/// The returned result's curve covers `cfg.epochs` epochs unless training
/// diverged (in which case it ends with a divergence record). Optional
/// observers receive the train_loop hooks.
TrainResult train(const Task& task, TrainerConfig cfg,
                  std::span<StepObserver* const> observers = {});

}  // namespace pipemare::core
