#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/heads.h"
#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/weight_versions.h"
#include "src/util/rng.h"

namespace pipemare::hogwild {

/// Hogwild!-style stochastic asynchrony (Appendix E): each stage's
/// gradient is computed entirely on a *randomly* delayed weight version,
///   w_{i,t+1} = w_{i,t} - alpha [grad f_{t - tau_i}(w_{t - tau_i})]_i,
/// with tau_i drawn per step from a truncated exponential distribution
/// (the maximum-entropy delay model of Mitliagkas et al.). Stages have
/// different delay expectations: the pipeline's stage-dependent profile
/// (2(P-i)+1)/N (pipeline::Schedule::mean_tau_fwd).
///
/// `engine` supplies the method, stages, microbatches and partition, as in
/// sched::StealConfig; the Hogwild engines ignore its Technique 2 and
/// recompute settings.
struct HogwildConfig {
  pipeline::EngineConfig engine;
  double max_delay = 16.0;  ///< truncation bound (>= 0)
  int num_workers = 0;      ///< threaded backend only: worker threads;
                            ///< 0 = min(cores, N)
};

/// Validates a HogwildConfig the way the pipeline engines validate theirs:
/// engine.num_stages >= 1, engine.num_microbatches >= 1, max_delay finite
/// and >= 0, num_workers >= 0. Throws std::invalid_argument. The single
/// validation path for both Hogwild engines and their registry entries.
void validate_config(const HogwildConfig& cfg);

/// The delayed-weight state both Hogwild engines share: the partition,
/// the delay schedule, the pipeline::WeightVersions store holding the live
/// weights and the last ceil(max_delay) + 2 committed versions, and this
/// step's sampled per-unit versions.
class DelayedVersions {
 public:
  /// Validates `cfg`, partitions the model (consuming the partition
  /// probe) and turns Technique 2 off in `cfg.engine`: the delayed version
  /// serves forward and backward alike, so there is no discrepancy to
  /// correct and the store keeps no T2 state. `cfg` is borrowed; the
  /// owning engine keeps it alive and may change `cfg.engine.method`.
  DelayedVersions(const nn::Model& model, HogwildConfig& cfg, std::uint64_t seed);

  DelayedVersions(const DelayedVersions&) = delete;
  DelayedVersions& operator=(const DelayedVersions&) = delete;

  /// Samples this step's versions (trainer thread, once per step): one
  /// truncated-exponential delay per weight unit, in unit order, with mean
  /// tau_fwd of the unit's stage. A stage's forward and backward passes
  /// share the sampled version (eq. 17). No draws under Sync.
  void sample();

  /// Writes the weight view of the sampled versions into `out` (a
  /// full-size flat parameter buffer); the live weights under Sync.
  void assemble(std::span<float> out) const;

  pipeline::WeightVersions& store() { return store_; }
  const pipeline::WeightVersions& store() const { return store_; }
  const pipeline::Partition& partition() const { return partition_; }
  const pipeline::Schedule& schedule() const { return schedule_; }

 private:
  const HogwildConfig& cfg_;
  pipeline::Partition partition_;
  pipeline::Schedule schedule_;
  pipeline::WeightVersions store_;
  util::Rng rng_;
  std::vector<std::int64_t> unit_version_;  ///< per unit: sampled version
};

/// Drop-in execution engine with the same surface the core::train_loop
/// template expects, so Hogwild training reuses the full T1 trainer.
/// Registered with the core::BackendRegistry as "hogwild".
class HogwildEngine {
 public:
  HogwildEngine(const nn::Model& model, HogwildConfig cfg, std::uint64_t seed);

  using StepResult = pipeline::PipelineEngine::StepResult;

  StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                              const std::vector<tensor::Tensor>& micro_targets,
                              const nn::LossHead& head);

  std::span<float> weights() { return versions_.store().live(); }
  std::span<const float> weights() const { return versions_.store().live(); }
  std::span<float> gradients() { return grads_; }
  void commit_update() { versions_.store().commit_update(); }

  /// Sync disables the random delays (used for T3 warmup comparisons).
  void set_method(pipeline::Method m) { cfg_.engine.method = m; }
  pipeline::Method method() const { return cfg_.engine.method; }

  const nn::Model& model() const { return model_; }
  const pipeline::Partition& partition() const { return versions_.partition(); }

  /// Per-stage delay expectations (what T1 divides by).
  std::vector<double> stage_tau_fwd() const {
    return pipeline::stage_tau_fwd_vector(versions_.schedule());
  }

  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const {
    return pipeline::stage_lr_segments(versions_.partition(), base_lr, scales);
  }

 private:
  const nn::Model& model_;
  HogwildConfig cfg_;
  DelayedVersions versions_;
  std::vector<float> grads_;
};

}  // namespace pipemare::hogwild
