#include "src/hogwild/hogwild.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pipemare::hogwild {

void validate_config(const HogwildConfig& cfg) {
  if (cfg.engine.num_stages < 1) {
    throw std::invalid_argument("HogwildConfig: num_stages >= 1 required");
  }
  if (cfg.engine.num_microbatches < 1) {
    throw std::invalid_argument("HogwildConfig: num_microbatches >= 1 required");
  }
  if (!std::isfinite(cfg.max_delay) || cfg.max_delay < 0.0) {
    throw std::invalid_argument("HogwildConfig: max_delay must be finite and >= 0");
  }
  if (cfg.num_workers < 0) {
    throw std::invalid_argument("HogwildConfig: num_workers >= 0 required");
  }
}

namespace {

pipeline::Partition hogwild_partition(const nn::Model& model, HogwildConfig& cfg) {
  validate_config(cfg);
  cfg.engine.discrepancy_correction = false;
  pipeline::Partition partition = pipeline::make_partition(
      model, cfg.engine.num_stages, cfg.engine.split_bias, cfg.engine.partition);
  // The probe microbatch is consumed here; don't keep its tensors alive
  // for the whole engine lifetime.
  cfg.engine.partition.probe.reset();
  return partition;
}

}  // namespace

DelayedVersions::DelayedVersions(const nn::Model& model, HogwildConfig& cfg,
                                 std::uint64_t seed)
    : cfg_(cfg),
      partition_(hogwild_partition(model, cfg)),
      schedule_(cfg.engine.num_stages, cfg.engine.num_microbatches),
      store_(model, cfg.engine, partition_, schedule_,
             static_cast<int>(std::ceil(cfg.max_delay)), seed),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      unit_version_(static_cast<std::size_t>(partition_.num_units()), 0) {}

void DelayedVersions::sample() {
  if (cfg_.engine.method == pipeline::Method::Sync) return;
  for (int u = 0; u < partition_.num_units(); ++u) {
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    auto delay = static_cast<std::int64_t>(std::llround(
        rng_.truncated_exponential(schedule_.mean_tau_fwd(stage), cfg_.max_delay)));
    unit_version_[static_cast<std::size_t>(u)] = store_.delayed_version(stage, delay);
  }
}

void DelayedVersions::assemble(std::span<float> out) const {
  if (cfg_.engine.method == pipeline::Method::Sync) {
    std::copy(store_.live().begin(), store_.live().end(), out.begin());
    return;
  }
  for (int u = 0; u < partition_.num_units(); ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    const auto& src = store_.version(unit_version_[static_cast<std::size_t>(u)]);
    std::copy(src.begin() + unit.offset, src.begin() + unit.offset + unit.size,
              out.begin() + unit.offset);
  }
}

HogwildEngine::HogwildEngine(const nn::Model& model, HogwildConfig cfg, std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      versions_(model, cfg_, seed),
      grads_(versions_.store().live().size(), 0.0F) {}

HogwildEngine::StepResult HogwildEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  auto n = static_cast<int>(micro_inputs.size());
  if (n == 0 || micro_targets.size() != micro_inputs.size()) {
    throw std::invalid_argument("HogwildEngine: bad microbatch vectors");
  }
  // Sample the delayed versions once per optimizer step; every microbatch
  // reads the same view.
  versions_.sample();
  std::vector<float> w(grads_.size());
  versions_.assemble(w);

  std::fill(grads_.begin(), grads_.end(), 0.0F);
  std::vector<StepResult> micro(static_cast<std::size_t>(n));
  auto caches = model_.make_caches();
  for (int m = 0; m < n; ++m) {
    auto idx = static_cast<std::size_t>(m);
    nn::Flow input = micro_inputs[idx];
    input.training = true;
    input.micro = m;
    input.step = versions_.store().step();
    nn::Flow out = model_.forward(std::move(input), w, caches);
    auto lr = head.forward_backward(out.x, micro_targets[idx]);
    micro[idx] = {lr.loss, lr.correct, lr.count};
    if (!std::isfinite(lr.loss)) break;  // the merge reports it; gradients unspecified
    nn::Flow dflow;
    dflow.x = lr.doutput;
    (void)model_.backward(std::move(dflow), w, caches, grads_);
  }
  return pipeline::merge_microbatches(micro, grads_);
}

}  // namespace pipemare::hogwild
