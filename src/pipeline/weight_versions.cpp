#include "src/pipeline/weight_versions.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/theory/stability.h"

namespace pipemare::pipeline {

// 64 unit-width buckets cover any realistic P/N or max_delay; see the
// header comment for the cross-backend sharing contract.
std::vector<obs::Histogram*> staleness_histograms(int stages) {
  std::vector<obs::Histogram*> h;
  h.reserve(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    h.push_back(&obs::MetricsRegistry::instance().histogram(
        "train.staleness.stage" + std::to_string(s),
        obs::Histogram::linear_bounds(0.0, 1.0, 64)));
  }
  return h;
}

WeightVersions::WeightVersions(const nn::Model& model, const EngineConfig& cfg,
                               const Partition& partition, const Schedule& schedule,
                               int max_delay, std::uint64_t seed)
    : cfg_(cfg), partition_(partition), schedule_(schedule) {
  live_.assign(static_cast<std::size_t>(model.param_count()), 0.0F);
  util::Rng rng(seed);
  model.init_params(live_, rng);
  if (cfg_.discrepancy_correction) {
    prev_live_ = live_;
    delta_.assign(live_.size(), 0.0F);
  }

  history_depth_ = max_delay + 2;
  history_.assign(static_cast<std::size_t>(history_depth_), {});
  history_[0] = live_;  // version 0 = initial weights
  staleness_ = staleness_histograms(partition_.num_stages);
}

const std::vector<float>& WeightVersions::version(std::int64_t v) const {
  if (v < 0) v = 0;
  if (v > step_ || v < step_ - history_depth_ + 1) {
    throw std::logic_error("WeightVersions: weight version outside history window");
  }
  const auto& slot = history_[static_cast<std::size_t>(v % history_depth_)];
  if (slot.empty()) throw std::logic_error("WeightVersions: empty history slot");
  return slot;
}

std::int64_t WeightVersions::delayed_version(int stage, std::int64_t delay) const {
  std::int64_t v = std::max<std::int64_t>(step_ - delay, 0);
  staleness_[static_cast<std::size_t>(stage)]->observe(static_cast<double>(step_ - v));
  return v;
}

void WeightVersions::assemble_forward_units(int ufirst, int ulast, int micro,
                                            std::span<float> out) const {
  for (int u = ufirst; u < ulast; ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    const float* src;
    if (cfg_.method == Method::Sync) {
      src = live_.data();
    } else {
      int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
      src = version(delayed_version(stage, schedule_.fwd_staleness(stage, micro))).data();
    }
    std::copy(src + unit.offset, src + unit.offset + unit.size,
              out.begin() + unit.offset);
  }
}

void WeightVersions::assemble_backward_units(int ufirst, int ulast, int micro,
                                             std::span<float> out) const {
  if (cfg_.method == Method::PipeDream) {
    // Synchronous-gradient semantics via stashing: the backward pass sees
    // exactly the weights the forward pass used, which are still resident
    // in the version history (the history *is* the stash).
    assemble_forward_units(ufirst, ulast, micro, out);
    return;
  }
  // Sync: backward == forward == live. PipeMare: tau_bkwd = 0, so the
  // backward reads the live weights...
  for (int u = ufirst; u < ulast; ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    std::copy(live_.begin() + unit.offset, live_.begin() + unit.offset + unit.size,
              out.begin() + unit.offset);
  }
  if (cfg_.method != Method::PipeMare || delta_.empty()) return;
  // ...optionally T2-corrected toward what the forward pass saw:
  // u_bkwd = w - (tau_fwd - tau_bkwd) * delta.
  for (int u = ufirst; u < ulast; ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    double gap = schedule_.mean_tau_fwd(stage);
    if (gap <= 0.0) continue;
    auto g = static_cast<float>(gap);
    for (std::int64_t i = unit.offset; i < unit.offset + unit.size; ++i) {
      out[static_cast<std::size_t>(i)] -= g * delta_[static_cast<std::size_t>(i)];
    }
  }
}

void WeightVersions::commit_update() {
  ++step_;
  if (!delta_.empty()) {
    for (int u = 0; u < partition_.num_units(); ++u) {
      const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
      int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
      double gap = schedule_.mean_tau_fwd(stage);
      double gamma = theory::gamma_from_decay(cfg_.decay_d, gap);
      auto gf = static_cast<float>(gamma);
      auto cf = static_cast<float>(1.0 - gamma);
      for (std::int64_t i = unit.offset; i < unit.offset + unit.size; ++i) {
        auto idx = static_cast<std::size_t>(i);
        delta_[idx] = gf * delta_[idx] + cf * (live_[idx] - prev_live_[idx]);
      }
    }
    prev_live_ = live_;
  }
  history_[static_cast<std::size_t>(step_ % history_depth_)] = live_;
}

}  // namespace pipemare::pipeline
