#include "src/pipeline/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/pipeline/repartition.h"

namespace pipemare::pipeline {

std::string method_name(Method m) {
  switch (m) {
    case Method::Sync: return "GPipe";
    case Method::PipeDream: return "PipeDream";
    case Method::PipeMare: return "PipeMare";
  }
  return "?";
}

StepResult merge_microbatches(std::span<const StepResult> micro, std::span<float> grads,
                              const std::function<void()>& accumulate) {
  const auto n = static_cast<int>(micro.size());
  StepResult result;
  for (const StepResult& m : micro) {
    if (!std::isfinite(m.loss)) {
      result.finite = false;
      result.loss = m.loss;
      result.correct = 0.0;
      result.count = 0.0;
      return result;
    }
    result.loss += m.loss / n;
    result.correct += m.correct;
    result.count += m.count;
  }
  if (accumulate) accumulate();
  auto inv_n = 1.0F / static_cast<float>(n);
  for (float& g : grads) {
    g *= inv_n;
    if (!std::isfinite(g)) result.finite = false;
  }
  return result;
}

std::vector<optim::LrSegment> stage_lr_segments(const Partition& partition,
                                                double base_lr,
                                                std::span<const double> scales) {
  std::vector<optim::LrSegment> segs;
  segs.reserve(static_cast<std::size_t>(partition.num_stages));
  std::int64_t offset = 0;
  for (int s = 0; s < partition.num_stages; ++s) {
    std::int64_t size = partition.stage_param_count[static_cast<std::size_t>(s)];
    double scale = scales.empty() ? 1.0 : scales[static_cast<std::size_t>(s)];
    segs.push_back({offset, size, base_lr * scale});
    offset += size;
  }
  return segs;
}

std::vector<double> stage_tau_fwd_vector(const Schedule& schedule) {
  std::vector<double> tau(static_cast<std::size_t>(schedule.stages()));
  for (int s = 0; s < schedule.stages(); ++s) {
    tau[static_cast<std::size_t>(s)] = schedule.mean_tau_fwd(s);
  }
  return tau;
}

PipelineEngine::PipelineEngine(const nn::Model& model, EngineConfig cfg, std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      partition_(make_partition(model, cfg_.num_stages, cfg_.split_bias, cfg_.partition)),
      schedule_(cfg_.num_stages, cfg_.num_microbatches),
      store_(model, cfg_, partition_, schedule_, schedule_.max_staleness(), seed) {
  // The probe microbatch is consumed by make_partition above; don't keep
  // its tensors alive for the whole engine lifetime.
  cfg_.partition.probe.reset();
  grads_.assign(store_.live().size(), 0.0F);

  if (cfg_.recompute_segments > 0) {
    int m = model_.num_modules();
    int r = std::min(cfg_.recompute_segments, m);
    for (int s = 0; s < r; ++s) {
      int first = s * m / r;
      int last = (s + 1) * m / r;
      if (first < last) segments_.emplace_back(first, last);
    }
  }
}

void PipelineEngine::repartition(const Partition& next) {
  validate_repartition(partition_, next);
  // WeightVersions borrows partition_ by reference, so assigning in place
  // re-points every staleness lookup at the new unit -> stage map; the
  // version ring and live weights are untouched (recompute segment ends
  // re-read module_stage per step, so they follow too).
  partition_ = next;
}

void PipelineEngine::assemble_forward_params(int micro, std::vector<float>& out) const {
  out.resize(store_.live().size());
  store_.assemble_forward_units(0, partition_.num_units(), micro, out);
}

void PipelineEngine::assemble_backward_params(int micro,
                                              const std::vector<float>& fwd_params,
                                              std::vector<float>& out) const {
  if (cfg_.method == Method::Sync || cfg_.method == Method::PipeDream) {
    // Synchronous semantics: the backward pass sees exactly the weights
    // the forward pass used (GPipe trivially; PipeDream via stashing).
    out = fwd_params;
    return;
  }
  out.resize(store_.live().size());
  store_.assemble_backward_units(0, partition_.num_units(), micro, out);
}

void PipelineEngine::assemble_recompute_params(int micro, int segment_end_stage,
                                               const std::vector<float>& fwd_params,
                                               std::vector<float>& out) const {
  if (cfg_.method != Method::PipeMare) {
    // Synchronous methods recompute with the same weights the forward
    // used, so recomputation is statistically invisible.
    out = fwd_params;
    return;
  }
  out.resize(store_.live().size());
  std::span<const float> delta = store_.delta();
  for (int u = 0; u < partition_.num_units(); ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    int stale = schedule_.recompute_staleness(std::min(stage, segment_end_stage), micro,
                                              segment_end_stage);
    // Stages after the segment end never recompute; give them their
    // forward weights (they are not used by the segment re-run anyway).
    if (stage > segment_end_stage) stale = schedule_.fwd_staleness(stage, micro);
    const std::vector<float>& src =
        store_.version(std::max<std::int64_t>(store_.step() - stale, 0));
    std::copy(src.begin() + unit.offset, src.begin() + unit.offset + unit.size,
              out.begin() + unit.offset);
    if (cfg_.discrepancy_correction && stage <= segment_end_stage) {
      // T2 for recompute (Appendix D): u_recomp = w_{t-tau_r} -
      // (tau_fwd - tau_recomp) * delta.
      double gap = schedule_.mean_tau_fwd(stage) -
                   schedule_.mean_tau_recompute(stage, segment_end_stage);
      if (gap > 0.0) {
        auto g = static_cast<float>(gap);
        for (std::int64_t i = unit.offset; i < unit.offset + unit.size; ++i) {
          out[static_cast<std::size_t>(i)] -= g * delta[static_cast<std::size_t>(i)];
        }
      }
    }
  }
}

PipelineEngine::StepResult PipelineEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  int n = cfg_.num_microbatches;
  if (static_cast<int>(micro_inputs.size()) != n ||
      static_cast<int>(micro_targets.size()) != n) {
    throw std::invalid_argument("forward_backward: expected N microbatches");
  }
  std::fill(grads_.begin(), grads_.end(), 0.0F);
  std::vector<StepResult> results(static_cast<std::size_t>(n));
  std::vector<float> w_fwd, w_bkwd, w_rec;
  auto caches = model_.make_caches();
  for (int micro = 0; micro < n; ++micro) {
    assemble_forward_params(micro, w_fwd);

    nn::Flow input = micro_inputs[static_cast<std::size_t>(micro)];
    input.training = true;
    input.micro = micro;
    input.step = store_.step();
    nn::Flow out;
    std::vector<nn::Flow> checkpoints;  // segment input snapshots
    if (segments_.empty()) {
      out = model_.forward(std::move(input), w_fwd, caches);
    } else {
      nn::Flow cur = std::move(input);
      for (const auto& [first, last] : segments_) {
        checkpoints.push_back(cur);
        cur = model_.forward_range(first, last, std::move(cur), w_fwd, caches);
      }
      out = std::move(cur);
    }

    nn::LossResult lr = head.forward_backward(out.x, micro_targets[static_cast<std::size_t>(micro)]);
    results[static_cast<std::size_t>(micro)] = {lr.loss, lr.correct, lr.count};
    if (!std::isfinite(lr.loss)) break;  // the merge reports it; gradients unspecified

    assemble_backward_params(micro, w_fwd, w_bkwd);
    if (!segments_.empty()) {
      // Rebuild every segment's activation caches from its checkpoint
      // using recompute-scheduled weights (PipeMare Recompute).
      for (std::size_t s = 0; s < segments_.size(); ++s) {
        auto [first, last] = segments_[s];
        int end_stage = partition_.module_stage[static_cast<std::size_t>(last - 1)];
        assemble_recompute_params(micro, end_stage, w_fwd, w_rec);
        (void)model_.forward_range(first, last, checkpoints[s], w_rec, caches);
      }
    }
    nn::Flow dflow;
    dflow.x = lr.doutput;
    (void)model_.backward(std::move(dflow), w_bkwd, caches, grads_);
  }
  // Microbatch gradients are each a mean over their M samples; dividing
  // the accumulated sum by N yields the minibatch-mean gradient, matching
  // the convention the hyperparameters are tuned for.
  return merge_microbatches(results, grads_);
}

}  // namespace pipemare::pipeline
