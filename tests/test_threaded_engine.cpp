// The "threaded" backend: the stage-per-thread 1F1B preset of
// sched::StealingEngine (W = P workers, stealing disabled), reached through
// the BackendRegistry. Bitwise parity with the sequential PipelineEngine
// across methods, partitions and dropout; the per-stage load counters; and
// the 1F1B in-flight bound over a (P, N, W) sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/resnet.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/util/rng.h"

namespace pipemare::pipeline {
namespace {

/// Small CNN shared by the parity tests (same recipe as bench/micro_engine's
/// engine benchmark). Models own their modules, so each engine builds its
/// own identical copy.
nn::Model make_parity_resnet() {
  nn::ResNetConfig mc;
  mc.base_channels = 8;
  mc.blocks_per_group = {1, 1};
  return nn::make_resnet(mc);
}

/// Random classification microbatches of shape `sample` (batch 2).
struct Microbatches {
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  Microbatches(int num_micro, std::vector<int> sample, int classes,
               std::uint64_t seed) {
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor(sample);
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({2});
      for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(classes));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

Microbatches resnet_batches(int num_micro) { return {num_micro, {2, 3, 8, 8}, 10, 3}; }

/// A deep MLP of `layers` Linear(+ReLU) blocks: `layers` weight units, so
/// any P <= layers partitions cleanly; uniform per-layer cost.
nn::Model make_stress_mlp(int layers, int width, int classes) {
  nn::Model m;
  for (int i = 0; i < layers; ++i) {
    m.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(width, classes));
  return m;
}

EngineConfig parity_config(Method method, int stages, int micro) {
  EngineConfig ec;
  ec.method = method;
  ec.num_stages = stages;
  ec.num_microbatches = micro;
  return ec;
}

std::unique_ptr<core::ExecutionBackend> make_backend(nn::Model model, const EngineConfig& ec,
                                                     core::BackendConfig backend = "threaded") {
  return core::BackendRegistry::instance().create(std::move(model), backend, ec, 1);
}

/// The StealingEngine behind a "threaded" / "threaded_steal" backend.
const sched::StealingEngine& engine_of(const core::ExecutionBackend& backend) {
  return dynamic_cast<const core::ThreadedStealBackend&>(backend).engine();
}

/// Runs `steps` SGD steps on the sequential engine and the backend and
/// asserts bitwise-equal losses, gradients and weights at every step.
void expect_bitwise_steps(PipelineEngine& seq, core::ExecutionBackend& thr,
                          const std::vector<nn::Flow>& inputs,
                          const std::vector<tensor::Tensor>& targets,
                          const nn::LossHead& head, int steps, const std::string& label) {
  for (int step = 0; step < steps; ++step) {
    auto rs = seq.forward_backward(inputs, targets, head);
    auto rt = thr.forward_backward(inputs, targets, head);
    ASSERT_EQ(rs.finite, rt.finite) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.loss, rt.loss) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rs.correct, rt.correct) << label << " step " << step;
    auto gs = seq.gradients();
    auto gt = thr.gradients();
    ASSERT_EQ(gs.size(), gt.size()) << label;
    for (std::size_t i = 0; i < gs.size(); ++i) {
      ASSERT_EQ(gs[i], gt[i]) << label << " grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gs.size(); ++i) {
      seq.weights()[i] -= 0.05F * gs[i];
      thr.weights()[i] -= 0.05F * gt[i];
    }
    seq.commit_update();
    thr.commit_update();
  }
  for (std::size_t i = 0; i < seq.weights().size(); ++i) {
    ASSERT_EQ(seq.weights()[i], thr.weights()[i]) << label << " weight " << i;
  }
}

void expect_bitwise_parity(const EngineConfig& ec, int steps) {
  nn::Model model = make_parity_resnet();
  auto mb = resnet_batches(ec.num_microbatches);
  nn::ClassificationXent head;
  PipelineEngine seq(model, ec, 1);
  auto thr = make_backend(make_parity_resnet(), ec);
  expect_bitwise_steps(seq, *thr, mb.inputs, mb.targets, head, steps,
                       method_name(ec.method));
}

TEST(ThreadedEngine, BitwiseParityWithSequentialSync) {
  expect_bitwise_parity(parity_config(Method::Sync, 4, 4), 5);
}

TEST(ThreadedEngine, BitwiseParityWithSequentialPipeDream) {
  expect_bitwise_parity(parity_config(Method::PipeDream, 4, 4), 5);
}

TEST(ThreadedEngine, BitwiseParityWithSequentialPipeMare) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 4, 4), 5);
}

TEST(ThreadedEngine, BitwiseParityWithDiscrepancyCorrection) {
  auto ec = parity_config(Method::PipeMare, 6, 2);
  ec.discrepancy_correction = true;
  ec.decay_d = 0.25;
  expect_bitwise_parity(ec, 5);
}

TEST(ThreadedEngine, BitwiseParityWithSplitBiasUnits) {
  // split_bias can schedule a module's bias unit on the stage after the
  // one executing the module; the threaded backend must still version
  // that unit by its own scheduled stage.
  int stages = max_stages(make_parity_resnet(), true);
  auto ec = parity_config(Method::PipeMare, stages, 2);
  ec.split_bias = true;
  expect_bitwise_parity(ec, 3);
}

TEST(ThreadedEngine, SingleStageDegeneratesToSequential) {
  expect_bitwise_parity(parity_config(Method::PipeMare, 1, 4), 3);
}

TEST(ThreadedEngine, BitwiseParityWithBalancedPartition) {
  // Both engines derive the same cost-balanced partition from the shared
  // spec, so the parity guarantee is strategy-independent.
  auto mb = resnet_batches(4);
  auto ec = parity_config(Method::PipeMare, 4, 4);
  ec.partition.strategy = PartitionStrategy::Balanced;
  ec.partition.probe = std::make_shared<const nn::Flow>(mb.inputs.at(0));
  nn::Model model = make_parity_resnet();
  nn::ClassificationXent head;
  PipelineEngine seq(model, ec, 1);
  auto thr = make_backend(make_parity_resnet(), ec);
  ASSERT_NE(thr->partition(), nullptr);
  EXPECT_EQ(seq.partition().unit_stage, thr->partition()->unit_stage);
  EXPECT_EQ(thr->partition()->strategy, PartitionStrategy::Balanced);
  expect_bitwise_steps(seq, *thr, mb.inputs, mb.targets, head, 3, "balanced");
}

TEST(ThreadedEngine, StageStatsTrackPerStageLoad) {
  const int stages = 3;
  const int micro = 4;
  auto mb = resnet_batches(micro);
  nn::ClassificationXent head;
  auto thr = make_backend(make_parity_resnet(), parity_config(Method::PipeMare, stages, micro));

  auto before = thr->stage_stats();
  ASSERT_EQ(before.size(), static_cast<std::size_t>(stages));
  for (const auto& s : before) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }

  const int steps = 2;
  for (int step = 0; step < steps; ++step) {
    (void)thr->forward_backward(mb.inputs, mb.targets, head);
    thr->commit_update();
  }

  auto after = thr->stage_stats();
  for (int s = 0; s < stages; ++s) {
    const auto& st = after[static_cast<std::size_t>(s)];
    EXPECT_GT(st.busy_ns, 0u) << "stage " << s;
    // Every stage runs N forward and N backward tasks per minibatch.
    EXPECT_EQ(st.items, static_cast<std::uint64_t>(steps * micro * 2)) << "stage " << s;
    EXPECT_EQ(st.stolen_items, 0u) << "stage " << s;
    EXPECT_EQ(st.push_wait_ns, 0u) << "stage " << s;
    // A downstream stage's worker idles until the first activation
    // reaches it: that wait is the stage's pipeline bubble.
    if (s > 0) {
      EXPECT_GT(st.pop_wait_ns, 0u) << "stage " << s;
    }
  }

  for (std::size_t peak : engine_of(*thr).inflight_high_water()) EXPECT_GE(peak, 1u);

  thr->reset_stage_stats();
  for (const auto& s : thr->stage_stats()) {
    EXPECT_EQ(s.busy_ns, 0u);
    EXPECT_EQ(s.pop_wait_ns, 0u);
    EXPECT_EQ(s.push_wait_ns, 0u);
    EXPECT_EQ(s.items, 0u);
  }
  for (std::size_t peak : engine_of(*thr).inflight_high_water()) EXPECT_EQ(peak, 0u);
}

TEST(ThreadedEngine, StageLoadObserverSamplesEpochDeltas) {
  auto mb = resnet_batches(2);
  nn::ClassificationXent head;
  auto thr = make_backend(make_parity_resnet(), parity_config(Method::PipeMare, 2, 2));
  core::StageLoadObserver load(*thr);
  ASSERT_TRUE(load.active());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)thr->forward_backward(mb.inputs, mb.targets, head);
    thr->commit_update();
    core::EpochRecord rec;
    load.on_epoch(rec);
  }
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  for (const auto& epoch : load.epoch_stats()) {
    ASSERT_EQ(epoch.size(), 2u);
    for (const auto& s : epoch) EXPECT_GT(s.items, 0u);
  }
  EXPECT_GE(core::StageLoadObserver::busy_spread(load.totals()), 1.0);
}

TEST(ThreadedEngine, BitwiseParityWithDropoutStreams) {
  // Dropout masks are counter-based: pure functions of (module seed, step,
  // micro, element) stamped on the Flow, so the threaded backend reproduces
  // the sequential engine's masks bitwise regardless of worker timing.
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 32;
  d.test_size = 8;
  d.seed = 3;
  nn::TransformerConfig mc;
  mc.d_model = 16;
  mc.heads = 2;
  mc.enc_layers = 1;
  mc.dec_layers = 1;
  mc.ffn_hidden = 24;
  mc.dropout = 0.3;
  core::TranslationTask task(d, mc, "tiny-dropout", /*eval=*/8);
  nn::Model model_seq = task.build_model();

  auto ec = parity_config(Method::PipeMare, 4, 2);
  PipelineEngine seq(model_seq, ec, 1);
  auto thr = make_backend(task.build_model(), ec);

  auto mb = task.minibatch({0, 1, 2, 3}, 2);
  expect_bitwise_steps(seq, *thr, mb.inputs, mb.targets, task.loss(), 3, "dropout");
}

TEST(ThreadedEngine, MatchesSequentialStalenessStatistics) {
  auto ec = parity_config(Method::PipeMare, 8, 4);
  nn::Model model = make_parity_resnet();
  PipelineEngine seq(model, ec, 1);
  auto thr = make_backend(make_parity_resnet(), ec);
  auto tau_s = seq.stage_tau_fwd();
  auto tau_t = thr->stage_tau_fwd();
  ASSERT_EQ(tau_s.size(), tau_t.size());
  for (std::size_t s = 0; s < tau_s.size(); ++s) {
    EXPECT_DOUBLE_EQ(tau_s[s], tau_t[s]);
    // The paper's closed form (2(P-i)+1)/N for 1-indexed stage i.
    EXPECT_DOUBLE_EQ(tau_t[s], (2.0 * (8 - 1 - static_cast<double>(s)) + 1.0) / 4.0);
  }
}

TEST(ThreadedEngine, PresetIsOneWorkerPerStageWithoutStealing) {
  auto ec = parity_config(Method::PipeMare, 8, 4);
  auto thr = make_backend(make_parity_resnet(), ec);
  EXPECT_EQ(thr->name(), "threaded");
  const auto& eng = engine_of(*thr);
  EXPECT_EQ(eng.num_workers(), 8);
  EXPECT_EQ(eng.config().mode, sched::StealMode::Disabled);
  // Stealing off never reads the victim order, so the policy is not seeded
  // (no cost-model profiling at construction).
  EXPECT_TRUE(eng.policy().victim_order().empty());
}

TEST(ThreadedEngine, RejectsRecomputeSegments) {
  auto ec = parity_config(Method::PipeMare, 4, 2);
  ec.recompute_segments = 2;
  EXPECT_THROW(make_backend(make_parity_resnet(), ec), std::invalid_argument);
}

TEST(ThreadedEngine, TrainLoopParityOnTinyTranslation) {
  // End-to-end: core::train drives either backend to the same loss
  // trajectory and metric curve (Sync and fully-async PipeMare).
  data::TranslationConfig d;
  d.vocab = 12;
  d.seq_len = 5;
  d.train_size = 64;
  d.test_size = 16;
  d.seed = 3;
  nn::TransformerConfig m;
  m.d_model = 16;
  m.heads = 2;
  m.enc_layers = 1;
  m.dec_layers = 1;
  m.ffn_hidden = 24;
  core::TranslationTask task(d, m, "tiny-parity", /*eval=*/8);

  for (auto method : {Method::Sync, Method::PipeMare}) {
    core::TrainerConfig cfg;
    cfg.epochs = 2;
    cfg.minibatch_size = 16;
    cfg.microbatch_size = 4;
    cfg.optimizer = core::TrainerConfig::Opt::AdamW;
    cfg.schedule = core::TrainerConfig::Sched::InverseSqrt;
    cfg.lr = 4e-3;
    cfg.sched_warmup_steps = 10;
    cfg.seed = 7;
    cfg.engine.method = method;
    cfg.engine.num_stages = 4;

    auto seq_res = core::train(task, cfg);
    cfg.backend = "threaded";
    auto thr_res = core::train(task, cfg);

    ASSERT_EQ(seq_res.curve.size(), thr_res.curve.size()) << method_name(method);
    for (std::size_t e = 0; e < seq_res.curve.size(); ++e) {
      EXPECT_DOUBLE_EQ(seq_res.curve[e].train_loss, thr_res.curve[e].train_loss)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].metric, thr_res.curve[e].metric)
          << method_name(method) << " epoch " << e;
      EXPECT_DOUBLE_EQ(seq_res.curve[e].param_norm, thr_res.curve[e].param_norm)
          << method_name(method) << " epoch " << e;
    }
  }
}

TEST(ThreadedEngine, SmallLaneStressSweepHoldsOneFOneBBound) {
  // Sweep (P, N) in {1..4} x {1..8} on the "threaded" preset and on
  // "threaded_steal" with W in {1, 2} under forced stealing. Every config
  // must (a) stay bitwise-identical to the sequential engine (the 1F1B
  // admission rule neither deadlocks nor changes a float) and (b) keep
  // every stage's in-flight peak within the warmup depth
  // max(1, min(N, P - s)) for 0-indexed stage s. Stage 0 reaches its
  // bound exactly: all N inputs are ready before any backward retires.
  constexpr int kClasses = 6;
  nn::ClassificationXent head;
  std::vector<std::pair<std::string, core::BackendConfig>> backends = {
      {"threaded", core::BackendConfig("threaded")}};
  for (int w : {1, 2}) {
    core::StealOptions opts;
    opts.workers = w;
    opts.mode = sched::StealMode::Forced;
    backends.push_back({"threaded_steal W=" + std::to_string(w), {"threaded_steal", opts}});
  }
  for (const auto& [name, backend] : backends) {
    for (int p = 1; p <= 4; ++p) {
      for (int n = 1; n <= 8; ++n) {
        const std::string label =
            name + " P=" + std::to_string(p) + " N=" + std::to_string(n);
        Microbatches mb(n, {2, 12}, kClasses, 17);
        nn::Model model = make_stress_mlp(/*layers=*/4, /*width=*/12, kClasses);
        auto ec = parity_config(Method::PipeMare, p, n);
        PipelineEngine seq(model, ec, 1);
        auto thr = make_backend(make_stress_mlp(4, 12, kClasses), ec, backend);
        expect_bitwise_steps(seq, *thr, mb.inputs, mb.targets, head, 3, label);

        auto inflight = engine_of(*thr).inflight_high_water();
        ASSERT_EQ(inflight.size(), static_cast<std::size_t>(p)) << label;
        for (int s = 0; s < p; ++s) {
          auto warmup = static_cast<std::size_t>(std::max(1, std::min(n, p - s)));
          EXPECT_GE(inflight[static_cast<std::size_t>(s)], 1u) << label << " s=" << s;
          EXPECT_LE(inflight[static_cast<std::size_t>(s)], warmup) << label << " s=" << s;
        }
        EXPECT_EQ(inflight[0], static_cast<std::size_t>(std::min(n, p))) << label;
      }
    }
  }
}

TEST(ThreadedEngine, NonFiniteLossContractMatchesSequential) {
  // Unified StepResult contract: first non-finite loss, zeroed metrics.
  static constexpr int kClasses = 6;
  auto ec = parity_config(Method::PipeMare, 4, 4);
  // Linear-only chain: ReLU maps NaN to 0 (x > 0 ? x : 0), so an
  // activation would wash the poison out before it reaches the loss.
  auto linear_chain = [] {
    nn::Model model;
    for (int i = 0; i < 4; ++i) model.add(std::make_unique<nn::Linear>(12, 12));
    model.add(std::make_unique<nn::Linear>(12, kClasses));
    return model;
  };
  nn::ClassificationXent head;
  Microbatches mb(ec.num_microbatches, {2, 12}, kClasses, 17);
  // Poison microbatch 2 so earlier microbatches accumulate loss/metrics
  // that the contract requires the engines to discard. (An MLP propagates
  // the NaN to the loss; normalization layers could wash out mere infs.)
  for (std::int64_t i = 0; i < mb.inputs[2].x.size(); ++i) {
    mb.inputs[2].x[i] = std::numeric_limits<float>::quiet_NaN();
  }
  nn::Model model = linear_chain();
  PipelineEngine seq(model, ec, 1);
  auto thr = make_backend(linear_chain(), ec);
  auto rs = seq.forward_backward(mb.inputs, mb.targets, head);
  auto rt = thr->forward_backward(mb.inputs, mb.targets, head);
  EXPECT_FALSE(rs.finite);
  EXPECT_FALSE(rt.finite);
  EXPECT_FALSE(std::isfinite(rs.loss));
  EXPECT_FALSE(std::isfinite(rt.loss));
  EXPECT_EQ(rs.correct, 0.0);
  EXPECT_EQ(rs.count, 0.0);
  EXPECT_EQ(rt.correct, 0.0);
  EXPECT_EQ(rt.count, 0.0);
}

}  // namespace
}  // namespace pipemare::pipeline
