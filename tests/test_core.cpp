#include <gtest/gtest.h>

#include "src/core/delayed_sgd.h"
#include "src/core/experiments.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/hogwild/hogwild.h"
#include "src/pipeline/partition.h"

namespace pipemare::core {
namespace {

/// Small, fast image task for trainer tests.
std::unique_ptr<ImageTask> tiny_image_task(std::uint64_t seed = 11) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 256;
  d.test_size = 96;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = seed;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  return std::make_unique<ImageTask>(d, m, "tiny-image");
}

TrainerConfig tiny_config(pipeline::Method method, int stages, int epochs) {
  TrainerConfig cfg;
  cfg.engine.method = method;
  cfg.engine.num_stages = stages;
  cfg.epochs = epochs;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.weight_decay = 1e-4;
  cfg.seed = 5;
  return cfg;
}

TEST(Trainer, SyncLearnsTinyImageTask) {
  auto task = tiny_image_task();
  auto cfg = tiny_config(pipeline::Method::Sync, 4, 5);
  auto result = train(*task, cfg);
  ASSERT_FALSE(result.diverged);
  ASSERT_EQ(result.curve.size(), 5u);
  // Chance level is 25%; a learnable task should be well beyond it.
  EXPECT_GT(result.best_metric, 60.0);
}

TEST(Trainer, PipeMareWithT1T2TracksSync) {
  auto task = tiny_image_task();
  int stages = pipeline::max_stages(task->build_model(), false);
  auto sync_cfg = tiny_config(pipeline::Method::Sync, stages, 6);
  auto sync = train(*task, sync_cfg);

  auto pm_cfg = tiny_config(pipeline::Method::PipeMare, stages, 6);
  pm_cfg.t1 = true;
  pm_cfg.t1_annealing_steps = 24;
  pm_cfg.engine.discrepancy_correction = true;
  pm_cfg.engine.decay_d = 0.5;
  auto pm = train(*task, pm_cfg);
  ASSERT_FALSE(pm.diverged);
  EXPECT_GT(pm.best_metric, sync.best_metric - 15.0);
  EXPECT_GT(pm.best_metric, 50.0);
}

TEST(Trainer, NaiveAsyncWorseThanT1AtAggressiveLr) {
  // The Section 3.1 phenomenon: at a step size the synchronous baseline
  // tolerates, naive asynchronous training degrades or diverges, and T1
  // recovers most of the loss.
  auto task = tiny_image_task(13);
  int stages = pipeline::max_stages(task->build_model(), false);
  auto naive_cfg = tiny_config(pipeline::Method::PipeMare, stages, 4);
  naive_cfg.minibatch_size = 32;
  naive_cfg.microbatch_size = 16;  // N=2: large per-step delay (2P-1)/2
  naive_cfg.lr = 0.2;
  auto naive = train(*task, naive_cfg);

  auto t1_cfg = naive_cfg;
  t1_cfg.t1 = true;
  t1_cfg.t1_annealing_steps = 1000;  // stay in the rescaled regime
  auto with_t1 = train(*task, t1_cfg);

  auto sync_cfg = naive_cfg;
  sync_cfg.engine.method = pipeline::Method::Sync;
  auto sync = train(*task, sync_cfg);

  ASSERT_FALSE(sync.diverged);
  bool naive_bad = naive.diverged || naive.best_metric < sync.best_metric - 10.0;
  EXPECT_TRUE(naive_bad) << "naive=" << naive.best_metric
                         << " sync=" << sync.best_metric;
  EXPECT_FALSE(with_t1.diverged);
  EXPECT_GT(with_t1.best_metric + 1e-9, naive.diverged ? 0.0 : naive.best_metric);
}

TEST(Trainer, WarmupEpochsMatchSyncPrefix) {
  // With T3, the first warmup epochs must be bit-identical to a pure
  // synchronous run with the same seed.
  auto task = tiny_image_task(17);
  auto pm_cfg = tiny_config(pipeline::Method::PipeMare, 6, 3);
  pm_cfg.warmup_epochs = 2;
  auto pm = train(*task, pm_cfg);
  auto sync_cfg = tiny_config(pipeline::Method::Sync, 6, 3);
  auto sync = train(*task, sync_cfg);
  ASSERT_GE(pm.curve.size(), 2u);
  ASSERT_GE(sync.curve.size(), 2u);
  for (int e = 0; e < 2; ++e) {
    EXPECT_NEAR(pm.curve[static_cast<std::size_t>(e)].train_loss,
                sync.curve[static_cast<std::size_t>(e)].train_loss, 1e-9);
    EXPECT_NEAR(pm.curve[static_cast<std::size_t>(e)].metric,
                sync.curve[static_cast<std::size_t>(e)].metric, 1e-9);
  }
}

/// Records every train_loop hook invocation.
struct CountingObserver final : StepObserver {
  int steps = 0;
  int epochs = 0;
  std::vector<std::pair<pipeline::Method, pipeline::Method>> switches;
  std::vector<int> switch_epochs;
  std::vector<double> seconds;
  StepInfo last_step;

  void on_step(const StepInfo& info) override {
    ++steps;
    last_step = info;
  }
  void on_epoch(EpochRecord& rec) override {
    ++epochs;
    seconds.push_back(rec.seconds);
  }
  void on_method_switch(pipeline::Method from, pipeline::Method to,
                        int epoch) override {
    switches.emplace_back(from, to);
    switch_epochs.push_back(epoch);
  }
};

TEST(Trainer, StepObserverSeesStepsEpochsAndMethodSwitches) {
  auto task = tiny_image_task();
  auto cfg = tiny_config(pipeline::Method::PipeMare, 4, 3);
  cfg.warmup_epochs = 1;  // T3: Sync engage at epoch 0, async switch at epoch 2
  CountingObserver obs;
  StepObserver* observers[] = {&obs};
  auto result = train(*task, cfg, observers);
  ASSERT_FALSE(result.diverged);

  int steps_per_epoch = 256 / cfg.minibatch_size;
  EXPECT_EQ(obs.steps, steps_per_epoch * 3);
  EXPECT_EQ(obs.epochs, 3);
  EXPECT_EQ(obs.last_step.epoch, 3);
  EXPECT_EQ(obs.last_step.step, steps_per_epoch * 3 - 1);
  EXPECT_TRUE(obs.last_step.async);
  EXPECT_TRUE(std::isfinite(obs.last_step.loss));

  ASSERT_EQ(obs.switches.size(), 2u);
  EXPECT_EQ(obs.switches[0].second, pipeline::Method::Sync);
  EXPECT_EQ(obs.switch_epochs[0], 0);
  EXPECT_EQ(obs.switches[1].first, pipeline::Method::Sync);
  EXPECT_EQ(obs.switches[1].second, pipeline::Method::PipeMare);
  EXPECT_EQ(obs.switch_epochs[1], 2);

  // The built-in EpochTimer runs ahead of user observers, so every record
  // the observer saw (and the returned curve) carries wall-clock seconds.
  ASSERT_EQ(obs.seconds.size(), result.curve.size());
  for (std::size_t e = 0; e < result.curve.size(); ++e) {
    EXPECT_GT(obs.seconds[e], 0.0);
    EXPECT_EQ(obs.seconds[e], result.curve[e].seconds);
  }
}

TEST(Trainer, MidEpochDivergenceEmitsFinalEpochRecord) {
  // Force divergence on the first minibatch of epoch 1 by declaring any
  // loss divergent; the curve must still end with a divergence record so
  // Figure 7-style probes see the blow-up point.
  auto task = tiny_image_task();
  auto cfg = tiny_config(pipeline::Method::PipeMare, 4, 3);
  cfg.divergence_loss = 1e-12;
  auto result = train(*task, cfg);
  ASSERT_TRUE(result.diverged);
  ASSERT_EQ(result.curve.size(), 1u);
  const EpochRecord& last = result.curve.back();
  EXPECT_TRUE(last.is_divergence_record());
  EXPECT_EQ(last.epoch, 1);
  EXPECT_GT(last.train_loss, cfg.divergence_loss);  // the observed loss
  EXPECT_GT(last.param_norm, 0.0);
  // No finished epoch: the divergence record must not affect best_metric
  // or the completed-epoch count.
  EXPECT_EQ(result.epochs_completed(), 0);
  EXPECT_EQ(result.best_epoch, -1);
  EXPECT_EQ(result.best_metric, 0.0);
}

TEST(Trainer, EpochsToTarget) {
  TrainResult r;
  r.curve = {{1, 1.0, 50.0, 0.0, 0.0}, {2, 0.5, 70.0, 0.0, 0.0}, {3, 0.3, 70.5, 0.0, 0.0}};
  EXPECT_EQ(r.epochs_to_target(60.0), 2);
  EXPECT_EQ(r.epochs_to_target(90.0), -1);
}

TEST(Experiments, CompareMethodsProducesTableRows) {
  auto task = tiny_image_task(19);
  auto cfg = tiny_config(pipeline::Method::PipeMare, 6, 3);
  cfg.t1 = true;
  cfg.t1_annealing_steps = 16;
  cfg.engine.discrepancy_correction = true;
  auto rows = compare_methods(*task, cfg, 5.0);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].label, "GPipe");
  EXPECT_EQ(rows[1].label, "PipeDream");
  EXPECT_EQ(rows[2].label, "PipeMare");
  // GPipe: reference memory 1.0X, budget throughput 0.3.
  EXPECT_NEAR(rows[0].memory_factor, 1.0, 1e-9);
  EXPECT_NEAR(rows[0].throughput, 0.3, 1e-9);
  // PipeDream: stash makes it the memory-hungry method.
  EXPECT_GT(rows[1].memory_factor, rows[2].memory_factor);
  // PipeMare with T2: 4/3 with SGD momentum.
  EXPECT_NEAR(rows[2].memory_factor, 4.0 / 3.0, 1e-9);
  // Speedup of the reference against itself is 1.
  EXPECT_NEAR(rows[0].speedup_vs_gpipe, 1.0, 1e-9);
  // Target = best - gap.
  double best = std::max({rows[0].best_metric, rows[1].best_metric, rows[2].best_metric});
  EXPECT_NEAR(rows[0].target_metric, best - 5.0, 1e-9);
}

TEST(Experiments, AblationStudyLabelsAndMemory) {
  auto task = tiny_image_task(23);
  auto cfg = tiny_config(pipeline::Method::PipeMare, 6, 2);
  std::vector<AblationSpec> specs = {
      {"T1 Only", true, false, 0},
      {"T2 Only", false, true, 0},
      {"T1+T2", true, true, 0},
  };
  auto rows = ablation_study(*task, cfg, specs, 2.0);
  ASSERT_EQ(rows.size(), 4u);  // GPipe reference + 3 variants
  EXPECT_NEAR(rows[1].memory_factor, 1.0, 1e-9);        // T1 only: no extra memory
  EXPECT_NEAR(rows[2].memory_factor, 4.0 / 3.0, 1e-9);  // T2: +delta buffer
}

TEST(DelayedSgd, RegressionStableBelowLemma1Threshold) {
  data::RegressionConfig rc;
  rc.size = 256;
  rc.seed = 3;
  RegressionTask task(rc);
  double lambda = task.dataset().lambda_max();
  int tau = 8;
  double alpha_star = 2.0 / lambda * std::sin(std::numbers::pi / (4.0 * tau + 2.0));

  DelayedSgdConfig cfg;
  cfg.tau_fwd = cfg.tau_bkwd = tau;
  cfg.iterations = 4000;
  cfg.minibatch_size = 32;
  cfg.alpha = 0.5 * alpha_star;
  auto stable = run_delayed_sgd(task, cfg);
  EXPECT_FALSE(stable.diverged);

  cfg.alpha = 4.0 * alpha_star;
  auto unstable = run_delayed_sgd(task, cfg);
  EXPECT_TRUE(unstable.diverged || unstable.final_loss > 100.0 * stable.final_loss);
}

TEST(Hogwild, EngineTrainsTinyTask) {
  auto task = tiny_image_task(29);
  nn::Model model = task->build_model();
  hogwild::HogwildConfig hw;
  hw.engine.num_stages = pipeline::max_stages(model, false);
  hw.engine.num_microbatches = 4;
  hw.max_delay = 8.0;
  hogwild::HogwildEngine engine(model, hw, 7);

  TrainerConfig cfg = tiny_config(pipeline::Method::PipeMare, hw.engine.num_stages, 4);
  cfg.t1 = true;
  cfg.t1_annealing_steps = 24;
  cfg.lr = 0.03;
  auto result = train_loop(*task, engine, cfg);
  ASSERT_FALSE(result.diverged);
  EXPECT_GT(result.best_metric, 45.0);
}

TEST(Hogwild, DefaultDelayProfileFollowsPipeline) {
  auto task = tiny_image_task(31);
  nn::Model model = task->build_model();
  hogwild::HogwildConfig hw;
  hw.engine.num_stages = 4;
  hw.engine.num_microbatches = 2;
  hogwild::HogwildEngine engine(model, hw, 7);
  auto tau = engine.stage_tau_fwd();
  ASSERT_EQ(tau.size(), 4u);
  EXPECT_DOUBLE_EQ(tau[0], 7.0 / 2.0);  // (2(P-1)+1)/N
  EXPECT_DOUBLE_EQ(tau[3], 1.0 / 2.0);
  for (std::size_t i = 1; i < tau.size(); ++i) EXPECT_LT(tau[i], tau[i - 1]);
}

}  // namespace
}  // namespace pipemare::core
