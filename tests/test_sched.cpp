// The work-stealing runtime suite (tier1): TaskQueue push/pop/steal
// mechanics (single-owner order + concurrent stealers), StealPolicy
// ranking/refresh/parsing, WorkerPool generations, and the StealingEngine
// guarantees — steals-disabled and forced-steal bitwise parity vs the
// sequential engine, a (P, N, W) stress sweep asserting no task is lost or
// run twice, per-stage idle that sums to the worker idle, run-to-run
// reproducible curves in deterministic steal mode, and steal counts
// surfacing through core::StageLoadObserver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
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
#include "src/pipeline/engine.h"
#include "src/sched/steal_policy.h"
#include "src/sched/stealing_engine.h"
#include "src/sched/task_queue.h"
#include "src/sched/worker_pool.h"
#include "src/util/rng.h"

namespace pipemare::sched {
namespace {

// ---------------------------------------------------------------------------
// TaskQueue
// ---------------------------------------------------------------------------

TEST(TaskQueue, OwnerPopsBackwardFirstThiefStealsForwardFirst) {
  TaskQueue q;
  q.push({Task::Kind::Forward, 0, 0});
  q.push({Task::Kind::Forward, 0, 1});
  q.push({Task::Kind::Backward, 0, 2});

  Task t;
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.kind, Task::Kind::Backward);  // owner: backward lane first
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.kind, Task::Kind::Forward);  // thief: forward lane first
  EXPECT_EQ(t.micro, 0);                   // ... and the oldest forward
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 1);
  EXPECT_FALSE(q.pop(t));
  EXPECT_FALSE(q.steal(t));
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueue, BothEndsAreFifoWithinALane) {
  TaskQueue q;
  for (int m = 0; m < 4; ++m) q.push({Task::Kind::Forward, 1, m});
  Task t;
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.micro, 0);  // steal takes the oldest
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 1);  // owner also takes the oldest (pipeline order)
  ASSERT_TRUE(q.steal(t));
  EXPECT_EQ(t.micro, 2);
  ASSERT_TRUE(q.pop(t));
  EXPECT_EQ(t.micro, 3);
}

TEST(TaskQueue, ConcurrentStealersTakeEachTaskExactlyOnce) {
  constexpr int kTasks = 512;
  constexpr int kThieves = 4;
  TaskQueue q;
  for (int m = 0; m < kTasks; ++m) q.push({Task::Kind::Forward, 0, m});

  std::mutex taken_m;
  std::vector<int> taken;
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      std::vector<int> mine;
      Task t;
      while (q.steal(t)) mine.push_back(t.micro);
      std::lock_guard<std::mutex> lock(taken_m);
      taken.insert(taken.end(), mine.begin(), mine.end());
    });
  }
  for (auto& th : thieves) th.join();

  ASSERT_EQ(taken.size(), static_cast<std::size_t>(kTasks)) << "lost or duplicated";
  std::sort(taken.begin(), taken.end());
  for (int m = 0; m < kTasks; ++m) {
    ASSERT_EQ(taken[static_cast<std::size_t>(m)], m) << "task " << m;
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// StealPolicy
// ---------------------------------------------------------------------------

TEST(StealPolicy, RanksByPredictedShareBusiestFirstStableTies) {
  StealPolicy p(StealMode::Deterministic, {1.0, 5.0, 5.0, 2.0});
  EXPECT_EQ(p.victim_order(), (std::vector<int>{1, 2, 3, 0}));
  EXPECT_TRUE(p.deterministic());
  EXPECT_TRUE(p.steal_enabled());
  EXPECT_FALSE(p.steal_first());
}

TEST(StealPolicy, LoadAwareRefreshReRanksDeterministicDoesNot) {
  StealPolicy load(StealMode::LoadAware, {1.0, 1.0, 1.0});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{0, 1, 2}));
  load.refresh(std::vector<std::uint64_t>{5, 50, 10});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{1, 2, 0}));
  // All-zero observations keep the current ranking (nothing measured).
  load.refresh(std::vector<std::uint64_t>{0, 0, 0});
  EXPECT_EQ(load.victim_order(), (std::vector<int>{1, 2, 0}));

  StealPolicy det(StealMode::Deterministic, {1.0, 2.0, 3.0});
  EXPECT_EQ(det.victim_order(), (std::vector<int>{2, 1, 0}));
  det.refresh(std::vector<std::uint64_t>{100, 1, 1});
  EXPECT_EQ(det.victim_order(), (std::vector<int>{2, 1, 0}));  // fixed order
}

TEST(StealPolicy, ModeParsingAndNames) {
  EXPECT_EQ(parse_steal_mode("off"), StealMode::Disabled);
  EXPECT_EQ(parse_steal_mode("disabled"), StealMode::Disabled);
  EXPECT_EQ(parse_steal_mode("load"), StealMode::LoadAware);
  EXPECT_EQ(parse_steal_mode("load-aware"), StealMode::LoadAware);
  EXPECT_EQ(parse_steal_mode("det"), StealMode::Deterministic);
  EXPECT_EQ(parse_steal_mode("deterministic"), StealMode::Deterministic);
  EXPECT_EQ(parse_steal_mode("forced"), StealMode::Forced);
  EXPECT_THROW(parse_steal_mode("sideways"), std::invalid_argument);
  for (auto mode : {StealMode::Disabled, StealMode::LoadAware,
                    StealMode::Deterministic, StealMode::Forced}) {
    EXPECT_EQ(parse_steal_mode(steal_mode_name(mode)), mode);
  }
  EXPECT_FALSE(StealPolicy(StealMode::Disabled, {1.0}).steal_enabled());
  EXPECT_TRUE(StealPolicy(StealMode::Forced, {1.0}).steal_first());
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsBodyOncePerWorkerPerGeneration) {
  constexpr int kWorkers = 3;
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> per_worker(kWorkers);
  WorkerPool pool(kWorkers, [&](int w) {
    calls.fetch_add(1);
    per_worker[static_cast<std::size_t>(w)].fetch_add(1);
  });
  EXPECT_EQ(pool.size(), kWorkers);
  for (int gen = 1; gen <= 4; ++gen) {
    pool.run_generation();
    EXPECT_EQ(calls.load(), gen * kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      EXPECT_EQ(per_worker[static_cast<std::size_t>(w)].load(), gen);
    }
  }
}

// ---------------------------------------------------------------------------
// StealingEngine
// ---------------------------------------------------------------------------

/// The tier-1 MLP fixture: `layers` Linear(+ReLU) units with random
/// classification microbatches (same recipe as the threaded-engine stress
/// suite).
struct MlpFixture {
  nn::Model model;
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  MlpFixture(int layers, int width, int classes, int num_micro,
             std::uint64_t seed = 17) {
    for (int i = 0; i < layers; ++i) {
      model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
      model.add(std::make_unique<nn::ReLU>());
    }
    model.add(std::make_unique<nn::Linear>(width, classes));
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({2, width});
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

StealConfig steal_config(pipeline::Method method, int stages, int micro, int workers,
                         StealMode mode) {
  StealConfig cfg;
  cfg.engine.method = method;
  cfg.engine.num_stages = stages;
  cfg.engine.num_microbatches = micro;
  cfg.workers = workers;
  cfg.mode = mode;
  return cfg;
}

/// Runs `steps` SGD steps on a reference engine and the stealing engine
/// and asserts bitwise-equal losses, gradients and weights at every step.
template <class Ref>
void expect_bitwise_parity(Ref& ref, StealingEngine& eng, MlpFixture& fx, int steps,
                           const std::string& label) {
  for (int step = 0; step < steps; ++step) {
    auto rr = ref.forward_backward(fx.inputs, fx.targets, fx.head);
    auto rs = eng.forward_backward(fx.inputs, fx.targets, fx.head);
    ASSERT_EQ(rr.finite, rs.finite) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rr.loss, rs.loss) << label << " step " << step;
    ASSERT_DOUBLE_EQ(rr.correct, rs.correct) << label << " step " << step;
    auto gr = ref.gradients();
    auto gs = eng.gradients();
    ASSERT_EQ(gr.size(), gs.size()) << label;
    for (std::size_t i = 0; i < gr.size(); ++i) {
      ASSERT_EQ(gr[i], gs[i]) << label << " grad " << i << " at step " << step;
    }
    for (std::size_t i = 0; i < gr.size(); ++i) {
      ref.weights()[i] -= 0.05F * gr[i];
      eng.weights()[i] -= 0.05F * gs[i];
    }
    ref.commit_update();
    eng.commit_update();
  }
  for (std::size_t i = 0; i < ref.weights().size(); ++i) {
    ASSERT_EQ(ref.weights()[i], eng.weights()[i]) << label << " weight " << i;
  }
}

TEST(StealingEngine, StealsDisabledBitwiseMatchesSequential) {
  // W = P with stealing off is the "threaded" preset's configuration.
  for (auto method : {pipeline::Method::Sync, pipeline::Method::PipeDream,
                      pipeline::Method::PipeMare}) {
    MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
    auto cfg = steal_config(method, 4, 4, /*workers=*/4, StealMode::Disabled);
    pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
    StealingEngine eng(fx.model, cfg, 1);
    expect_bitwise_parity(seq, eng, fx, 4, pipeline::method_name(method));
    EXPECT_EQ(eng.total_steals(), 0u);
    EXPECT_TRUE(eng.steal_log().empty());
  }
}

TEST(StealingEngine, StagePopWaitSumsToWorkerIdle) {
  // Stage w's pop_wait_ns is worker w's idle wait for w < min(W, P), so
  // for W <= P the per-stage sum equals the total worker idle.
  for (int w : {2, 4}) {
    for (auto mode : {StealMode::Disabled, StealMode::Forced}) {
      MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
      StealingEngine eng(fx.model, steal_config(pipeline::Method::PipeMare, 4, 4, w, mode), 1);
      for (int step = 0; step < 3; ++step) {
        (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
        eng.commit_update();
      }
      const std::string label =
          "W=" + std::to_string(w) + " mode=" + steal_mode_name(mode);
      auto stages = eng.stage_stats();
      auto workers = eng.worker_stats();
      std::uint64_t stage_idle = 0;
      std::uint64_t worker_idle = 0;
      for (const auto& st : stages) stage_idle += st.pop_wait_ns;
      for (const auto& ws : workers) worker_idle += ws.pop_wait_ns;
      EXPECT_EQ(stage_idle, worker_idle) << label;
      // Without stealing, every worker but stage 0's idles while the last
      // backwards drain upstream; forced thieves may never go idle.
      if (mode == StealMode::Disabled) {
        EXPECT_GT(worker_idle, 0u) << label;
      }
      for (std::size_t i = 0; i < workers.size(); ++i) {
        EXPECT_EQ(stages[i].pop_wait_ns, workers[i].pop_wait_ns) << label << " slot " << i;
      }
    }
  }
}

TEST(StealingEngine, ForcedStealBitwiseMatchesSequential) {
  for (auto method : {pipeline::Method::Sync, pipeline::Method::PipeMare}) {
    MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
    auto cfg = steal_config(method, 4, 4, /*workers=*/3, StealMode::Forced);
    pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
    StealingEngine eng(fx.model, cfg, 1);
    expect_bitwise_parity(seq, eng, fx, 4, pipeline::method_name(method));
  }
}

TEST(StealingEngine, LoadAwareBitwiseMatchesSequentialWithT2) {
  // Stealing + discrepancy correction: the T2 extrapolation path reads the
  // same WeightVersions state, so curves stay bitwise-equal under any
  // scheduling.
  MlpFixture fx(/*layers=*/6, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 6, 2, /*workers=*/2,
                          StealMode::LoadAware);
  cfg.engine.discrepancy_correction = true;
  cfg.engine.decay_d = 0.25;
  pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
  StealingEngine eng(fx.model, cfg, 1);
  expect_bitwise_parity(seq, eng, fx, 4, "PipeMare+T2");
}

TEST(StealingEngine, StressSweepNoTaskLostOrRunTwice) {
  // (P, N, W) sweep under forced stealing: every config must stay
  // bitwise-identical to the sequential engine AND account for exactly
  // 2 * N tasks per stage per step (a lost task would deadlock or skew
  // the counters; a double-run would corrupt the gradient accumulation
  // and break parity).
  constexpr int kSteps = 2;
  for (int p = 1; p <= 4; ++p) {
    for (int n : {1, 2, 4}) {
      for (int w : {1, 2, 5}) {
        MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, n);
        auto cfg = steal_config(pipeline::Method::PipeMare, p, n, w, StealMode::Forced);
        pipeline::PipelineEngine seq(fx.model, cfg.engine, 1);
        StealingEngine eng(fx.model, cfg, 1);
        std::string label =
            "P=" + std::to_string(p) + " N=" + std::to_string(n) + " W=" + std::to_string(w);
        expect_bitwise_parity(seq, eng, fx, kSteps, label);

        auto stats = eng.stage_stats();
        ASSERT_EQ(stats.size(), static_cast<std::size_t>(p)) << label;
        std::uint64_t total_items = 0;
        for (int s = 0; s < p; ++s) {
          const auto& st = stats[static_cast<std::size_t>(s)];
          EXPECT_EQ(st.items, static_cast<std::uint64_t>(kSteps * 2 * n))
              << label << " stage " << s;
          EXPECT_LE(st.stolen_items, st.items) << label << " stage " << s;
          total_items += st.items;
        }
        EXPECT_EQ(total_items, static_cast<std::uint64_t>(kSteps * 2 * n * p)) << label;
        // Worker-side accounting must agree with the stage-side ledger.
        std::uint64_t worker_items = 0;
        std::uint64_t worker_steals = 0;
        for (const auto& ws : eng.worker_stats()) {
          worker_items += ws.items;
          worker_steals += ws.stolen_items;
        }
        EXPECT_EQ(worker_items, total_items) << label;
        EXPECT_EQ(worker_steals, eng.total_steals()) << label;
      }
    }
  }
}

TEST(StealingEngine, StealLogMatchesCountersAndNamesThieves) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/2,
                          StealMode::Forced);
  StealingEngine eng(fx.model, cfg, 1);
  for (int step = 0; step < 3; ++step) {
    (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
    eng.commit_update();
  }
  EXPECT_EQ(eng.dropped_log_entries(), 0u);
  EXPECT_EQ(eng.steal_log().size(), static_cast<std::size_t>(eng.total_steals()));
  for (const auto& rec : eng.steal_log()) {
    EXPECT_NE(rec.worker, rec.stage % eng.num_workers())
        << "a home worker's pop is not a steal";
    EXPECT_GE(rec.step, 0);
    EXPECT_LT(rec.step, 3);
    EXPECT_GE(rec.micro, 0);
    EXPECT_LT(rec.micro, 4);
  }
  eng.clear_steal_log();
  EXPECT_TRUE(eng.steal_log().empty());
}

TEST(StealingEngine, DeterministicModeCurvesAreRunToRunReproducible) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 64;
  d.test_size = 32;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = 11;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  core::ImageTask task(d, m, "tiny-image");

  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 4;
  cfg.epochs = 2;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.seed = 5;
  core::StealOptions opts;
  opts.workers = 3;
  opts.mode = StealMode::Deterministic;
  cfg.backend = {"threaded_steal", opts};
  auto first = core::train(task, cfg);
  auto second = core::train(task, cfg);
  ASSERT_EQ(first.curve.size(), second.curve.size());
  for (std::size_t e = 0; e < first.curve.size(); ++e) {
    EXPECT_EQ(first.curve[e].train_loss, second.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(first.curve[e].metric, second.curve[e].metric) << "epoch " << e;
    EXPECT_EQ(first.curve[e].param_norm, second.curve[e].param_norm) << "epoch " << e;
  }

  // ... and the same config through the "threaded" backend produces the
  // same curve bitwise (the acceptance criterion's disabled-steal parity
  // holds for every mode because the numerics are scheduling-independent).
  cfg.backend = "threaded";
  auto threaded = core::train(task, cfg);
  ASSERT_EQ(first.curve.size(), threaded.curve.size());
  for (std::size_t e = 0; e < first.curve.size(); ++e) {
    EXPECT_EQ(first.curve[e].train_loss, threaded.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(first.curve[e].metric, threaded.curve[e].metric) << "epoch " << e;
  }
}

TEST(StealingEngine, StealCountsSurfaceThroughStageLoadObserver) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/4);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 4, /*workers=*/2,
                          StealMode::Forced);
  auto backend = core::BackendRegistry::instance().create(
      std::move(fx.model), core::BackendConfig{"threaded_steal",
                                               core::StealOptions{2, StealMode::Forced,
                                                                  false}},
      cfg.engine, 1);
  core::StageLoadObserver load(*backend);
  ASSERT_TRUE(load.active());
  for (int epoch = 0; epoch < 2; ++epoch) {
    (void)backend->forward_backward(fx.inputs, fx.targets, fx.head);
    backend->commit_update();
    core::EpochRecord rec;
    load.on_epoch(rec);
  }
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  std::uint64_t items = 0;
  std::uint64_t stolen = 0;
  for (const auto& epoch : load.epoch_stats()) {
    ASSERT_EQ(epoch.size(), 4u);
    for (const auto& s : epoch) {
      items += s.items;
      stolen += s.stolen_items;
    }
  }
  EXPECT_EQ(items, 2u * 2u * 4u * 4u);  // epochs * (fwd+bwd) * N * P
  auto* steal_backend = dynamic_cast<core::ThreadedStealBackend*>(backend.get());
  ASSERT_NE(steal_backend, nullptr);
  EXPECT_EQ(stolen, steal_backend->engine().total_steals());
  EXPECT_GE(core::StageLoadObserver::busy_spread(load.totals()), 1.0);
}

TEST(StealingEngine, RejectsRecomputeAndNegativeWorkers) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 2, 2, 0, StealMode::LoadAware);
  cfg.engine.recompute_segments = 2;
  EXPECT_THROW(StealingEngine(fx.model, cfg, 1), std::invalid_argument);
  cfg.engine.recompute_segments = 0;
  cfg.workers = -1;
  EXPECT_THROW(StealingEngine(fx.model, cfg, 1), std::invalid_argument);
}

TEST(StealingEngine, WorkerCountIndependentOfStageCount) {
  MlpFixture fx(/*layers=*/4, /*width=*/12, /*classes=*/6, /*num_micro=*/2);
  auto cfg = steal_config(pipeline::Method::PipeMare, 4, 2, /*workers=*/7,
                          StealMode::LoadAware);
  StealingEngine eng(fx.model, cfg, 1);
  EXPECT_EQ(eng.num_workers(), 7);  // W > P: extra workers live by stealing
  (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
  eng.commit_update();
  auto stats = eng.stage_stats();
  std::uint64_t total = 0;
  for (const auto& s : stats) total += s.items;
  EXPECT_EQ(total, 2u * 2u * 4u);
}

}  // namespace
}  // namespace pipemare::sched
