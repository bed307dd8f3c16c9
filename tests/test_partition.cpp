// Partitioner subsystem tests: the cost model, the balanced (min-max
// contiguous) strategy against brute force, the uniform default's
// bitwise stability, the validated stage-count errors, and the rejection
// of models whose auxiliary Flow channels are wired inconsistently.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/core/backend.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/data/regression_data.h"
#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/dropout.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/residual.h"
#include "src/pipeline/cost_model.h"
#include "src/pipeline/partition.h"
#include "src/util/rng.h"

namespace pipemare::pipeline {
namespace {

nn::Model make_mlp(int in, int hidden, int out, int layers = 2) {
  nn::Model m;
  m.add(std::make_unique<nn::Linear>(in, hidden, true));
  m.add(std::make_unique<nn::ReLU>());
  for (int l = 1; l < layers; ++l) {
    m.add(std::make_unique<nn::Linear>(hidden, hidden, true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(hidden, out));
  return m;
}

/// Heavy-head MLP: two wide layers, then a narrow tail. Uniform-by-count
/// splits overload the front stage; balanced should not.
nn::Model make_skewed_mlp() {
  nn::Model m;
  m.add(std::make_unique<nn::Linear>(64, 64, true));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::Linear>(64, 8, true));
  m.add(std::make_unique<nn::ReLU>());
  for (int l = 0; l < 6; ++l) {
    m.add(std::make_unique<nn::Linear>(8, 8, true));
    m.add(std::make_unique<nn::ReLU>());
  }
  m.add(std::make_unique<nn::Linear>(8, 4));
  return m;
}

/// Minimal multi-unit classification task for the end-to-end training
/// tests (RegressionTask's model has a single weight unit, which cannot
/// exercise multi-stage partitioning).
class MlpTask : public core::Task {
 public:
  explicit MlpTask(std::uint64_t seed = 17) {
    util::Rng rng(seed);
    for (int i = 0; i < kSize; ++i) {
      std::vector<float> row(kFeatures);
      for (float& v : row) v = static_cast<float>(rng.normal());
      xs_.push_back(std::move(row));
      ys_.push_back(static_cast<float>(rng.randint(kClasses)));
    }
  }

  std::string name() const override { return "partition-mlp"; }
  std::string metric_name() const override { return "accuracy"; }
  nn::Model build_model() const override { return make_skewed_mlp(); }
  const nn::LossHead& loss() const override { return loss_; }
  int train_size() const override { return kSize; }

  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    data::MicroBatches mb;
    for (std::size_t start = 0; start < indices.size();
         start += static_cast<std::size_t>(micro_size)) {
      auto count = std::min(static_cast<std::size_t>(micro_size),
                            indices.size() - start);
      nn::Flow f;
      f.x = tensor::Tensor({static_cast<int>(count), kFeatures});
      tensor::Tensor t({static_cast<int>(count)});
      for (std::size_t r = 0; r < count; ++r) {
        auto idx = static_cast<std::size_t>(indices[start + r]);
        for (int c = 0; c < kFeatures; ++c) {
          f.x.at(static_cast<int>(r), c) = xs_[idx][static_cast<std::size_t>(c)];
        }
        t.at(static_cast<int>(r)) = ys_[idx];
      }
      mb.inputs.push_back(std::move(f));
      mb.targets.push_back(std::move(t));
    }
    return mb;
  }

  double evaluate(const nn::Model& model, std::span<const float> params) const override {
    std::vector<int> all(static_cast<std::size_t>(kSize));
    for (int i = 0; i < kSize; ++i) all[static_cast<std::size_t>(i)] = i;
    auto mb = minibatch(all, kSize);
    auto caches = model.make_caches();
    nn::Flow out = model.forward(mb.inputs.at(0), params, caches);
    auto res = loss_.forward_backward(out.x, mb.targets.at(0));
    return res.count > 0 ? 100.0 * res.correct / res.count : 0.0;
  }

 private:
  static constexpr int kSize = 64;
  static constexpr int kFeatures = 64;  // matches make_skewed_mlp input
  static constexpr int kClasses = 4;
  std::vector<std::vector<float>> xs_;
  std::vector<float> ys_;
  nn::ClassificationXent loss_;
};

/// Exhaustive minimum over all contiguous splits of `costs` into exactly
/// `stages` non-empty groups: the reference the DP must match.
double brute_force_min_max(const std::vector<double>& costs, int stages,
                           std::size_t from = 0) {
  auto u = costs.size();
  if (stages == 1) {
    double sum = 0.0;
    for (std::size_t i = from; i < u; ++i) sum += costs[i];
    return sum;
  }
  double best = std::numeric_limits<double>::infinity();
  double head = 0.0;
  // First group is [from, cut); leave at least stages-1 units for the rest.
  for (std::size_t cut = from + 1; cut + static_cast<std::size_t>(stages) - 1 <= u;
       ++cut) {
    head += costs[cut - 1];
    best = std::min(best,
                    std::max(head, brute_force_min_max(costs, stages - 1, cut)));
  }
  return best;
}

double max_stage_cost(const std::vector<double>& costs,
                      const std::vector<int>& unit_stage, int stages) {
  std::vector<double> totals(static_cast<std::size_t>(stages), 0.0);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    totals[static_cast<std::size_t>(unit_stage[i])] += costs[i];
  }
  return *std::max_element(totals.begin(), totals.end());
}

// ---------------------------------------------------------------------------
// Uniform default: bitwise-unchanged behaviour
// ---------------------------------------------------------------------------

TEST(PartitionStrategy, DefaultSpecReproducesLegacyUniformSplit) {
  // EngineConfig's default PartitionSpec must route to exactly the old
  // rule — this is what keeps every pre-cost-model training curve bitwise
  // unchanged (the partition fully determines stage placement, weight
  // versioning and execution order).
  for (int layers : {2, 3, 5}) {
    nn::Model m = make_mlp(4, 8, 3, layers);
    for (int stages = 1; stages <= max_stages(m, false); ++stages) {
      Partition legacy = make_partition(m, stages, false);
      Partition via_spec = make_partition(m, stages, false, PartitionSpec{});
      EXPECT_EQ(legacy.unit_stage, via_spec.unit_stage)
          << "layers=" << layers << " stages=" << stages;
      EXPECT_EQ(legacy.module_stage, via_spec.module_stage);
      EXPECT_EQ(legacy.stage_param_count, via_spec.stage_param_count);
      EXPECT_EQ(via_spec.strategy, PartitionStrategy::Uniform);
    }
  }
}

TEST(PartitionStrategy, UniformCarriesUnitCountCosts) {
  nn::Model m = make_mlp(4, 8, 3, 3);  // 4 units
  Partition part = make_partition(m, 2, false);
  ASSERT_EQ(part.unit_cost.size(), 4u);
  for (double c : part.unit_cost) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(part.stage_cost[0], 2.0);
  EXPECT_DOUBLE_EQ(part.stage_cost[1], 2.0);
  EXPECT_DOUBLE_EQ(part.balance_ratio(), 1.0);
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(PartitionStrategy, OneStagePerUnitBothStrategies) {
  nn::Model m = make_mlp(4, 8, 3, 3);  // 4 units
  int p = max_stages(m, false);
  ASSERT_EQ(p, 4);
  Partition uniform = make_partition(m, p, false);
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  Partition balanced = make_partition(m, p, false, spec);
  // P == U forces the identity split for any strategy and cost vector.
  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(uniform.unit_stage[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(balanced.unit_stage[static_cast<std::size_t>(i)], i);
  }
}

TEST(PartitionStrategy, SplitBiasDoublingBothStrategies) {
  nn::Model m = make_mlp(4, 8, 3, 2);  // 3 Linear modules
  EXPECT_EQ(max_stages(m, false), 3);
  EXPECT_EQ(max_stages(m, true), 6);
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  Partition part = make_partition(m, 6, true, spec);
  EXPECT_EQ(part.num_stages, 6);
  EXPECT_EQ(part.num_units(), 6);
  // Bias units are tiny, but every stage must still own >= 1 unit.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(part.unit_stage[static_cast<std::size_t>(i)], i);
  }
  // Weight-unit sizes alternate matrix/bias.
  EXPECT_GT(part.units[0].size, part.units[1].size);
}

TEST(PartitionStrategy, ParameterFreeModulesInheritPrecedingStage) {
  // Leading parameter-free modules ride on stage 0; interior ones ride
  // with the nearest preceding weight unit — under both strategies.
  nn::Model m;
  m.add(std::make_unique<nn::ReLU>());  // leading, before any weights
  m.add(std::make_unique<nn::Linear>(4, 4, true));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::Dropout>(0.1));
  m.add(std::make_unique<nn::Linear>(4, 4, true));
  m.add(std::make_unique<nn::ReLU>());
  for (auto strategy : {PartitionStrategy::Uniform, PartitionStrategy::Balanced}) {
    PartitionSpec spec;
    spec.strategy = strategy;
    Partition part = make_partition(m, 2, false, spec);
    EXPECT_EQ(part.module_stage,
              (std::vector<int>{0, 0, 0, 0, 1, 1}))
        << partition_strategy_name(strategy);
  }
}

// ---------------------------------------------------------------------------
// Balanced DP vs brute force
// ---------------------------------------------------------------------------

TEST(BalancedSplit, MatchesBruteForceOnHandVectors) {
  struct Case {
    std::vector<double> costs;
    int stages;
  };
  std::vector<Case> cases = {
      {{64, 64, 8, 1, 1, 1, 1, 1}, 4},
      {{1, 1, 1, 1, 1, 1}, 3},
      {{10, 1, 1, 1, 1, 10}, 2},
      {{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3},
      {{5, 5, 5}, 3},
      {{100, 1}, 2},
      {{0, 0, 7, 0, 3}, 2},
  };
  for (const auto& c : cases) {
    auto unit_stage = balanced_contiguous_split(c.costs, c.stages);
    double got = max_stage_cost(c.costs, unit_stage, c.stages);
    double want = brute_force_min_max(c.costs, c.stages);
    EXPECT_DOUBLE_EQ(got, want) << "stages=" << c.stages;
    // Contiguity + coverage: stages non-decreasing, first 0, last P-1.
    EXPECT_EQ(unit_stage.front(), 0);
    EXPECT_EQ(unit_stage.back(), c.stages - 1);
    for (std::size_t i = 1; i < unit_stage.size(); ++i) {
      EXPECT_GE(unit_stage[i], unit_stage[i - 1]);
      EXPECT_LE(unit_stage[i], unit_stage[i - 1] + 1);
    }
  }
}

TEST(BalancedSplit, MatchesBruteForceOnRandomVectors) {
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    int u = 2 + rng.randint(8);  // 2..9 units
    std::vector<double> costs(static_cast<std::size_t>(u));
    for (double& c : costs) c = rng.uniform(0.0, 100.0);
    int stages = 1 + rng.randint(u);  // 1..u
    auto unit_stage = balanced_contiguous_split(costs, stages);
    EXPECT_DOUBLE_EQ(max_stage_cost(costs, unit_stage, stages),
                     brute_force_min_max(costs, stages))
        << "trial " << trial << " u=" << u << " stages=" << stages;
  }
}

TEST(BalancedSplit, ReducesBalanceRatioOnSkewedModel) {
  nn::Model m = make_skewed_mlp();  // 9 units, front-loaded cost
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  Partition balanced = make_partition(m, 4, false, spec);
  Partition uniform = make_partition(m, 4, false);
  // Evaluate both splits under the balanced run's cost model.
  double balanced_max =
      max_stage_cost(balanced.unit_cost, balanced.unit_stage, 4);
  double uniform_max = max_stage_cost(balanced.unit_cost, uniform.unit_stage, 4);
  EXPECT_LT(balanced_max, uniform_max);
  // And the heavy front must not share a stage with the whole tail: the
  // first wide layer gets a stage of its own.
  EXPECT_NE(balanced.unit_stage[0], balanced.unit_stage[2]);
  EXPECT_GT(balanced.balance_ratio(), 0.99);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModel, AnalyticCostsScaleWithLayerWidth) {
  nn::Model m = make_skewed_mlp();
  PartitionSpec spec;  // no probe: intrinsic estimates
  auto units = m.weight_units(false);
  auto costs = profile_unit_costs(m, units, spec);
  ASSERT_EQ(costs.size(), units.size());
  // Wide 64x64 unit must dwarf a narrow 8x8 one (64x params -> ~64x cost).
  EXPECT_GT(costs[0], 10.0 * costs[2]);
  for (double c : costs) EXPECT_GT(c, 0.0);
}

TEST(CostModel, ProbeShapesScaleCostsWithBatchRows) {
  nn::Model m = make_mlp(8, 8, 4, 2);
  auto units = m.weight_units(false);
  PartitionSpec no_probe;
  auto intrinsic = profile_unit_costs(m, units, no_probe);

  auto probe = std::make_shared<nn::Flow>();
  probe->x = tensor::Tensor({16, 8});  // 16 rows
  PartitionSpec with_probe;
  with_probe.probe = probe;
  auto probed = profile_unit_costs(m, units, with_probe);

  // Row count multiplies Linear costs (batch-free estimates assume 1 row).
  EXPECT_NEAR(probed[0] / intrinsic[0], 16.0, 4.0);
}

TEST(CostModel, MeasuredModeProducesPositiveCosts) {
  nn::Model m = make_mlp(8, 16, 4, 3);
  auto probe = std::make_shared<nn::Flow>();
  probe->x = tensor::Tensor({4, 8});
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  spec.measured = true;
  spec.measure_reps = 1;
  spec.probe = probe;
  auto units = m.weight_units(false);
  auto costs = profile_unit_costs(m, units, spec);
  ASSERT_EQ(costs.size(), units.size());
  for (double c : costs) EXPECT_GT(c, 0.0);
  // And the full partition path works on measured costs.
  Partition part = make_partition(m, 2, false, spec);
  EXPECT_EQ(part.num_stages, 2);
  EXPECT_EQ(part.strategy, PartitionStrategy::Balanced);
}

TEST(CostModel, MeasuredWithoutProbeThrows) {
  nn::Model m = make_mlp(8, 8, 4, 2);
  PartitionSpec spec;
  spec.strategy = PartitionStrategy::Balanced;
  spec.measured = true;
  EXPECT_THROW(make_partition(m, 2, false, spec), std::invalid_argument);
}

TEST(CostModel, MismatchedCostVectorThrows) {
  nn::Model m = make_mlp(8, 8, 4, 2);
  std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_THROW(make_partition(m, 2, false, std::span<const double>(wrong_size)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Malformed FlowEffects wiring is rejected at partition time
// ---------------------------------------------------------------------------

TEST(PartitionValidation, CloseWithoutOpenThrows) {
  nn::Model m;
  m.add(std::make_unique<nn::Linear>(4, 4, true));
  m.add(std::make_unique<nn::ResidualClose>());
  EXPECT_THROW(make_partition(m, 1, false), std::invalid_argument);
}

TEST(PartitionValidation, DoubleOpenThrows) {
  nn::Model m;
  m.add(std::make_unique<nn::ResidualOpen>());
  m.add(std::make_unique<nn::Linear>(4, 4, true));
  m.add(std::make_unique<nn::ResidualOpen>());
  m.add(std::make_unique<nn::ResidualClose>());
  EXPECT_THROW(make_partition(m, 1, false), std::invalid_argument);
}

TEST(PartitionValidation, NeverClosedThrows) {
  // No runtime check catches this one: the open shortcut is simply dropped.
  nn::Model m;
  m.add(std::make_unique<nn::ResidualOpen>());
  m.add(std::make_unique<nn::Linear>(4, 4, true));
  EXPECT_THROW(make_partition(m, 1, false), std::invalid_argument);
}

TEST(PartitionValidation, CtxConsumedBeforeProducerThrows) {
  nn::Model m;
  m.add(std::make_unique<nn::MultiHeadAttention>(
      8, 2, nn::MultiHeadAttention::Kind::CrossAttention));
  EXPECT_THROW(make_partition(m, 1, false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Validated stage-count errors (per-backend validate())
// ---------------------------------------------------------------------------

TEST(PartitionValidation, StageCountErrorNamesMaxStages) {
  nn::Model m = make_mlp(4, 8, 3, 2);  // 3 units
  try {
    validate_partition_config("threaded", &m, 9, false, PartitionSpec{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("max_stages=3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("threaded"), std::string::npos) << msg;
    EXPECT_NE(msg.find("num_stages=9"), std::string::npos) << msg;
  }
}

TEST(PartitionValidation, RegistrySurfacesStageCountFromValidate) {
  // The full path: BackendRegistry::create validates (with the model)
  // before any engine construction, for every registered backend.
  data::RegressionConfig rc;
  rc.features = 6;
  rc.size = 32;
  rc.seed = 1;
  core::RegressionTask task(rc);
  pipeline::EngineConfig ec;
  ec.num_stages = 99;
  ec.num_microbatches = 2;
  for (const auto& name : core::BackendRegistry::instance().names()) {
    try {
      (void)core::BackendRegistry::instance().create(
          task.build_model(), core::BackendConfig(name), ec, 1);
      FAIL() << "expected std::invalid_argument from backend '" << name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("max_stages"), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

TEST(PartitionValidation, ModelFreeValidateSkipsStageBound) {
  // Without a model the registry cannot know max_stages; the model-free
  // overload must not reject a large-but-positive stage count...
  pipeline::EngineConfig ec;
  ec.num_stages = 99;
  ec.num_microbatches = 2;
  EXPECT_NO_THROW(core::BackendRegistry::instance().validate(
      core::BackendConfig("sequential"), ec));
  // ...but still catches model-independent misconfiguration.
  ec.num_stages = 2;
  ec.partition.strategy = PartitionStrategy::Balanced;
  ec.partition.measured = true;  // measured without probe
  EXPECT_THROW(core::BackendRegistry::instance().validate(
                   core::BackendConfig("sequential"), ec),
               std::invalid_argument);
  ec.partition.measured = false;
  ec.partition.strategy = PartitionStrategy::Uniform;
  ec.partition.measured = true;  // measured only applies to balanced
  EXPECT_THROW(core::BackendRegistry::instance().validate(
                   core::BackendConfig("sequential"), ec),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end: uniform default unchanged; balanced trains
// ---------------------------------------------------------------------------

core::TrainerConfig mlp_trainer_config() {
  core::TrainerConfig cfg;
  cfg.epochs = 2;
  cfg.minibatch_size = 16;
  cfg.microbatch_size = 4;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.03;
  cfg.seed = 5;
  cfg.engine.num_stages = 3;
  return cfg;
}

TEST(PartitionTraining, UniformDefaultCurveBitwiseStable) {
  // A config that never mentions partitioning must produce the same curve
  // as one that names the uniform strategy explicitly (the default is not
  // a different code path), on the sequential and threaded backends.
  MlpTask task;
  core::TrainerConfig cfg = mlp_trainer_config();
  for (const char* backend : {"sequential", "threaded"}) {
    cfg.backend = backend;
    cfg.engine.partition = PartitionSpec{};
    auto implicit = core::train(task, cfg);
    cfg.engine.partition.strategy = PartitionStrategy::Uniform;
    auto explicit_uniform = core::train(task, cfg);
    ASSERT_EQ(implicit.curve.size(), explicit_uniform.curve.size());
    for (std::size_t e = 0; e < implicit.curve.size(); ++e) {
      EXPECT_EQ(implicit.curve[e].train_loss, explicit_uniform.curve[e].train_loss)
          << backend << " epoch " << e;
      EXPECT_EQ(implicit.curve[e].metric, explicit_uniform.curve[e].metric);
      EXPECT_EQ(implicit.curve[e].param_norm, explicit_uniform.curve[e].param_norm);
    }
  }
}

TEST(PartitionTraining, BalancedStrategyTrainsThroughCoreTrain) {
  // core::train auto-fills the probe microbatch; the balanced split
  // trains end to end on both pipeline backends and produces the same
  // curve on each (both engines derive the identical partition from the
  // same spec — threaded bitwise parity holds per strategy).
  MlpTask task;
  core::TrainerConfig cfg = mlp_trainer_config();
  cfg.engine.partition.strategy = PartitionStrategy::Balanced;
  cfg.backend = "sequential";
  auto seq = core::train(task, cfg);
  cfg.backend = "threaded";
  auto thr = core::train(task, cfg);
  EXPECT_FALSE(seq.diverged);
  ASSERT_EQ(seq.curve.size(), 2u);
  ASSERT_EQ(thr.curve.size(), 2u);
  for (std::size_t e = 0; e < seq.curve.size(); ++e) {
    EXPECT_EQ(seq.curve[e].train_loss, thr.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(seq.curve[e].param_norm, thr.curve[e].param_norm);
  }
}

}  // namespace
}  // namespace pipemare::pipeline
