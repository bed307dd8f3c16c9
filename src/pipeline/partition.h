#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "src/nn/model.h"
#include "src/pipeline/config.h"

namespace pipemare::pipeline {

/// Assignment of a model's weight units to pipeline stages.
///
/// Units come from the graph IR (src/graph/): the model is lowered to an
/// op graph and the units are enumerated in its deterministic topological
/// linearization — today's chain models linearize to the identity order,
/// so this reproduces the raw `model.weight_units` order exactly (tests
/// assert it), while non-chain lowerings get contiguous-cut legality for
/// free (every contiguous cut of a topological order is a legal stage
/// boundary).
///
/// Built by one of two strategies (PartitionStrategy):
///  - Uniform — the paper's rule (Section 4.1): traverse the model weights
///    in topological order, treating weight+bias of a layer as one unit
///    (or as two, in the "2x stages" regime), and divide the units evenly
///    *by count* into P contiguous groups.
///  - Balanced — PipeDream-style: minimize the maximum per-stage cost over
///    all contiguous splits, with per-unit costs from the cost model
///    (cost_model.h).
struct Partition {
  int num_stages = 1;
  bool split_bias = false;
  PartitionStrategy strategy = PartitionStrategy::Uniform;
  std::vector<nn::WeightUnit> units;  ///< topological order
  std::vector<int> unit_stage;        ///< unit index -> stage index
  std::vector<std::int64_t> stage_param_count;  ///< params per stage
  std::int64_t total_params = 0;

  /// Stage of a module (the stage of its first weight unit; parameter-free
  /// modules inherit the stage of the nearest preceding weight unit).
  std::vector<int> module_stage;

  /// The cost model the split was computed against: per-unit costs (all 1
  /// under Uniform, i.e. the unit count is the cost) and their per-stage
  /// totals. Units: whatever the cost source produced — analytic flops,
  /// measured nanoseconds, or unit count — only ratios are meaningful.
  std::vector<double> unit_cost;
  std::vector<double> stage_cost;

  int num_units() const { return static_cast<int>(units.size()); }

  /// Load imbalance of the split: max stage cost / mean stage cost. 1.0 is
  /// a perfect balance; the threaded engine's throughput is bounded by the
  /// slowest stage, so this ratio is the predicted slowdown vs perfect.
  double balance_ratio() const;
};

/// Max / mean over a per-stage cost (or load) vector: 1.0 is perfect
/// balance, and the ratio is the predicted slowdown of a stage-bound
/// executor vs a perfect split. Shared by Partition::balance_ratio, the
/// StageLoadObserver's busy-time spread, and the partition bench.
double balance_ratio(std::span<const double> stage_costs);

/// Builds the default (uniform) partition. Requires 1 <= num_stages <=
/// number of weight units. Stage g receives units
/// [floor(g*U/P), floor((g+1)*U/P)).
Partition make_partition(const nn::Model& model, int num_stages, bool split_bias);

/// Builds the partition for the given spec: Uniform reproduces
/// make_partition above bitwise; Balanced profiles per-unit costs via the
/// cost model and solves the contiguous min-max split.
Partition make_partition(const nn::Model& model, int num_stages, bool split_bias,
                         const PartitionSpec& spec);

/// Balanced split with caller-supplied unit costs (the cost model is
/// bypassed); exposed for tests and custom cost sources.
Partition make_partition(const nn::Model& model, int num_stages, bool split_bias,
                         std::span<const double> costs);

/// The optimal contiguous min-max split: assigns each of costs.size()
/// units to one of `num_stages` contiguous, non-empty groups minimizing
/// the maximum group cost (classic linear-partition DP). Returns unit ->
/// stage. Requires 1 <= num_stages <= costs.size(); negative costs are
/// clamped to 0.
std::vector<int> balanced_contiguous_split(std::span<const double> costs,
                                           int num_stages);

/// The largest possible stage count for a model: one stage per weight unit
/// (the paper's finest granularity; with split_bias this is the "2x" case).
int max_stages(const nn::Model& model, bool split_bias);

/// A stage's contiguous slice of the model: modules [module_first,
/// module_last) and the weight units those modules own, [unit_first,
/// unit_last). With split_bias a module's bias unit may be *scheduled* on
/// the next stage while the module executes here; the unit range follows
/// module ownership, and each unit's staleness follows its own scheduled
/// stage. Used by sched::StealingEngine (and recomputed on
/// repartition()).
struct StageModuleRange {
  int module_first = 0;
  int module_last = 0;
  int unit_first = 0;
  int unit_last = 0;
};

/// Per-stage module/unit ranges of a partition. Relies on module_stage and
/// the units' module ids being non-decreasing (guaranteed by
/// make_partition's identity linearization).
std::vector<StageModuleRange> stage_module_ranges(const Partition& partition);

/// Backend-validation helper: checks the (engine, model) partitioning
/// configuration and throws std::invalid_argument with a message naming
/// `backend` and max_stages on failure. `model` may be null (registry
/// validation without a model checks everything model-independent).
void validate_partition_config(std::string_view backend, const nn::Model* model,
                               int num_stages, bool split_bias,
                               const PartitionSpec& spec);

}  // namespace pipemare::pipeline
