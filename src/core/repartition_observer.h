#pragma once

// The core-side half of dynamic repartitioning: a StepObserver that, at
// every epoch boundary, feeds the backend's observed per-stage busy time
// into the pipeline::Repartitioner and — when the planner says migrate —
// drives ExecutionBackend::repartition() at the inter-minibatch quiescent
// point, resets the stage counters, and notifies its peer observers via
// on_repartition. core::train installs one automatically when
// TrainerConfig::repartition.enabled; direct train_loop users append one
// to their observer list themselves.

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/backend.h"
#include "src/core/trainer.h"
#include "src/pipeline/repartition.h"

namespace pipemare::core {

/// Epoch-boundary repartitioning driver. Place it *after* observers that
/// sample stage_stats() themselves (core::train does): a migration resets
/// the backend's counters, and peers are told through on_repartition so
/// they drop their baselines.
class RepartitionObserver final : public StepObserver {
 public:
  /// One migration decision per observed epoch (migrated or not), the
  /// audit trail tests and the repartition bench read back.
  struct Event {
    int epoch = 0;                ///< 1-based epoch the decision closed
    double observed_ratio = 1.0;  ///< busy-time balance ratio this epoch
    double planned_ratio = 1.0;   ///< predicted ratio of the replanned split
    bool migrated = false;
  };

  /// `peers` are the observers to notify on migration (not owned; must
  /// outlive this observer). The backend must support repartitioning and
  /// expose per-stage stats; throws std::invalid_argument otherwise.
  RepartitionObserver(ExecutionBackend& backend, pipeline::RepartitionConfig cfg,
                      std::span<StepObserver* const> peers = {});

  void on_epoch(EpochRecord& record) override;
  void on_method_switch(pipeline::Method from, pipeline::Method to,
                        int epoch) override;

  const std::vector<Event>& events() const { return events_; }
  int migrations() const;

 private:
  ExecutionBackend* backend_;
  pipeline::Repartitioner planner_;
  pipeline::RepartitionConfig cfg_;
  std::vector<StepObserver*> peers_;
  std::vector<pipeline::StageStats> last_;  ///< cumulative baseline per stage
  int epoch_ = 0;                           ///< 1-based count of observed epochs
  int last_migration_epoch_ = 0;            ///< 0 = never migrated
  std::vector<Event> events_;
};

}  // namespace pipemare::core
