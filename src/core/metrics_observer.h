#pragma once

// StepObserver that surfaces the backend's observability state through the
// obs::MetricsRegistry at every epoch boundary: curve-level gauges
// (train.epoch / train.loss / train.metric / train.param_norm), the
// backend-specific instrumentation that only exists behind a concrete
// engine surface (StealingEngine's per-stage 1F1B in-flight high-water
// marks and cumulative dropped steal-log entries), and — when a
// --metrics=<file> path is set — a JSON snapshot of the whole registry
// rewritten after each epoch, so a run killed mid-training still leaves
// its latest metrics on disk. core::train installs one automatically when
// TrainerConfig::metrics_path is non-empty; direct train_loop users append
// one to their observer list themselves.

#include <string>

#include "src/core/backend.h"
#include "src/core/trainer.h"

namespace pipemare::core {

/// Epoch-boundary metrics snapshotter. Runs fine ahead of or behind the
/// RepartitionObserver — it reads engine accessors that are valid between
/// minibatches and never resets backend counters itself.
class MetricsObserver final : public StepObserver {
 public:
  /// `backend` is borrowed and must outlive the observer. `metrics_path`
  /// empty = keep the registry updated but write no file.
  explicit MetricsObserver(ExecutionBackend& backend,
                           std::string metrics_path = "");

  void on_epoch(EpochRecord& record) override;

 private:
  ExecutionBackend* backend_;
  std::string metrics_path_;
};

}  // namespace pipemare::core
