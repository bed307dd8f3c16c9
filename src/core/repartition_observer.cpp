#include "src/core/repartition_observer.h"

#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipemare::core {

RepartitionObserver::RepartitionObserver(ExecutionBackend& backend,
                                         pipeline::RepartitionConfig cfg,
                                         std::span<StepObserver* const> peers)
    : backend_(&backend),
      planner_(backend.model(), cfg),
      cfg_(cfg) {
  if (!backend.supports_repartition() || backend.partition() == nullptr) {
    throw std::invalid_argument(
        "RepartitionObserver: backend '" + std::string(backend.name()) +
        "' does not support dynamic repartitioning");
  }
  if (backend.stage_stats().empty()) {
    throw std::invalid_argument(
        "RepartitionObserver: backend '" + std::string(backend.name()) +
        "' has no per-stage load instrumentation to observe");
  }
  for (StepObserver* p : peers) {
    if (p != nullptr) peers_.push_back(p);
  }
}

int RepartitionObserver::migrations() const {
  int n = 0;
  for (const Event& e : events_) {
    if (e.migrated) ++n;
  }
  return n;
}

void RepartitionObserver::on_method_switch(pipeline::Method /*from*/,
                                           pipeline::Method /*to*/, int /*epoch*/) {
  // A method switch changes the delay profile mid-run; measurements that
  // straddle it would mix regimes, so restart the epoch baseline.
  last_ = backend_->stage_stats();
}

void RepartitionObserver::on_epoch(EpochRecord& record) {
  ++epoch_;
  if (record.is_divergence_record()) return;

  // This epoch's per-stage busy delta against the cumulative baseline
  // (by the same reset rule StageLoadObserver uses).
  auto cumulative = backend_->stage_stats();
  std::vector<std::uint64_t> busy;
  for (const auto& s : pipeline::stats_since(cumulative, last_)) {
    busy.push_back(s.busy_ns);
  }

  // Cool-down after a migration: the new split must be measured for
  // min_epochs_between full epochs before another move is considered.
  if (last_migration_epoch_ > 0 &&
      epoch_ - last_migration_epoch_ < cfg_.min_epochs_between) {
    last_ = std::move(cumulative);
    return;
  }

  pipeline::RepartitionDecision decision;
  auto planned = planner_.plan(*backend_->partition(), busy, &decision);

  Event ev;
  ev.epoch = epoch_;
  ev.observed_ratio = decision.observed_ratio;
  ev.planned_ratio = decision.planned_ratio;
  ev.migrated = planned.has_value();
  events_.push_back(ev);

  if (!planned.has_value()) {
    last_ = std::move(cumulative);
    return;
  }

  // Migrate at the quiescent point (we are between minibatches here),
  // reset the load counters so the next epoch measures the new split from
  // zero, and tell the peers their per-stage baselines are stale.
  static obs::Counter& migrations =
      obs::MetricsRegistry::instance().counter("train.repartitions");
  migrations.add();
  obs::instant("repartition", "train", -1, -1, epoch_);
  pipeline::Partition from = *backend_->partition();
  backend_->repartition(*planned);
  backend_->reset_stage_stats();
  last_.clear();
  last_migration_epoch_ = epoch_;
  for (StepObserver* p : peers_) {
    p->on_repartition(from, *backend_->partition(), epoch_);
  }
}

}  // namespace pipemare::core
