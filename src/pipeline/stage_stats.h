#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pipemare::pipeline {

/// Per-slot load counters shared by every instrumented execution backend.
/// One slot is one unit of execution-side parallelism: a pipeline *stage*
/// for the stage-partitioned engines ("threaded", "threaded_steal"), a
/// *worker thread* for the threaded Hogwild backend (which has no stage
/// workers) and for StealingEngine::worker_stats(). Only ratios between
/// slots are meaningful; absolute nanoseconds depend on the host.
///
/// This is the measurement substrate the partition cost model is validated
/// against (predicted stage cost vs observed busy share) and what the
/// work-stealing runtime balances: a slot whose busy share dwarfs the
/// others bounds wall-clock, and its siblings' pop-wait is the headroom
/// stealing reclaims.
struct StageStats {
  std::uint64_t busy_ns = 0;       ///< compute (forward/backward/loss)
  std::uint64_t pop_wait_ns = 0;   ///< blocked waiting for work (idle/starved)
  std::uint64_t push_wait_ns = 0;  ///< blocked pushing downstream (backpressure)
  std::uint64_t items = 0;         ///< forward + backward items processed

  /// Work-stealing backends only (0 elsewhere). For a stage slot: tasks of
  /// this stage executed by a worker other than the stage's home worker,
  /// and the busy time of those tasks. For a worker slot: tasks this
  /// worker stole from stages it does not own.
  std::uint64_t stolen_items = 0;  ///< executed elsewhere / stolen
  std::uint64_t stolen_ns = 0;     ///< busy time of the stolen items
};

/// Per-slot counter deltas between two samples of one backend's cumulative
/// stage_stats(). Counters only grow between resets, so the rule is decided
/// per *sample*, not per field: if the slot counts differ (an empty
/// baseline included) or any counter of any slot fell below its baseline,
/// a reset_stage_stats() happened in between and `now` itself is the delta.
/// (Per field, a post-reset slot whose count happens to equal its stale
/// baseline would read a delta of 0.)
inline std::vector<StageStats> stats_since(std::span<const StageStats> now,
                                           std::span<const StageStats> before) {
  constexpr std::uint64_t StageStats::*kCounters[] = {
      &StageStats::busy_ns,  &StageStats::pop_wait_ns,  &StageStats::push_wait_ns,
      &StageStats::items,    &StageStats::stolen_items, &StageStats::stolen_ns};
  std::vector<StageStats> delta(now.begin(), now.end());
  if (before.size() != now.size()) return delta;
  for (std::size_t s = 0; s < now.size(); ++s) {
    for (auto c : kCounters) {
      if (now[s].*c < before[s].*c) return delta;
    }
  }
  for (std::size_t s = 0; s < now.size(); ++s) {
    for (auto c : kCounters) delta[s].*c -= before[s].*c;
  }
  return delta;
}

}  // namespace pipemare::pipeline
