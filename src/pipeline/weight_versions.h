#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/model.h"
#include "src/obs/metrics.h"
#include "src/pipeline/config.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"

namespace pipemare::pipeline {

/// Registry-owned per-stage weight-staleness histograms
/// ("train.staleness.stage<k>", 64 unit-width buckets): every engine that
/// measures observed weight delay registers through this one helper, so a
/// single metric family covers all five backends with identical bounds.
/// Histogram::observe is a wait-free relaxed-atomic write and
/// Histogram::max_observed() is exact regardless of the bucket bounds.
std::vector<obs::Histogram*> staleness_histograms(int stages);

/// The versioned-weight state every pipeline execution backend shares: the
/// live weights, the bounded ring of committed weight versions (which
/// doubles as PipeDream's weight stash), and the Technique 2 delta EMA.
///
/// Both the sequential PipelineEngine and the multithreaded StealingEngine
/// assemble their per-(stage, microbatch) forward/backward parameter views
/// through this class, which is what guarantees the two backends are
/// statistically — in fact bitwise — equivalent: the weight bytes fed to
/// every forward and backward pass are computed by the same code from the
/// same history.
///
/// `cfg`, `partition` and `schedule` are borrowed; the owning engine keeps
/// them alive (and may mutate `cfg.method` between minibatches, e.g. the
/// Technique 3 sync-to-async switch).
class WeightVersions {
 public:
  WeightVersions(const nn::Model& model, const EngineConfig& cfg,
                 const Partition& partition, const Schedule& schedule,
                 std::uint64_t seed);

  /// Live (most recent) weights; the caller's optimizer mutates these.
  std::span<float> live() { return live_; }
  std::span<const float> live() const { return live_; }

  /// Number of committed updates (= index of the live version).
  std::int64_t step() const { return step_; }

  /// Ring-buffer depth: max forward staleness + 2 versions are retained.
  int history_depth() const { return history_depth_; }

  /// Committed weight version `v`; throws if `v` is outside the retained
  /// window [step - history_depth + 1, step]. Negative `v` reads version 0.
  const std::vector<float>& version(std::int64_t v) const;

  /// Technique 2 EMA of per-step weight deltas.
  std::span<const float> delta() const { return delta_; }

  /// Writes the forward-pass weights of microbatch `micro` for weight units
  /// [ufirst, ulast) into the matching positions of `out` (a full-size
  /// flat parameter buffer; positions outside the units are untouched).
  /// Each unit reads the version its own stage's schedule staleness
  /// dictates: the live weights under Sync, version
  /// step - fwd_staleness(stage, micro) otherwise.
  void assemble_forward_units(int ufirst, int ulast, int micro,
                              std::span<float> out) const;

  /// Same for the backward-pass weights: the forward weights under Sync
  /// (trivially) and PipeDream (the stash — reassembled from the history,
  /// which is exactly what the stash is), the live weights under PipeMare,
  /// optionally T2-extrapolated toward what the forward saw.
  void assemble_backward_units(int ufirst, int ulast, int micro,
                               std::span<float> out) const;

  /// Publishes the mutated live weights as the next version and updates
  /// the T2 delta EMA. Call exactly once after each optimizer step.
  void commit_update();

 private:
  const EngineConfig& cfg_;
  const Partition& partition_;
  const Schedule& schedule_;

  // Version-ring-published state (deliberately NOT GUARDED_BY any mutex):
  // this class is lock-free by contract. The trainer thread writes step_,
  // history_, live_, prev_live_ and delta_ only between minibatches
  // (commit_update / the optimizer mutating live()); workers call the
  // const assemble_*_units readers only inside a minibatch. The owning
  // engine's generation barrier — the WorkerPool barrier in
  // StealingEngine — is the
  // happens-before edge that publishes each commit to the workers.
  // Annotating these fields GUARDED_BY a capability would outlaw exactly
  // the lock-free reads that make the hot path scale; the unannotated
  // block marks the boundary the future free-running-commit mode must
  // make race-free by other means (a seqlock over the ring slots, as
  // ThreadedHogwildEngine sketches, or double-buffered slabs) — not by
  // adding a lock.
  std::int64_t step_ = 0;  ///< number of committed updates (version index)
  int history_depth_ = 1;
  std::vector<std::vector<float>> history_;  ///< ring buffer of weight versions
  std::vector<float> live_;
  std::vector<float> prev_live_;
  std::vector<float> delta_;  ///< T2 EMA of weight deltas

  // Per-stage weight-staleness histograms ("train.staleness.stage<k>"):
  // each forward assembly records the *observed* read-version delay
  // step - version, i.e. the paper's tau as actually experienced (clamped
  // at startup while step < staleness). Registry-owned pointers cached at
  // construction; Histogram::observe is a relaxed-atomic wait-free write,
  // so the lock-free contract above is untouched.
  std::vector<obs::Histogram*> staleness_;
};

}  // namespace pipemare::pipeline
