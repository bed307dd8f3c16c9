#pragma once

#include <memory>
#include <string>

namespace pipemare::nn {
struct Flow;
}

namespace pipemare::pipeline {

/// Pipeline-parallel training method (Section 2.2 / Table 1).
enum class Method {
  Sync,       ///< GPipe-style synchronous execution: tau_fwd = tau_bkwd = 0
  PipeDream,  ///< weight stashing: tau_fwd = tau_bkwd = (2(P-i)+1)/N
  PipeMare,   ///< asynchronous: tau_fwd = (2(P-i)+1)/N, tau_bkwd = 0
};

std::string method_name(Method m);

/// How weight units are assigned to pipeline stages.
enum class PartitionStrategy {
  /// The paper's Section 4.1 rule: divide the units evenly *by count* into
  /// P contiguous groups. The default; bitwise-identical to the pre-cost-
  /// model behaviour.
  Uniform,
  /// PipeDream-style balanced split: minimize the maximum per-stage cost
  /// over all contiguous unit splits (dynamic program), with per-unit
  /// costs from the cost model (see cost_model.h).
  Balanced,
};

std::string partition_strategy_name(PartitionStrategy s);

/// Partitioning configuration shared by every execution backend.
struct PartitionSpec {
  PartitionStrategy strategy = PartitionStrategy::Uniform;

  /// Balanced only: micro-profile each module's forward/backward on the
  /// probe microbatch (a few timed reps) instead of the analytic FLOP
  /// model. Requires `probe`. Caveat: wall-clock timings vary run to run
  /// and engine to engine, so the chosen split — and with it stage
  /// placement, the delay schedule, and training curves — is *not*
  /// reproducible the way the analytic mode is; when two engines must
  /// agree bitwise (parity tests, resumable runs), profile once and hand
  /// both the same cost vector via make_partition(model, P, split_bias,
  /// costs), or stay analytic.
  bool measured = false;
  int measure_reps = 3;  ///< timing reps per module in measured mode

  /// Balanced only: convert the analytic FLOP/byte estimates to predicted
  /// nanoseconds through the one-shot kernel micro-profile
  /// (tensor::kernels::KernelCalibration) before running the DP split.
  /// Re-grounds FLOP-proportional splits in wall-clock when the selected
  /// kernel backend shifts GEMM throughput relative to memory-bound ops
  /// (naive vs tiled), while staying deterministic *given* one calibration
  /// — unlike `measured`, no per-module timing runs. Mutually exclusive
  /// with `measured` (which already produces nanoseconds directly).
  bool calibrated = false;

  /// Sample microbatch for cost profiling: the analytic model reads
  /// per-module activation shapes off one probe forward, the measured mode
  /// times real passes on it. Optional for analytic (falls back to
  /// batch-free intrinsic estimates), required for measured. core::train
  /// fills it with the task's first microbatch automatically.
  std::shared_ptr<const nn::Flow> probe;
};

struct EngineConfig {
  Method method = Method::PipeMare;
  int num_stages = 1;
  int num_microbatches = 1;  ///< N = microbatches per minibatch
  bool split_bias = false;   ///< the paper's "2x stages" weight/bias split

  /// Stage-partitioning strategy (uniform-by-count vs cost-balanced).
  PartitionSpec partition;

  /// Technique 2 — discrepancy correction (applies to PipeMare): approximate
  /// the forward weights in the backward pass as
  /// u_bkwd = w - (tau_fwd - tau_bkwd) * delta, where delta is an EMA of
  /// weight deltas with decay gamma_i = D^{1/(tau_fwd,i - tau_bkwd,i)}.
  bool discrepancy_correction = false;
  double decay_d = 0.5;

  /// PipeMare Recompute (Appendix A.2/D): > 0 splits the module list into
  /// this many segments; only segment-start activations are kept from the
  /// forward pass, the rest are recomputed just before the backward pass
  /// using recompute-scheduled (delayed) weights. 0 disables recomputation.
  /// Only the analytic PipelineEngine models recomputation; the threaded
  /// backends reject it.
  int recompute_segments = 0;
};

}  // namespace pipemare::pipeline
