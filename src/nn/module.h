#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/nn/flow.h"
#include "src/util/rng.h"

namespace pipemare::nn {

/// Per-microbatch activation cache a module fills during `forward` and
/// consumes during `backward`. Modules own their slot conventions.
struct Cache {
  std::vector<tensor::Tensor> saved;
  void clear() { saved.clear(); }
};

/// Per-microbatch cost estimate of one module, the currency of the stage
/// partitioner's cost model (PipeDream-style balanced splits). Flops count
/// multiply-adds as two operations; bytes count parameter + activation
/// traffic at float32. Only *relative* magnitudes matter to the
/// partitioner, so rough estimates are fine as long as they are rough in
/// the same way for every layer.
struct ModuleCost {
  double fwd_flops = 0.0;
  double bkwd_flops = 0.0;
  double fwd_bytes = 0.0;
  double bkwd_bytes = 0.0;

  /// The scalar the partitioner balances: one microbatch's round trip
  /// through the module (forward + backward compute).
  double total_flops() const { return fwd_flops + bkwd_flops; }
};

/// Shape context for Module::cost — the activation shapes observed for
/// this module on a probe microbatch. When no probe ran both shapes are
/// empty and modules fall back to a batch-free intrinsic estimate (exact
/// relative costs for fixed-width stacks like MLPs; spatial/sequence
/// scaling is then invisible, which is what the probe fixes).
struct CostShapes {
  std::vector<int> in_shape;
  std::vector<int> out_shape;

  std::int64_t in_elems() const { return elems(in_shape); }
  std::int64_t out_elems() const { return elems(out_shape); }

 private:
  static std::int64_t elems(const std::vector<int>& shape) {
    if (shape.empty()) return 0;
    std::int64_t n = 1;
    for (int d : shape) n *= d;
    return n;
  }
};

/// Dataflow effects of a module on the Flow's auxiliary channels — the
/// non-chain dependencies a sequential module list implies, which
/// pipeline::make_partition checks for consistent wiring:
///  - `produces_skip` / `consumes_skip`: the module opens / closes a
///    residual shortcut (`ResidualOpen` fills Flow::skip, `ResidualClose`
///    adds it back into the main path);
///  - `produces_ctx` / `consumes_ctx`: the module publishes / reads the
///    encoder memory channel (`DecoderBridge` moves the encoder output
///    into Flow::ctx; every decoder cross-attention stage reads it).
/// The default (all false) describes a pure chain module: consumes the
/// predecessor's `x`, produces the successor's `x`.
struct FlowEffects {
  bool produces_skip = false;
  bool consumes_skip = false;
  bool produces_ctx = false;
  bool consumes_ctx = false;
};

/// Base class for all layers.
///
/// The central design requirement comes from the paper's asynchronous
/// model (Section 2.1): backpropagation may evaluate the backward pass
/// with *different* weights than the forward pass used
/// (`grad f_t(u_fwd, u_bkwd)`). Therefore:
///  - `forward` receives a parameter view and records whatever activations
///    backward needs into `cache`;
///  - `backward` receives an *independent* parameter view `w_bkwd`
///    (PipeDream passes the stashed forward weights, PipeMare passes the
///    current — possibly T2-corrected — weights) plus the forward cache,
///    and accumulates parameter gradients into `grad`.
///
/// Modules are stateless: all parameters live in externally owned flat
/// vectors, which makes weight versioning, stashing and the T2 buffer
/// trivial for the pipeline engine.
class Module {
 public:
  virtual ~Module() = default;

  virtual std::string name() const = 0;

  /// Total number of parameters (0 for parameter-free layers).
  virtual std::int64_t param_count() const { return 0; }

  /// Sizes of the module's "weight units" — the granularity at which the
  /// paper partitions models into pipeline stages ("treating the weight
  /// and bias in the same layer as a single model weight"). With
  /// `split_bias` the weight matrix and bias become separate units,
  /// doubling the number of stages (the paper's 2x stress test).
  virtual std::vector<std::int64_t> param_unit_sizes(bool split_bias) const {
    (void)split_bias;
    if (param_count() == 0) return {};
    return {param_count()};
  }

  /// Which auxiliary Flow channels the module reads and writes (see
  /// FlowEffects). make_partition rejects a model whose declarations do
  /// not pair up (e.g. a shortcut never closed); a module that uses a
  /// channel without declaring it still *executes* correctly (executors
  /// run the chain order) but escapes that check, so user modules should
  /// override this alongside forward/backward.
  virtual FlowEffects flow_effects() const { return {}; }

  /// True when `forward` mutates module-owned state, making concurrent
  /// whole-model forward replicas unsafe. No in-tree module is stateful
  /// anymore (Dropout moved to counter-based mask streams), but the gate
  /// stays for user modules; ThreadedHogwildEngine rejects them.
  virtual bool stateful_forward() const { return false; }

  /// Analytic per-microbatch cost estimate (see ModuleCost). The default
  /// charges one flop per input element plus two per parameter; every
  /// in-tree layer overrides it with a FLOP count derived from its actual
  /// kernel. `shapes` comes from a probe forward when available.
  virtual ModuleCost cost(const CostShapes& shapes) const;

  virtual void init_params(std::span<float> w, util::Rng& rng) const { (void)w, (void)rng; }

  virtual Flow forward(const Flow& in, std::span<const float> w, Cache& cache) const = 0;

  virtual Flow backward(const Flow& dout, std::span<const float> w_bkwd,
                        const Cache& cache, std::span<float> grad) const = 0;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace pipemare::nn
