#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/nn/model.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/config.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/stage_stats.h"
#include "src/sched/steal_policy.h"

namespace pipemare::core {

/// The engine concept `core::train_loop` is templated over, as a
/// first-class polymorphic interface. Every execution substrate — the
/// analytic sequential pipeline, the stage-per-thread pipeline, and the
/// sequential / multithreaded Hogwild! backends — implements this surface,
/// and `core::train` drives whichever one the `BackendRegistry` resolves
/// from `TrainerConfig::backend`. `train_loop` stays templated, so direct
/// (devirtualized) engine use keeps working; the virtual path is the
/// public entry point.
///
/// One training step through the interface:
///
///   auto res = backend.forward_backward(inputs, targets, head);
///   opt.step(backend.weights(), backend.gradients(), segments);
///   backend.commit_update();
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Runs the N microbatches of one minibatch forward and backward,
  /// accumulating the mean gradient (see pipeline::StepResult for the
  /// shared non-finite contract).
  virtual pipeline::StepResult forward_backward(
      const std::vector<nn::Flow>& micro_inputs,
      const std::vector<tensor::Tensor>& micro_targets,
      const nn::LossHead& head) = 0;

  /// Live (most recent) weights; the caller's optimizer mutates these.
  virtual std::span<float> weights() = 0;
  virtual std::span<const float> weights() const = 0;

  /// Mean gradient produced by the last forward_backward.
  virtual std::span<float> gradients() = 0;

  /// Publishes the mutated live weights as the next weight version. Call
  /// exactly once after each optimizer step.
  virtual void commit_update() = 0;

  /// Per-stage optimizer segments with the given base LR and per-stage
  /// scale factors (from the T1 rescheduler). Scales may be empty (all 1).
  virtual std::vector<optim::LrSegment> lr_segments(
      double base_lr, std::span<const double> scales) const = 0;

  /// Mean forward delay per stage — the tau vector T1 divides by.
  virtual std::vector<double> stage_tau_fwd() const = 0;

  /// Technique 3 switches from Sync warmup to the async method mid-run.
  virtual void set_method(pipeline::Method m) = 0;
  virtual pipeline::Method method() const = 0;

  /// The model this backend trains (owned by the backend).
  virtual const nn::Model& model() const = 0;

  /// The registry key this backend was created under (e.g. "threaded").
  virtual std::string_view name() const = 0;

  /// Per-slot load counters (a slot is a stage for the stage-partitioned
  /// engines, a worker for the Hogwild backend — see
  /// pipeline::StageStats), cumulative since construction or the last
  /// reset. Empty when the backend has no per-slot instrumentation (the
  /// default); StageLoadObserver uses that to deactivate itself. Call
  /// between minibatches.
  virtual std::vector<pipeline::StageStats> stage_stats() const { return {}; }
  virtual void reset_stage_stats() {}

  /// Dynamic repartitioning surface. Backends whose engine can swap in a
  /// new unit -> stage assignment between minibatches (the
  /// WeightVersions-protocol engines: sequential, threaded,
  /// threaded_steal) report true and implement the pair below; the rest
  /// keep the defaults (the Hogwild family's delay model is per-worker,
  /// not per-stage — there is nothing to migrate).
  virtual bool supports_repartition() const { return false; }

  /// The current stage partition, or nullptr when the backend has none
  /// exposed (the Hogwild family).
  virtual const pipeline::Partition* partition() const { return nullptr; }

  /// Migrates to `next` (validated by pipeline::validate_repartition).
  /// Only call between minibatches — e.g. from a StepObserver's on_epoch.
  /// Throws std::logic_error when unsupported.
  virtual void repartition(const pipeline::Partition& next);
};

// ---------------------------------------------------------------------------
// Typed per-backend options. BackendConfig carries them as a tagged variant
// so each backend's knobs are declared once, next to the backend, instead of
// as loose fields hand-copied inside core::train.
// ---------------------------------------------------------------------------

/// "sequential" — the analytic PipelineEngine. No extra knobs; the shared
/// pipeline::EngineConfig (method / stages / T2 / recompute) covers it.
struct SequentialOptions {
  static constexpr std::string_view kName = "SequentialOptions";
};

/// "threaded" — stage-per-thread 1F1B: the sched::StealingEngine preset
/// with W = P workers and stealing disabled. No extra knobs; rejects
/// engine.recompute_segments > 0 (an analytic-engine feature).
struct ThreadedOptions {
  static constexpr std::string_view kName = "ThreadedOptions";
};

/// "hogwild" — the sequential stochastic-delay HogwildEngine (Appendix E).
struct HogwildOptions {
  static constexpr std::string_view kName = "HogwildOptions";
  double max_delay = 16.0;         ///< delay truncation bound (>= 0)
  std::vector<double> mean_delay;  ///< per-stage expectation; empty =>
                                   ///< pipeline profile (2(P-i)+1)/N
};

/// "threaded_hogwild" — W free-running workers over the same stochastic
/// delay model (hogwild::ThreadedHogwildEngine).
struct ThreadedHogwildOptions {
  static constexpr std::string_view kName = "ThreadedHogwildOptions";
  double max_delay = 16.0;         ///< delay truncation bound (>= 0)
  int workers = 0;                 ///< worker threads; 0 = min(cores, N)
  std::vector<double> mean_delay;  ///< per-stage expectation; empty =>
                                   ///< pipeline profile (2(P-i)+1)/N
};

/// "threaded_steal" — the work-stealing worker-pool runtime
/// (sched::StealingEngine): W workers drain per-stage deques of ready
/// forward/backward tasks, idle workers stealing from the busy-share
/// leader while stolen tasks keep the owner stage's weight version
/// (PipeMare's delay distribution is unchanged; curves are bitwise equal
/// to "threaded" in every mode).
struct StealOptions {
  static constexpr std::string_view kName = "StealOptions";
  int workers = 0;  ///< worker threads; 0 = min(cores, num_stages)
  sched::StealMode mode = sched::StealMode::LoadAware;
  bool record_log = false;  ///< keep the per-step steal log (deterministic
                            ///< modes log regardless)
};

/// Tagged options union. `std::monostate` means "this backend's defaults";
/// a populated alternative must match the selected backend or the registry
/// throws (catching e.g. ThreadedHogwildOptions sent to "sequential").
using BackendOptions = std::variant<std::monostate, SequentialOptions, ThreadedOptions,
                                    HogwildOptions, ThreadedHogwildOptions,
                                    StealOptions>;

/// Human-readable tag of the active alternative (for error messages).
std::string_view backend_options_name(const BackendOptions& options);

/// Selects an execution backend: a BackendRegistry key plus that backend's
/// typed options. Implicitly constructible from a name so configuration
/// reads naturally:
///
///   cfg.backend = "threaded";
///   cfg.backend = {"threaded_hogwild", ThreadedHogwildOptions{.workers = 4}};
struct BackendConfig {
  std::string name = "sequential";
  BackendOptions options{};  ///< monostate = the backend's defaults

  BackendConfig() = default;
  BackendConfig(std::string backend_name) : name(std::move(backend_name)) {}
  BackendConfig(const char* backend_name) : name(backend_name) {}
  BackendConfig(std::string backend_name, BackendOptions backend_options)
      : name(std::move(backend_name)), options(std::move(backend_options)) {}
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// String-keyed factory table mapping backend names to ExecutionBackend
/// builders. The five in-tree backends ("sequential", "threaded",
/// "hogwild", "threaded_hogwild", "threaded_steal") register themselves on
/// first use; new execution substrates (free-running Hogwild) plug in via
/// register_backend without touching core::train.
///
/// Registration is intended for startup; concurrent register_backend calls
/// are not synchronized. create/validate afterwards are const lookups.
class BackendRegistry {
 public:
  /// Rejects invalid (backend, engine) combinations by throwing
  /// std::invalid_argument; each backend's validator is its single
  /// validation path (the Hogwild backends delegate to
  /// hogwild::validate_config). `model` is the model about to be trained
  /// when available (create passes it; the model-free validate overload
  /// passes nullptr) — validators use it for model-dependent checks such
  /// as num_stages <= max_stages, surfacing them as proper configuration
  /// errors instead of exceptions from deep inside engine construction.
  using Validator = std::function<void(const BackendConfig& backend,
                                       const pipeline::EngineConfig& engine,
                                       const nn::Model* model)>;
  /// Builds the backend; the model is moved into (and owned by) it. Only
  /// called with a validated configuration.
  using Factory = std::function<std::unique_ptr<ExecutionBackend>(
      nn::Model model, const BackendConfig& backend,
      const pipeline::EngineConfig& engine, std::uint64_t seed)>;

  /// The process-wide registry, with the built-in backends pre-registered.
  static BackendRegistry& instance();

  /// Registers a backend under `name`; throws if the name is taken.
  void register_backend(std::string name, Validator validate, Factory create);

  bool contains(std::string_view name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Throws std::invalid_argument listing the registered backends when
  /// `name` is unknown — the one unknown-backend error everywhere.
  void require(const std::string& name) const;

  /// Validates without a model (model-dependent checks are skipped).
  /// Unknown names throw std::invalid_argument listing the registered
  /// backends.
  void validate(const BackendConfig& backend,
                const pipeline::EngineConfig& engine) const;

  /// Validates including model-dependent checks (stage count vs
  /// max_stages). This is what create() runs before building the engine.
  void validate(const BackendConfig& backend, const pipeline::EngineConfig& engine,
                const nn::Model& model) const;

  /// Validates, builds the backend around `model`, and applies
  /// engine.method (the single source of truth for the training method).
  std::unique_ptr<ExecutionBackend> create(nn::Model model,
                                           const BackendConfig& backend,
                                           const pipeline::EngineConfig& engine,
                                           std::uint64_t seed) const;

 private:
  BackendRegistry();

  struct Entry {
    Validator validate;
    Factory create;
  };
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace pipemare::core
