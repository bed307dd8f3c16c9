// The repository benchmark program: seeded training and serving workloads,
// end-to-end metrics with tracing off, and a separate traced run that
// breaks the time down layer by layer.
//
//   pipemare_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--out-dir=<dir>]
//
// Workloads (all inputs come from --seed):
//   train_resnet_steal          CIFAR10 analog, image recipe, threaded_steal
//   train_transformer_threaded  IWSLT analog, translation recipe, threaded
//   train_transformer_hogwild   IWSLT analog, translation recipe,
//                               threaded_hogwild
//   serve_transformer_mixed     IWSLT analog checkpoint served by
//                               PipelineServer to an open-loop client with a
//                               mix of target-prefix lengths
//
// Every workload reports the same end-to-end metrics (--trace=0):
//   setup_s          median set-up time: task + model + backend creation for
//                    training; checkpoint load + server start for serving
//   cpu_s            median CPU time (all threads) of the fixed job: the
//                    training recipe including evaluation, or a fixed burst
//                    of requests
//   items_per_cpu_s  training samples / (cpu_s - evaluation CPU time), or
//                    burst requests / cpu_s
//   final_loss       last-epoch mean training loss: the median over the
//                    quality seeds, or that of the served checkpoint
//   peak_rss_mb      peak resident memory of the workload process
// The job's wall-clock figures (run_s, items/s and the median latency of a
// training step or a burst request) are printed beside them and reported
// as the traced run's wall.* metrics: on a virtual machine under host steal
// the wall time of the same code moved 1.5-3x between runs, its CPU time
// about 20% at most.
// With --trace=1 it reports the per-layer metrics instead (see
// per_layer_names below), writes a Chrome trace of the traced run to
// --out-dir, and prints an attribution table of the traced run.
//
// Outputs are checked: training curves must be finite, improving, equal
// across repetitions of one seed and (epoch 1) bitwise-equal to the
// backend's oracle;
// served responses must all succeed and a seeded sample must be
// bitwise-equal to a solo model.forward on the loaded checkpoint. Each run
// prints a machine fingerprint and the hypervisor steal time it suffered
// (steal slows every timed phase). The last stdout line is one JSON object
// {correct, attempted, failed, metrics}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backend.h"
#include "src/core/experiments.h"
#include "src/core/metrics_observer.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/hwmodel/activation_memory.h"
#include "src/hwmodel/characteristics.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/cost_model.h"
#include "src/pipeline/partition.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/tensor/kernels/registry.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace {

using namespace pipemare;

// Per-stage metrics are reported for stages 0..kMaxStages-1 (0 past a
// workload's own P).
constexpr int kMaxStages = 4;

// Compute threads of every training workload: W of threaded_steal and
// threaded_hogwild (which keep P = 4), and P of `threaded`, which runs one
// thread per stage. Half of a 4-core host: with all four cores busy, one
// competing CPU-bound process slowed `threaded` at P = 4 by 40% and at
// P = 2 by 5%, and host steal rose with the load.
constexpr int kTrainThreads = 2;

// Microbatch size of the Transformer training workloads (minibatch 32, so
// N = 8). The recipe's microbatch 1 (N = 32 tasks of ~0.1 ms per stage)
// made every step a chain of thread wake-ups, which a virtual machine
// under host steal delays by far more than the work: one recipe took
// 2.1-6.5 s within a single run on `threaded`; at microbatch 4, 1.6-3.4 s.
constexpr int kTransformerMicrobatch = 4;

// ---------------------------------------------------------------------------
// Statistics and reporting.
// ---------------------------------------------------------------------------

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t now_ns() { return obs::TraceRecorder::instance().now_ns(); }

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
  }
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cout << "CHECK FAILED: " << what << '\n';
    }
  }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print_table() const {
    std::printf("%-40s %16s  %-8s %s\n", "metric", "value", "unit", "samples");
    for (const auto& m : metrics_) {
      std::printf("%-40s %16.6f  %-8s %zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }

  /// The result line: the last line of stdout.
  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) os << ", ";
      os << '"' << metrics_[i].name << "\": {\"value\": " << metrics_[i].value
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Time the hypervisor ran other guests instead of this machine's CPUs
/// (the steal column of /proc/stat), summed over CPUs, in seconds; 0 where
/// unreadable.
double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  if (!(stat >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal)) {
    return 0.0;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// CPU time this process has used (all threads, user + system), in
/// seconds. Unlike wall time it excludes host steal and waiting.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Wall-clock figures of an untraced run. They are not in its result line:
/// on a virtual machine under host steal they moved 1.5-3x between runs of
/// the same code, so the gated metrics are CPU times and these are the
/// traced run's wall.* per-layer metrics.
void print_wall(double run_s, double items_per_s, double latency_p50_ms, std::size_t samples) {
  std::printf("wall clock: run %.4f s, %.2f items/s, latency p50 %.4f ms (%zu samples)\n",
              run_s, items_per_s, latency_p50_ms, samples);
}

/// Machine fingerprint, printed with every result.
void print_fingerprint(const std::string& workload, int threads) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::string governor = "unreadable";
  std::ifstream gov("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (gov) std::getline(gov, governor);
  std::cout << "fingerprint: nproc=" << cores
            << " tiled_isa=" << tensor::kernels::KernelRegistry::tiled_isa()
            << " kernels=" << tensor::kernels::KernelRegistry::name()
            << " build=" << PERFBENCH_BUILD_TYPE << " governor=" << governor
            << " workload=" << workload << " threads=" << threads
            << (threads > cores ? " OVERSUBSCRIBED" : "") << '\n';
}

// ---------------------------------------------------------------------------
// Module-kind cost shares from the measured micro-profile.
// ---------------------------------------------------------------------------

const std::vector<std::string>& module_kinds() {
  static const std::vector<std::string> kinds = {
      "Conv2d", "BatchNorm2d", "Linear", "Attention", "LayerNorm", "Embedding",
      "other"};
  return kinds;
}

std::string module_kind(const std::string& name) {
  if (name.find("Attention") != std::string::npos) return "Attention";
  if (name == "TokenEmbedding" || name == "DecoderBridge") return "Embedding";
  for (const auto& k : module_kinds()) {
    if (name == k) return k;
  }
  return "other";
}

/// Share of measured per-microbatch time by module kind. `forward_only`
/// counts forward time alone (serving).
std::map<std::string, double> kind_shares(const nn::Model& model,
                                          std::shared_ptr<const nn::Flow> probe,
                                          bool forward_only) {
  pipeline::PartitionSpec spec;
  spec.strategy = pipeline::PartitionStrategy::Balanced;
  spec.measured = true;
  spec.measure_reps = 5;
  spec.probe = std::move(probe);
  const auto costs = pipeline::profile_module_costs(model, spec);
  std::map<std::string, double> shares;
  for (const auto& k : module_kinds()) shares[k] = 0.0;
  double total = 0.0;
  for (int i = 0; i < model.num_modules(); ++i) {
    const auto& c = costs[static_cast<std::size_t>(i)];
    const double t = forward_only ? c.fwd_flops : c.total_flops();
    shares[module_kind(model.module(i).name())] += t;
    total += t;
  }
  for (auto& [k, v] : shares) v = ratio(v, total);
  return shares;
}

/// Analytic FLOPs of one probe microbatch (forward only or round trip).
double analytic_flops(const nn::Model& model, std::shared_ptr<const nn::Flow> probe,
                      bool forward_only) {
  pipeline::PartitionSpec spec;
  spec.strategy = pipeline::PartitionStrategy::Balanced;
  spec.probe = std::move(probe);
  double flops = 0.0;
  for (const auto& c : pipeline::profile_module_costs(model, spec)) {
    flops += forward_only ? c.fwd_flops : c.total_flops();
  }
  return flops;
}

// ---------------------------------------------------------------------------
// Per-layer metric names. Every workload reports every name; a layer the
// workload bypasses reports 0.
// ---------------------------------------------------------------------------

struct LayerMetric {
  std::string name;
  std::string unit;
};

std::vector<LayerMetric> per_layer_names() {
  std::vector<LayerMetric> v = {
      {"quality.eval_metric", "score"},
      {"wall.run_s", "s"},
      {"wall.items_per_s", "1/s"},
      {"wall.latency_p50_ms", "ms"},
      {"core.step_ms.p50", "ms"},
      {"core.step_ms.p90", "ms"},
      {"core.evaluate_share", "ratio"},
      {"core.evaluate_ms", "ms"},
      {"data.minibatch_share", "ratio"},
      {"exec.fwd_bwd_share", "ratio"},
      {"exec.utilization", "ratio"},
      {"exec.utilization_predicted", "ratio"},
      {"exec.bubble_share", "ratio"},
      {"exec.push_wait_share", "ratio"},
      {"exec.busy_spread", "ratio"},
      {"sched.steals_per_step", "count"},
      {"sched.stolen_busy_share", "ratio"},
      {"pipeline.commit_ms", "ms"},
      {"optim.step_ms", "ms"},
      {"optim.clip_ms", "ms"},
  };
  for (int s = 0; s < kMaxStages; ++s) {
    const std::string k = std::to_string(s);
    v.push_back({"pipeline.staleness_mean.stage" + k, "steps"});
    v.push_back({"pipeline.tau_fwd_predicted.stage" + k, "steps"});
  }
  v.push_back({"pipeline.staleness_max", "steps"});
  // Only `threaded` publishes mailbox in-flight high-water marks.
  for (int s = 0; s < kTrainThreads; ++s) {
    const std::string k = std::to_string(s);
    v.push_back({"pipeline.inflight_high_water.stage" + k, "count"});
    v.push_back({"pipeline.inflight_predicted.stage" + k, "count"});
  }
  for (const auto& k : module_kinds()) v.push_back({"nn." + k + ".share", "ratio"});
  for (const LayerMetric& m : std::vector<LayerMetric>{
           {"tensor.gemm_calls_per_step", "count"},
           {"tensor.flops_per_step", "flop"},
           {"tensor.gflops_effective", "GFLOP/s"},
           {"serve.queue_ms.p50", "ms"},
           {"serve.queue_ms.p99", "ms"},
           {"serve.service_ms.p50", "ms"},
           {"serve.latency_p50_ms", "ms"},
           {"serve.latency_p99_ms", "ms"},
           {"serve.mean_batch", "count"},
           {"serve.stage_busy_share", "ratio"},
           {"serve.worker_pop_wait_share", "ratio"},
           {"serve.generator_late_ms.max", "ms"},
           {"serve.goodput_rps", "1/s"},
           {"obs.trace_overhead", "ratio"},
           {"obs.dropped_events", "count"},
           {"attr.unattributed_share", "ratio"},
       }) {
    v.push_back(m);
  }
  return v;
}

/// Emits every per-layer metric, taking values from `values` (0 when the
/// workload bypasses the layer).
void report_layers(Report& report, const std::map<std::string, double>& values,
                   std::size_t samples) {
  for (const auto& m : per_layer_names()) {
    auto it = values.find(m.name);
    report.add(m.name, it == values.end() ? 0.0 : it->second, m.unit,
               it == values.end() ? 0 : samples);
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& m : per_layer_names()) known = known || m.name == name;
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

void span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
          std::int64_t step = -1) {
  obs::TraceRecorder& r = obs::TraceRecorder::instance();
  if (r.enabled()) r.record_complete(name, "bench", start_ns, end_ns - start_ns, -1, -1, step);
}

// ---------------------------------------------------------------------------
// Training: forwarding decorators that time each trainer phase.
// ---------------------------------------------------------------------------

/// Phase times of one training run, accumulated by the decorators.
struct Phases {
  std::vector<double> step_ms;
  std::uint64_t minibatch_ns = 0, fwd_bwd_ns = 0, clip_ns = 0, optim_ns = 0,
                commit_ns = 0, eval_ns = 0;
  int evals = 0;
  double eval_cpu_s = 0.0;  ///< process CPU time inside evaluate
  std::uint64_t gemm_calls = 0;  ///< GEMM dispatches inside forward_backward
  std::uint64_t step_start = 0, mark = 0;
  std::int64_t steps = 0;
};

class TimedTask final : public core::Task {
 public:
  TimedTask(const core::Task& inner, Phases& phases) : inner_(inner), p_(&phases) {}

  std::string name() const override { return inner_.name(); }
  std::string metric_name() const override { return inner_.metric_name(); }
  nn::Model build_model() const override { return inner_.build_model(); }
  const nn::LossHead& loss() const override { return inner_.loss(); }
  int train_size() const override { return inner_.train_size(); }

  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    const std::uint64_t t0 = now_ns();
    auto mb = inner_.minibatch(indices, micro_size);
    const std::uint64_t t1 = now_ns();
    p_->step_start = t0;
    p_->minibatch_ns += t1 - t0;
    span("minibatch", t0, t1, p_->steps);
    return mb;
  }

  double evaluate(const nn::Model& model, std::span<const float> params) const override {
    // The executor's threads are parked while the trainer evaluates, so
    // the process CPU time here is evaluate's own.
    const double c0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const double metric = inner_.evaluate(model, params);
    const std::uint64_t t1 = now_ns();
    p_->eval_cpu_s += process_cpu_s() - c0;
    p_->eval_ns += t1 - t0;
    ++p_->evals;
    span("evaluate", t0, t1);
    return metric;
  }

 private:
  const core::Task& inner_;
  Phases* p_;
};

/// Times forward_backward, the clip gap (forward_backward end ->
/// lr_segments), the optimizer gap (lr_segments -> commit_update) and
/// commit_update; forwards everything else.
class TimedBackend final : public core::ExecutionBackend {
 public:
  TimedBackend(core::ExecutionBackend& inner, Phases& phases, bool count_gemms)
      : inner_(inner), p_(&phases), count_gemms_(count_gemms) {}

  pipeline::StepResult forward_backward(const std::vector<nn::Flow>& inputs,
                                        const std::vector<tensor::Tensor>& targets,
                                        const nn::LossHead& head) override {
    obs::Counter& gemm = obs::MetricsRegistry::instance().counter("kernels.gemm_dispatch");
    const std::uint64_t g0 = count_gemms_ ? gemm.value() : 0;
    const std::uint64_t t0 = now_ns();
    auto res = inner_.forward_backward(inputs, targets, head);
    const std::uint64_t t1 = now_ns();
    if (count_gemms_) p_->gemm_calls += gemm.value() - g0;
    p_->fwd_bwd_ns += t1 - t0;
    p_->mark = t1;
    span("forward_backward", t0, t1, p_->steps);
    return res;
  }
  std::span<float> weights() override { return inner_.weights(); }
  std::span<const float> weights() const override {
    return static_cast<const core::ExecutionBackend&>(inner_).weights();
  }
  std::span<float> gradients() override { return inner_.gradients(); }
  void commit_update() override {
    const std::uint64_t t0 = now_ns();
    p_->optim_ns += t0 - p_->mark;
    span("optimizer", p_->mark, t0, p_->steps);
    inner_.commit_update();
    const std::uint64_t t1 = now_ns();
    p_->commit_ns += t1 - t0;
    span("commit", t0, t1, p_->steps);
    p_->step_ms.push_back(ms(t1 - p_->step_start));
    ++p_->steps;
  }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const override {
    const std::uint64_t t0 = now_ns();
    p_->clip_ns += t0 - p_->mark;
    span("clip", p_->mark, t0, p_->steps);
    p_->mark = t0;  // lr_segments itself counts as optimizer time
    return inner_.lr_segments(base_lr, scales);
  }
  std::vector<double> stage_tau_fwd() const override { return inner_.stage_tau_fwd(); }
  void set_method(pipeline::Method m) override { inner_.set_method(m); }
  pipeline::Method method() const override { return inner_.method(); }
  const nn::Model& model() const override { return inner_.model(); }
  std::string_view name() const override { return inner_.name(); }
  std::vector<pipeline::StageStats> stage_stats() const override {
    return inner_.stage_stats();
  }
  void reset_stage_stats() override { inner_.reset_stage_stats(); }
  bool supports_repartition() const override { return inner_.supports_repartition(); }
  const pipeline::Partition* partition() const override { return inner_.partition(); }
  void repartition(const pipeline::Partition& next) override { inner_.repartition(next); }

 private:
  core::ExecutionBackend& inner_;
  Phases* p_;
  bool count_gemms_;
};

// ---------------------------------------------------------------------------
// Training workloads.
// ---------------------------------------------------------------------------

struct TrainSpec {
  std::string name;
  bool image = false;  ///< CIFAR10 analog + ResNet, else IWSLT analog + Transformer
  std::string backend;
  std::string oracle;  ///< backend whose epoch 1 must match bitwise
  int oracle_workers = 0;
  int stages = 0;      ///< P; the `threaded` backend runs one thread per stage
  int microbatch = 0;  ///< microbatch size; 0 keeps the recipe's
  /// Recipe length: short, so a 20 s run holds about ten repetitions. The
  /// translation recipe's first 2 epochs are its synchronous warmup.
  int epochs = 0;
};

std::unique_ptr<core::Task> make_task(bool image, std::uint64_t seed) {
  if (image) return core::make_cifar10_analog(seed);
  return core::make_iwslt_analog(seed);
}

core::BackendConfig backend_config(const std::string& name, int workers) {
  if (name == "threaded_steal") return {name, core::StealOptions{.workers = workers}};
  if (name == "threaded_hogwild") {
    core::ThreadedHogwildOptions opts;
    opts.workers = workers;
    return {name, opts};
  }
  return {name};
}

core::TrainerConfig train_config(const TrainSpec& spec, const core::Task& task,
                                 std::uint64_t seed, const core::BackendConfig& backend) {
  core::TrainerConfig cfg = spec.image ? core::image_recipe(spec.stages, spec.epochs)
                                       : core::translation_recipe(spec.stages, spec.epochs);
  cfg.seed = seed;
  cfg.backend = backend;
  if (spec.microbatch > 0) cfg.microbatch_size = spec.microbatch;
  cfg.engine.num_microbatches = cfg.num_microbatches();
  // As core::train does: the stealing backend ranks victims from a probe
  // microbatch's predicted stage costs.
  if (backend.name == "threaded_steal") {
    std::vector<int> idx(static_cast<std::size_t>(cfg.microbatch_size));
    for (int i = 0; i < cfg.microbatch_size; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto mb = task.minibatch(idx, cfg.microbatch_size);
    cfg.engine.partition.probe = std::make_shared<const nn::Flow>(std::move(mb.inputs.at(0)));
  }
  return cfg;
}

/// One training run: set-up (task, model, backend) then the recipe.
struct TrainRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the recipe (all threads)
  Phases phases;
  core::TrainResult result;
  std::vector<pipeline::StageStats> stage_stats;
  std::vector<float> weights;
  int minibatch = 0;
  int microbatches = 0;
  int warmup_epochs = 0;
  std::map<std::string, double> gauges;  ///< traced run: registry readings
};

TrainRun train_once(const TrainSpec& spec, std::uint64_t seed,
                    const core::BackendConfig& backend, int epochs, bool traced) {
  TrainRun run;
  const std::uint64_t t0 = now_ns();
  auto task = make_task(spec.image, seed);
  core::TrainerConfig cfg = train_config(spec, *task, seed, backend);
  cfg.epochs = epochs;
  auto engine = core::BackendRegistry::instance().create(task->build_model(), cfg.backend,
                                                        cfg.engine, cfg.seed);
  const std::uint64_t t1 = now_ns();
  const double cpu1 = process_cpu_s();
  span("setup", t0, t1);
  run.setup_s = static_cast<double>(t1 - t0) / 1e9;
  run.minibatch = cfg.minibatch_size;
  run.microbatches = cfg.num_microbatches();
  run.warmup_epochs = cfg.warmup_epochs;

  TimedTask timed_task(*task, run.phases);
  TimedBackend timed_backend(*engine, run.phases, traced);
  // The metrics observer mirrors engine-private counters (mailbox
  // in-flight high-water marks) into the registry at each epoch.
  core::MetricsObserver metrics(*engine);
  core::StepObserver* observers[] = {&metrics};
  run.result = core::train_loop(timed_task, timed_backend, cfg,
                                std::span<core::StepObserver* const>(observers, traced ? 1 : 0));
  const std::uint64_t t2 = now_ns();
  run.run_s = static_cast<double>(t2 - t1) / 1e9;
  run.cpu_s = process_cpu_s() - cpu1;
  run.stage_stats = engine->stage_stats();
  run.weights.assign(engine->weights().begin(), engine->weights().end());
  if (traced) {
    auto& reg = obs::MetricsRegistry::instance();
    for (int s = 0; s < spec.stages; ++s) {
      const std::string k = std::to_string(s);
      if (const auto* h = reg.find_histogram("train.staleness.stage" + k)) {
        run.gauges["staleness_mean." + k] = h->mean();
        run.gauges["staleness_max"] = std::max(run.gauges["staleness_max"], h->max_observed());
      }
      run.gauges["inflight." + k] =
          reg.gauge("pipeline.mailbox.stage" + k + ".inflight_high_water").value();
    }
  }
  return run;
}

bool curve_sane(const core::TrainResult& r) {
  if (r.diverged || r.curve.empty()) return false;
  for (const auto& e : r.curve) {
    if (!std::isfinite(e.train_loss) || !std::isfinite(e.metric)) return false;
  }
  return r.curve.back().train_loss < r.curve.front().train_loss;
}

bool same_curve(const core::TrainResult& a, const core::TrainResult& b) {
  if (a.curve.size() != b.curve.size()) return false;
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (std::memcmp(&a.curve[i].train_loss, &b.curve[i].train_loss, sizeof(double)) != 0 ||
        std::memcmp(&a.curve[i].metric, &b.curve[i].metric, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Epoch 1 of the measured backend against its oracle, bitwise (untimed),
/// and against epoch 1 of `timed`, a timed run on the same seed.
void check_oracle(const TrainSpec& spec, std::uint64_t seed, const core::TrainResult& timed,
                  Report& report) {
  TrainRun measured =
      train_once(spec, seed, backend_config(spec.backend, kTrainThreads), 1, false);
  TrainRun oracle =
      train_once(spec, seed, backend_config(spec.oracle, spec.oracle_workers), 1, false);
  const bool ok = same_curve(measured.result, oracle.result) &&
                  measured.weights.size() == oracle.weights.size() &&
                  std::memcmp(measured.weights.data(), oracle.weights.data(),
                              measured.weights.size() * sizeof(float)) == 0;
  report.check(ok, spec.backend + " epoch 1 differs from its " + spec.oracle + " oracle");
  core::TrainResult first = timed;
  first.curve.resize(1);
  report.check(same_curve(measured.result, first),
               "two runs of one seed trained different epochs 1");
}

/// Quality seeds per run: the data and initial weights of repetition i
/// come from quality_seed(seed, i).
constexpr std::size_t kQualitySeeds = 7;

/// Set-up samples behind the setup_s median.
constexpr std::size_t kSetupSamples = 51;

std::uint64_t quality_seed(std::uint64_t seed, std::size_t rep) {
  return seed * kQualitySeeds + rep % kQualitySeeds;
}

/// Step-weighted hwmodel utilization prediction: synchronous (warmup)
/// epochs idle (P-1)/(N+P-1) of the pipeline, PipeMare epochs none.
double predicted_utilization(const TrainRun& run, int stages, int epochs) {
  const int warm = std::min(run.warmup_epochs, epochs);
  const double sync =
      hwmodel::normalized_throughput_simple(pipeline::Method::Sync, stages, run.microbatches);
  const double async =
      hwmodel::normalized_throughput_simple(pipeline::Method::PipeMare, stages, run.microbatches);
  return (warm * sync + (epochs - warm) * async) / epochs;
}

Report run_training(const TrainSpec& spec, std::uint64_t seed, double seconds, bool trace,
                    const std::string& out_dir) {
  Report report;
  // W workers (P stage threads on `threaded`) compute; the trainer thread
  // blocks while they run.
  print_fingerprint(spec.name, kTrainThreads);
  const core::BackendConfig backend = backend_config(spec.backend, kTrainThreads);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  if (!trace) {
    // Timed repetitions of the whole recipe until the budget is spent.
    // Repetition i trains on quality seed i mod kQualitySeeds, so the
    // quality median does not hang on one draw of data and initial weights.
    std::vector<TrainRun> runs;
    std::vector<double> setup_s;
    while (runs.size() < kQualitySeeds || elapsed() < seconds) {
      const std::size_t i = runs.size();
      const double steal0 = steal_s();
      runs.push_back(train_once(spec, quality_seed(seed, i), backend, spec.epochs, false));
      const TrainRun& r = runs.back();
      std::printf("rep %zu: setup %.6f s, run %.4f s, cpu %.4f s, evaluate %.4f s, %lld steps, "
                  "final loss %.6f, %s %.4f, host steal %.2f CPU-s\n",
                  i + 1, r.setup_s, r.run_s, r.cpu_s,
                  static_cast<double>(r.phases.eval_ns) / 1e9,
                  static_cast<long long>(r.phases.steps), r.result.curve.back().train_loss,
                  spec.image ? "test accuracy" : "BLEU", r.result.curve.back().metric,
                  steal_s() - steal0);
      setup_s.push_back(r.setup_s);
      runs.back().weights.clear();
    }
    const double rss = peak_rss_mb();
    // Set-up alone, so the median rests on enough samples.
    while (setup_s.size() < kSetupSamples) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t s = quality_seed(seed, setup_s.size());
      auto task = make_task(spec.image, s);
      core::TrainerConfig cfg = train_config(spec, *task, s, backend);
      auto engine = core::BackendRegistry::instance().create(task->build_model(), cfg.backend,
                                                            cfg.engine, cfg.seed);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }

    std::vector<double> run_s, items, steps_ms, cpu, items_cpu, loss;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const TrainRun& r = runs[i];
      report.check(curve_sane(r.result), "training curve not finite or not improving");
      if (i < kQualitySeeds) {
        loss.push_back(r.result.curve.back().train_loss);
      } else {
        report.check(same_curve(r.result, runs[i % kQualitySeeds].result),
                     "repetitions of one seed trained different curves");
      }
      run_s.push_back(r.run_s);
      const double samples = static_cast<double>(r.phases.steps) * r.minibatch;
      items.push_back(samples / (r.run_s - static_cast<double>(r.phases.eval_ns) / 1e9));
      steps_ms.insert(steps_ms.end(), r.phases.step_ms.begin(), r.phases.step_ms.end());
      cpu.push_back(r.cpu_s);
      items_cpu.push_back(samples / (r.cpu_s - r.phases.eval_cpu_s));
    }
    check_oracle(spec, quality_seed(seed, 0), runs.front().result, report);

    print_wall(median(run_s), median(items), quantile(steps_ms, 0.5), run_s.size());
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("cpu_s", median(cpu), "s", cpu.size());
    report.add("items_per_cpu_s", median(items_cpu), "1/s", items_cpu.size());
    report.add("final_loss", median(loss), "loss", loss.size());
    report.add("peak_rss_mb", rss, "MB", 1);
  } else {
    const std::uint64_t seed0 = quality_seed(seed, 0);
    // Alternate untraced and traced runs: their ratio is the tracing
    // overhead; the last traced run gives the per-layer metrics.
    std::vector<double> plain_s, traced_s, wall_run_s, wall_items, wall_steps_ms;
    TrainRun traced;
    std::uint64_t dropped = 0;
    const std::string trace_path = out_dir + "/trace_" + spec.name + ".json";
    // Which side of a pair runs first alternates from pair to pair.
    while (traced_s.size() < 2 || elapsed() < seconds) {
      TrainRun plain;
      const bool plain_first = traced_s.size() % 2 == 0;
      if (plain_first) plain = train_once(spec, seed0, backend, spec.epochs, false);
      obs::MetricsRegistry::instance().reset();
      obs::TraceRecorder::instance().enable();
      traced = train_once(spec, seed0, backend, spec.epochs, true);
      obs::TraceRecorder::instance().disable();
      if (!plain_first) plain = train_once(spec, seed0, backend, spec.epochs, false);
      plain_s.push_back(plain.setup_s + plain.run_s);
      traced_s.push_back(traced.setup_s + traced.run_s);
      wall_run_s.push_back(plain.run_s);
      wall_items.push_back(static_cast<double>(plain.phases.steps) * plain.minibatch /
                           (plain.run_s - static_cast<double>(plain.phases.eval_ns) / 1e9));
      wall_steps_ms.insert(wall_steps_ms.end(), plain.phases.step_ms.begin(),
                           plain.phases.step_ms.end());
      dropped = obs::TraceRecorder::instance().dropped();
      report.check(curve_sane(traced.result), "traced training curve not sane");
      report.check(same_curve(plain.result, traced.result), "tracing changed the curve");
    }
    obs::TraceRecorder::instance().write_chrome_trace(trace_path);
    check_oracle(spec, seed0, traced.result, report);

    const Phases& p = traced.phases;
    const double run_ns = traced.run_s * 1e9;
    const double steps = static_cast<double>(p.steps);
    std::map<std::string, double> v;
    v["quality.eval_metric"] = traced.result.curve.back().metric;
    v["wall.run_s"] = median(wall_run_s);
    v["wall.items_per_s"] = median(wall_items);
    v["wall.latency_p50_ms"] = quantile(wall_steps_ms, 0.5);
    v["core.step_ms.p50"] = quantile(p.step_ms, 0.5);
    v["core.step_ms.p90"] = quantile(p.step_ms, 0.9);
    v["core.evaluate_share"] = ratio(static_cast<double>(p.eval_ns), run_ns);
    v["core.evaluate_ms"] = ratio(ms(p.eval_ns), p.evals);
    v["data.minibatch_share"] = ratio(static_cast<double>(p.minibatch_ns), run_ns);
    v["exec.fwd_bwd_share"] = ratio(static_cast<double>(p.fwd_bwd_ns), run_ns);
    double busy = 0, pop = 0, push = 0, stolen_items = 0, stolen_ns = 0;
    double busy_max = 0, busy_min = 1e300;
    for (const auto& s : traced.stage_stats) {
      busy += static_cast<double>(s.busy_ns);
      pop += static_cast<double>(s.pop_wait_ns);
      push += static_cast<double>(s.push_wait_ns);
      stolen_items += static_cast<double>(s.stolen_items);
      stolen_ns += static_cast<double>(s.stolen_ns);
      busy_max = std::max(busy_max, static_cast<double>(s.busy_ns));
      busy_min = std::min(busy_min, static_cast<double>(s.busy_ns));
    }
    // Slots are the compute threads (threaded_steal reports P stages
    // served by W workers).
    const double slot_ns = kTrainThreads * static_cast<double>(p.fwd_bwd_ns);
    v["exec.utilization"] = ratio(busy, slot_ns);
    v["exec.utilization_predicted"] = predicted_utilization(traced, spec.stages, spec.epochs);
    v["exec.bubble_share"] = ratio(pop, slot_ns);
    v["exec.push_wait_share"] = ratio(push, slot_ns);
    v["exec.busy_spread"] = ratio(busy_max, busy_min);
    v["sched.steals_per_step"] = ratio(stolen_items, steps);
    v["sched.stolen_busy_share"] = ratio(stolen_ns, busy);
    v["pipeline.commit_ms"] = ratio(ms(p.commit_ns), steps);
    v["optim.step_ms"] = ratio(ms(p.optim_ns), steps);
    v["optim.clip_ms"] = ratio(ms(p.clip_ns), steps);
    const auto counts = hwmodel::pipemare_activation_counts(spec.stages);
    for (int s = 0; s < spec.stages; ++s) {
      const std::string k = std::to_string(s);
      v["pipeline.staleness_mean.stage" + k] = traced.gauges["staleness_mean." + k];
      v["pipeline.tau_fwd_predicted.stage" + k] = hwmodel::tau_fwd(
          pipeline::Method::PipeMare, spec.stages, traced.microbatches, s + 1);
      if (spec.backend == "threaded") {
        v["pipeline.inflight_high_water.stage" + k] = traced.gauges["inflight." + k];
        v["pipeline.inflight_predicted.stage" + k] = static_cast<double>(
            std::min<std::int64_t>(counts[static_cast<std::size_t>(s)], traced.microbatches));
      }
    }
    v["pipeline.staleness_max"] = traced.gauges["staleness_max"];

    // Module-kind shares and analytic FLOPs on the workload's probe
    // microbatch (the first training microbatch).
    auto task = make_task(spec.image, seed0);
    const core::TrainerConfig cfg = train_config(spec, *task, seed0, backend);
    std::vector<int> idx(static_cast<std::size_t>(cfg.microbatch_size));
    for (int i = 0; i < cfg.microbatch_size; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto probe = std::make_shared<const nn::Flow>(
        std::move(task->minibatch(idx, cfg.microbatch_size).inputs.at(0)));
    const nn::Model model = task->build_model();
    for (const auto& [kind, share] : kind_shares(model, probe, false)) {
      v["nn." + kind + ".share"] = share;
    }
    const double flops_per_step = analytic_flops(model, probe, false) * traced.microbatches;
    v["tensor.gemm_calls_per_step"] = ratio(static_cast<double>(p.gemm_calls), steps);
    v["tensor.flops_per_step"] = flops_per_step;
    v["tensor.gflops_effective"] =
        ratio(flops_per_step * steps, static_cast<double>(p.fwd_bwd_ns));
    v["obs.trace_overhead"] = ratio(median(traced_s), median(plain_s));
    v["obs.dropped_events"] = static_cast<double>(dropped);

    // Attribution of the traced run's wall time (set-up + recipe).
    const double wall_ms = (traced.setup_s + traced.run_s) * 1e3;
    const std::vector<std::pair<std::string, double>> rows = {
        {"setup", traced.setup_s * 1e3},  {"minibatch", ms(p.minibatch_ns)},
        {"forward_backward", ms(p.fwd_bwd_ns)}, {"clip", ms(p.clip_ns)},
        {"optimizer", ms(p.optim_ns)},    {"commit", ms(p.commit_ns)},
        {"evaluate", ms(p.eval_ns)},
    };
    double attributed = 0.0;
    std::printf("attribution of the traced run (%s):\n", trace_path.c_str());
    for (const auto& [row, t] : rows) {
      std::printf("  %-18s %12.3f ms  %6.2f%%\n", row.c_str(), t, 100.0 * t / wall_ms);
      attributed += t;
    }
    std::printf("  %-18s %12.3f ms  %6.2f%%\n", "unattributed", wall_ms - attributed,
                100.0 * (wall_ms - attributed) / wall_ms);
    std::printf("  %-18s %12.3f ms\n", "wall", wall_ms);
    v["attr.unattributed_share"] = ratio(wall_ms - attributed, wall_ms);
    report_layers(report, v, p.step_ms.size());
  }
  return report;
}

// ---------------------------------------------------------------------------
// Serving workload.
// ---------------------------------------------------------------------------

constexpr int kServeStages = 4;
constexpr int kServeWorkers = 2;     // + the client thread = 3 threads
constexpr int kServeMaxBatch = 8;
constexpr int kServeEpochs = 12;     // checkpoint training (input generation)
// Saturation throughput of this set-up (P = 4, 2 workers, max batch 8,
// the prefix mix below): the median burst rate of 25 runs on a 4-vCPU
// x86-64 host (4.4k-7.1k req/s, mean batch 1.30-1.37; each run prints its
// own). The traced run's open-loop client runs at half of it.
constexpr double kSaturationRps = 5700.0;
constexpr double kNominalRate = kSaturationRps / 2;
constexpr int kBurst = 1500;             // requests in one fixed burst
constexpr int kSegments = 8;             // open-loop segments, one server each
constexpr double kLadderP99LimitMs = 5.0;
const int kPrefixMix[] = {2, 4, 6, 9};   // target-prefix lengths (tokens)

/// One scoring request: a test source and a teacher-forced target prefix;
/// the served logits at the last prefix position score the next token.
struct ScoreRequest {
  nn::Flow flow;
  int next_token = 0;
};

std::vector<ScoreRequest> make_requests(const core::TranslationTask& task, int count,
                                        util::Rng& rng) {
  const auto& ds = task.dataset();
  const auto test = ds.test_set();
  const int n = test.sources.dim(0);
  const int s = test.sources.dim(1);
  std::vector<ScoreRequest> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int row = rng.randint(n);
    const int len = kPrefixMix[rng.randint(static_cast<int>(std::size(kPrefixMix)))];
    const auto& ref = test.references[static_cast<std::size_t>(row)];
    ScoreRequest r;
    r.flow.x = tensor::Tensor({1, s});
    for (int j = 0; j < s; ++j) r.flow.x.at(0, j) = test.sources.at(row, j);
    r.flow.aux = tensor::Tensor({1, len});
    r.flow.aux.at(0, 0) = static_cast<float>(data::TranslationConfig::kBos);
    for (int t = 1; t < len; ++t) {
      r.flow.aux.at(0, t) = static_cast<float>(ref[static_cast<std::size_t>(t - 1)]);
    }
    r.next_token = len - 1 < static_cast<int>(ref.size())
                       ? ref[static_cast<std::size_t>(len - 1)]
                       : data::TranslationConfig::kEos;
    out.push_back(std::move(r));
  }
  return out;
}

/// Trains the served checkpoint (synchronous, on the threaded backend,
/// which is bitwise-equal to sequential) and writes it to `path`, in a
/// child process so the serving process's peak memory is its own. Returns
/// the last-epoch mean training loss, which the child sends through a pipe.
double make_checkpoint(std::uint64_t seed, const std::string& path) {
  std::cout.flush();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      auto task = core::make_iwslt_analog(seed);
      core::TrainerConfig cfg = core::translation_recipe(kServeStages, kServeEpochs);
      cfg.seed = seed;
      cfg.backend = "threaded";
      cfg.engine.method = pipeline::Method::Sync;
      cfg.warmup_epochs = 0;
      cfg.t1 = false;
      cfg.engine.discrepancy_correction = false;
      cfg.engine.num_microbatches = cfg.num_microbatches();
      auto engine = core::BackendRegistry::instance().create(task->build_model(), cfg.backend,
                                                            cfg.engine, cfg.seed);
      const double loss = core::train_loop(*task, *engine, cfg).curve.back().train_loss;
      serve::save_checkpoint(path, engine->model(), engine->weights());
      if (write(fds[1], &loss, sizeof loss) != sizeof loss) code = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint training failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  double loss = 0.0;
  const bool got = read(fds[0], &loss, sizeof loss) == sizeof loss;
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !got) {
    throw std::runtime_error("checkpoint training process failed");
  }
  return loss;
}

serve::ServeConfig serve_config(int queue_capacity) {
  serve::ServeConfig cfg;
  cfg.num_stages = kServeStages;
  cfg.workers = kServeWorkers;
  cfg.queue_capacity = queue_capacity;
  cfg.batch.policy = serve::BatchPolicy::Continuous;
  cfg.batch.max_batch = kServeMaxBatch;
  return cfg;
}

/// Client-side record of one request.
struct Served {
  serve::TicketPtr ticket;
  std::uint64_t due_ns = 0, submit_ns = 0;
};

/// Open-loop client: requests are submitted at Poisson due times from
/// `rng` regardless of completions, then all are awaited. The client spins
/// to each due time: waking from a sleep adds a delay that, on a virtual
/// machine under host steal, varies more than the service does.
std::vector<Served> open_loop(serve::PipelineServer& server,
                              const std::vector<ScoreRequest>& requests, double rate,
                              util::Rng& rng, double& max_late_ms) {
  std::vector<Served> served(requests.size());
  max_late_ms = 0.0;
  std::uint64_t due = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    due += static_cast<std::uint64_t>(-std::log(1.0 - rng.uniform()) / rate * 1e9);
    while (now_ns() < due) {
    }
    served[i].due_ns = due;
    served[i].submit_ns = now_ns();
    max_late_ms = std::max(max_late_ms, ms(served[i].submit_ns - due));
    served[i].ticket = server.submit(requests[i].flow);
  }
  for (auto& s : served) s.ticket->wait();
  return served;
}

/// Latency of a completed request: from its due time to its completion,
/// which the server stamps (Response::total_ms runs from admission).
/// A client thread waiting on each ticket would add its own wake-up, which
/// on a virtual machine under host steal varies more than the service.
double latency_ms(const Served& s) {
  return ms(s.submit_ns - s.due_ns) + s.ticket->wait().total_ms;
}

/// Fixed burst: every request submitted at once; returns the wall time
/// from the first submit to the last completion.
double burst(serve::PipelineServer& server, const std::vector<ScoreRequest>& requests,
             std::vector<serve::TicketPtr>& tickets) {
  tickets.clear();
  tickets.reserve(requests.size());
  const std::uint64_t t0 = now_ns();
  for (const auto& r : requests) tickets.push_back(server.submit(r.flow));
  for (auto& t : tickets) t->wait();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Whether a served response predicts the next token (argmax of the logits
/// at the last prefix position).
bool hit(const serve::Response& r, int next_token) {
  const int len = r.output.dim(1);
  const int vocab = r.output.dim(2);
  int best = 0;
  for (int j = 1; j < vocab; ++j) {
    if (r.output.at(0, len - 1, j) > r.output.at(0, len - 1, best)) best = j;
  }
  return best == next_token;
}

Report run_serving(std::uint64_t seed, double seconds, bool trace, const std::string& out_dir) {
  Report report;
  print_fingerprint("serve_transformer_mixed", kServeWorkers + 1);
  // The budget includes training the checkpoint, so a run takes about
  // --seconds like the training workloads.
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const std::string ckpt_path = out_dir + "/serve_" + std::to_string(seed) + ".pmck";
  const double checkpoint_loss = make_checkpoint(seed, ckpt_path);

  auto task = core::make_iwslt_analog(seed);
  const nn::Model model = task->build_model();
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto burst_requests = make_requests(*task, kBurst, rng);
  // The open-loop segments run in the traced run only: at the nominal
  // rate every request wakes a sleeping worker, and under host steal their
  // p50 latency swung 0.5-7.2 ms between runs of the same code, so it is
  // reported as a per-layer metric (serve.latency_p50_ms).
  const int segment_count =
      static_cast<int>(kNominalRate * std::max(1.0, seconds * 0.5) / kSegments);
  std::vector<std::vector<ScoreRequest>> segments;
  for (int i = 0; trace && i < kSegments; ++i) {
    segments.push_back(make_requests(*task, segment_count, rng));
  }

  // Every burst and open-loop segment runs on a freshly started server, so
  // thread placement varies within a run instead of between runs. Set-up
  // is checkpoint load + server construction + start.
  std::vector<double> setup_s;
  std::uint64_t refused = 0;
  std::vector<float> weights;
  auto start_server = [&] {
    const std::uint64_t t0 = now_ns();
    auto server = std::make_unique<serve::PipelineServer>(
        model, serve::load_checkpoint(ckpt_path), serve_config(kBurst));
    server->start();
    const std::uint64_t t1 = now_ns();
    span("setup", t0, t1);
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (weights.empty()) weights.assign(server->weights().begin(), server->weights().end());
    return server;
  };
  auto stop_server = [&](serve::PipelineServer& server) {
    server.stop();
    const auto c = server.counters();
    refused += c.rejected_full + c.rejected_stopped + c.deadline_expired + c.errors;
  };

  std::uint64_t failed = 0, attempted = 0;
  int hits = 0, scored = 0;
  auto account = [&](const serve::Response& r, int next_token) {
    ++attempted;
    if (r.status != serve::Status::Ok) {
      ++failed;
      return;
    }
    hits += hit(r, next_token) ? 1 : 0;
    ++scored;
  };

  // Bitwise parity of a seeded sample against a solo forward.
  util::Rng pick(seed + 17);
  int parity_checked = 0, mismatches = 0;
  auto check_parity = [&](const std::vector<ScoreRequest>& reqs,
                          const std::vector<serve::TicketPtr>& tickets, int samples) {
    for (int i = 0; i < samples; ++i) {
      const auto k = static_cast<std::size_t>(pick.randint(static_cast<int>(reqs.size())));
      const serve::Response& r = tickets[k]->wait();
      if (r.status != serve::Status::Ok) continue;  // counted as failed already
      auto caches = model.make_caches();
      nn::Flow in = reqs[k].flow;
      in.training = false;
      const tensor::Tensor solo = model.forward(std::move(in), weights, caches).x;
      ++parity_checked;
      if (solo.size() != r.output.size() ||
          std::memcmp(solo.data(), r.output.data(),
                      static_cast<std::size_t>(solo.size()) * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
  };

  std::vector<serve::TicketPtr> tickets;
  std::map<std::string, double> v;

  // Fixed bursts (the throughput job), each on a freshly started server.
  // Every request is submitted at once, so a burst runs the server at
  // saturation. The traced run pairs each untraced burst with a traced one
  // on its own server, alternating which of the two runs first.
  std::vector<double> burst_s, traced_burst_s, burst_latency_p50, burst_cpu_s;
  double burst_batches = 0, burst_admitted = 0;
  auto run_burst = [&](bool traced) {
    auto server = start_server();
    if (traced) obs::TraceRecorder::instance().enable();
    const double cpu0 = process_cpu_s();
    const double wall = burst(*server, burst_requests, tickets);
    const double cpu = process_cpu_s() - cpu0;
    if (traced) obs::TraceRecorder::instance().disable();
    (traced ? traced_burst_s : burst_s).push_back(wall);
    if (!traced) burst_cpu_s.push_back(cpu);
    std::vector<double> latency;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const serve::Response& r = tickets[i]->wait();
      account(r, burst_requests[i].next_token);
      if (r.status == serve::Status::Ok) latency.push_back(r.total_ms);
    }
    if (!traced) burst_latency_p50.push_back(median(latency));
    check_parity(burst_requests, tickets, 8);
    const auto c = server->counters();
    burst_batches += static_cast<double>(c.batches);
    burst_admitted += static_cast<double>(c.admitted);
    stop_server(*server);
  };
  while (burst_s.size() < 3 || elapsed() < seconds * (trace ? 0.4 : 1.0)) {
    const bool plain_first = burst_s.size() % 2 == 0;
    if (plain_first || !trace) run_burst(false);
    if (trace) run_burst(true);
    if (!plain_first && trace) run_burst(false);
  }
  std::printf("%zu bursts of %d requests: median %.4f s, saturation %.1f req/s, "
              "mean batch %.3f\n",
              burst_s.size(), kBurst, median(burst_s), kBurst / median(burst_s),
              ratio(burst_admitted, burst_batches));

  // Open-loop segments at the nominal rate, traced.
  std::vector<double> latency, queue, service;
  double late_ms = 0.0, late_sum = 0, queue_sum = 0, service_sum = 0;
  double busy = 0, stolen_items = 0, stolen_ns = 0, pop = 0, wall_ns = 0;
  double batches = 0, admitted = 0;
  if (trace) obs::TraceRecorder::instance().enable();
  for (const auto& reqs : segments) {
    auto server = start_server();
    const auto c0 = server->counters();
    double seg_late = 0.0;
    const std::uint64_t t0 = now_ns();
    auto served = open_loop(*server, reqs, kNominalRate, rng, seg_late);
    wall_ns += static_cast<double>(now_ns() - t0);
    late_ms = std::max(late_ms, seg_late);
    const auto c1 = server->counters();
    batches += static_cast<double>(c1.batches - c0.batches);
    admitted += static_cast<double>(c1.admitted - c0.admitted);
    for (const auto& st : server->stage_stats()) {
      busy += static_cast<double>(st.busy_ns);
      stolen_items += static_cast<double>(st.stolen_items);
      stolen_ns += static_cast<double>(st.stolen_ns);
    }
    for (const auto& w : server->worker_stats()) pop += static_cast<double>(w.pop_wait_ns);
    std::vector<serve::TicketPtr> open_tickets;
    for (std::size_t i = 0; i < served.size(); ++i) {
      const serve::Response& r = served[i].ticket->wait();
      open_tickets.push_back(served[i].ticket);
      account(r, reqs[i].next_token);
      if (r.status != serve::Status::Ok) continue;
      const double lat = latency_ms(served[i]);
      const double late = ms(served[i].submit_ns - served[i].due_ns);
      latency.push_back(lat);
      queue.push_back(r.queue_ms);
      service.push_back(r.total_ms - r.queue_ms);
      late_sum += late;
      queue_sum += r.queue_ms;
      service_sum += r.total_ms - r.queue_ms;
    }
    check_parity(reqs, open_tickets, 16);
    stop_server(*server);
  }
  obs::TraceRecorder::instance().disable();
  report.count(attempted, failed);
  report.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                    std::to_string(parity_checked) +
                                    " sampled responses differ from a solo forward");

  if (!trace) {
    print_wall(median(burst_s), kBurst / median(burst_s), median(burst_latency_p50),
               burst_s.size());
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("cpu_s", median(burst_cpu_s), "s", burst_cpu_s.size());
    report.add("items_per_cpu_s", kBurst / median(burst_cpu_s), "1/s", burst_cpu_s.size());
    report.add("final_loss", checkpoint_loss, "loss", 1);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    std::printf("served next-token accuracy %.4f%% over %d responses\n",
                100.0 * ratio(hits, scored), scored);
  } else {
    const std::string trace_path = out_dir + "/trace_serve_transformer_mixed.json";
    obs::TraceRecorder::instance().write_chrome_trace(trace_path);
    v["quality.eval_metric"] = 100.0 * ratio(hits, scored);
    v["wall.run_s"] = median(burst_s);
    v["wall.items_per_s"] = kBurst / median(burst_s);
    v["wall.latency_p50_ms"] = median(burst_latency_p50);
    v["serve.queue_ms.p50"] = quantile(queue, 0.5);
    v["serve.queue_ms.p99"] = quantile(queue, 0.99);
    v["serve.service_ms.p50"] = quantile(service, 0.5);
    v["serve.latency_p50_ms"] = quantile(latency, 0.5);
    v["serve.latency_p99_ms"] = quantile(latency, 0.99);
    v["serve.mean_batch"] = ratio(admitted, batches);
    v["serve.stage_busy_share"] = ratio(busy, kServeWorkers * wall_ns);
    v["serve.worker_pop_wait_share"] = ratio(pop, kServeWorkers * wall_ns);
    v["serve.generator_late_ms.max"] = late_ms;
    v["sched.steals_per_step"] = ratio(stolen_items, batches);
    v["sched.stolen_busy_share"] = ratio(stolen_ns, busy);
    v["obs.trace_overhead"] = ratio(median(traced_burst_s), median(burst_s));
    v["obs.dropped_events"] = static_cast<double>(obs::TraceRecorder::instance().dropped());

    // Forward cost by module kind and analytic FLOPs per request, over
    // the prefix-length mix.
    double flops = 0.0;
    std::map<std::string, double> shares;
    for (int len : kPrefixMix) {
      util::Rng one(seed + static_cast<std::uint64_t>(len));
      auto r = make_requests(*task, 1, one);
      r[0].flow.aux = tensor::Tensor({1, len});  // length from the mix entry
      auto probe = std::make_shared<const nn::Flow>(r[0].flow);
      flops += analytic_flops(model, probe, true) / std::size(kPrefixMix);
      for (const auto& [kind, share] : kind_shares(model, probe, true)) {
        shares[kind] += share / std::size(kPrefixMix);
      }
    }
    for (const auto& [kind, share] : shares) v["nn." + kind + ".share"] = share;
    v["tensor.flops_per_step"] = flops;
    v["tensor.gflops_effective"] = ratio(flops * admitted, busy);
    {
      auto server = start_server();
      obs::Counter& gemm = obs::MetricsRegistry::instance().counter("kernels.gemm_dispatch");
      const std::uint64_t g0 = gemm.value();
      burst(*server, burst_requests, tickets);
      v["tensor.gemm_calls_per_step"] =
          ratio(static_cast<double>(gemm.value() - g0), static_cast<double>(kBurst));
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        account(tickets[i]->wait(), burst_requests[i].next_token);
      }
      stop_server(*server);
    }

    // Goodput: the highest rung of a fixed ladder of shares of the
    // saturation rate whose p99 meets the
    // limit with no failed request and no growing backlog.
    double goodput = 0.0;
    for (double share : {0.25, 0.5, 0.625, 0.75, 0.875, 1.0}) {
      const double rate = share * kSaturationRps;
      const auto reqs = make_requests(*task, static_cast<int>(rate * 0.4), rng);
      auto server = start_server();
      double late = 0.0;
      auto rung = open_loop(*server, reqs, rate, rng, late);
      stop_server(*server);
      std::vector<double> lat;
      bool failures = false;
      for (const auto& r : rung) {
        failures = failures || r.ticket->wait().status != serve::Status::Ok;
        lat.push_back(latency_ms(r));
      }
      const std::size_t q = lat.size() / 4;
      const std::vector<double> first(lat.begin(), lat.begin() + static_cast<long>(q));
      const std::vector<double> last(lat.end() - static_cast<long>(q), lat.end());
      const bool backlog = median(last) > 2.0 * median(first) + 1.0;
      const bool ok = !failures && !backlog && quantile(lat, 0.99) <= kLadderP99LimitMs;
      std::printf("ladder %.0f req/s: p99 %.3f ms%s%s\n", rate, quantile(lat, 0.99),
                  failures ? ", failures" : "", backlog ? ", growing backlog" : "");
      if (!ok) break;
      goodput = rate;
    }
    v["serve.goodput_rps"] = goodput;

    // Latency attribution: the mean latency splits into generator
    // lateness, queueing and service.
    const double n = static_cast<double>(latency.size());
    double mean_lat = 0.0;
    for (double l : latency) mean_lat += l / n;
    const std::vector<std::pair<std::string, double>> rows = {
        {"generator_late", late_sum / n},
        {"queue", queue_sum / n},
        {"service", service_sum / n},
    };
    double attributed = 0.0;
    std::printf("attribution of the mean request latency (%s):\n", trace_path.c_str());
    for (const auto& [row, t] : rows) {
      std::printf("  %-18s %12.4f ms  %6.2f%%\n", row.c_str(), t, 100.0 * t / mean_lat);
      attributed += t;
    }
    std::printf("  %-18s %12.4f ms  %6.2f%%\n", "unattributed", mean_lat - attributed,
                100.0 * (mean_lat - attributed) / mean_lat);
    std::printf("  %-18s %12.4f ms\n", "latency", mean_lat);
    v["attr.unattributed_share"] = ratio(mean_lat - attributed, mean_lat);
    report_layers(report, v, latency.size());
  }
  report.check(refused == 0, std::to_string(refused) +
                                 " requests rejected, expired or failed by the server");
  std::remove(ckpt_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const double steal0 = steal_s();
  const auto start = std::chrono::steady_clock::now();
  try {
    util::Cli cli(argc, argv);
    const std::string workload = cli.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(std::stoull(cli.get("seed", "1")));
    const double seconds = cli.get_double("seconds", 10.0);
    const bool trace = cli.get_int("trace", 0) != 0;
    const std::string out_dir = cli.get("out-dir", ".");

    const std::vector<TrainSpec> training = {
        {"train_resnet_steal", true, "threaded_steal", "sequential", 0, 4, 0, 3},
        {"train_transformer_threaded", false, "threaded", "sequential", 0, kTrainThreads,
         kTransformerMicrobatch, 4},
        // threaded_hogwild is bitwise-equal across worker counts, while the
        // sequential hogwild engine reassociates gradient sums: the oracle
        // is the same engine with one worker.
        {"train_transformer_hogwild", false, "threaded_hogwild", "threaded_hogwild", 1, 4,
         kTransformerMicrobatch, 4},
    };
    Report report;
    if (workload == "serve_transformer_mixed") {
      report = run_serving(seed, seconds, trace, out_dir);
    } else {
      auto spec = std::find_if(training.begin(), training.end(),
                               [&](const TrainSpec& t) { return t.name == workload; });
      if (spec == training.end()) {
        std::cerr << "unknown workload '" << workload << "'\n";
        return 2;
      }
      report = run_training(*spec, seed, seconds, trace, out_dir);
    }
    // Hypervisor steal slows every timed phase; report it with each run.
    std::printf("host steal during the run: %.2f CPU-s over %.2f s\n", steal_s() - steal0,
                std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    report.print_table();
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pipemare_bench: " << e.what() << '\n';
    return 1;
  }
}
