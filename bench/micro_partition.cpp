// Partition-strategy micro bench: predicted vs measured per-stage load on
// a deliberately cost-skewed model, uniform vs balanced splits.
//
// The model front-loads two wide Linear layers ahead of a tail of narrow
// ones, so the paper's uniform-by-count split (Section 4.1) piles the
// heavy units onto one stage while the cost-balanced split spreads them.
// For each strategy the bench reports the partitioner's predicted stage
// costs (cost_model.h) next to the "threaded" backend's measured busy /
// wait nanoseconds (stage_stats()), plus end-to-end steps/sec — uniform's
// throughput is bounded by its overloaded stage, so balanced should win
// on both the balance ratio and the wall clock.
//
// The busy-spread reduction shows on any machine; the steps/sec gain
// needs >= `stages` real cores (stage workers timeshare otherwise, so the
// wall clock is bounded by *total* compute, not the max stage — on a
// single-core host balanced and uniform converge to the same throughput).
//
// Usage: bench_micro_partition [--quick=1] [--steps=40] [--stages=4]
//          [--microbatches=4] [--measured=1]  (measured: time each module
//          instead of the analytic FLOP model) [--seed=3]
//          [--json=1]  (also write the BENCH_partition.json snapshot)

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/core/backend.h"
#include "src/core/stage_load.h"
#include "src/pipeline/partition.h"
#include "src/util/cli.h"
#include "src/util/table.h"

namespace {

using namespace pipemare;

constexpr int kWide = 256;
constexpr int kNarrow = 16;
constexpr int kNarrowLayers = 8;
constexpr int kClasses = 10;

/// The shared skewed model (bench_util.h); micro_steal runs the same one.
nn::Model make_skewed_mlp() {
  return benchutil::make_skewed_mlp(kWide, kNarrow, kNarrowLayers, kClasses);
}

struct RunResult {
  pipeline::Partition partition;
  std::vector<pipeline::StageStats> stats;
  double steps_per_sec = 0.0;
};

RunResult run_strategy(pipeline::PartitionStrategy strategy, bool measured,
                       const benchutil::MlpWorkload& workload, int stages,
                       int microbatches, int steps, std::uint64_t seed,
                       bool calibrated = false) {
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = stages;
  ec.num_microbatches = microbatches;
  ec.partition.strategy = strategy;
  ec.partition.measured = measured;
  ec.partition.calibrated = calibrated;
  ec.partition.probe = std::make_shared<const nn::Flow>(workload.inputs.at(0));

  auto backend = core::BackendRegistry::instance().create(
      make_skewed_mlp(), core::BackendConfig("threaded"), ec, seed);
  // Warmup fills the version ring and faults in buffers off the clock.
  for (int s = 0; s < 2; ++s) benchutil::backend_step(*backend, workload);
  backend->reset_stage_stats();

  auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) benchutil::backend_step(*backend, workload);
  auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.partition = *backend->partition();
  r.stats = backend->stage_stats();
  double secs = std::chrono::duration<double>(t1 - t0).count();
  r.steps_per_sec = secs > 0.0 ? steps / secs : 0.0;
  return r;
}

void print_run(const std::string& label, const RunResult& r) {
  std::cout << label << " (balance ratio "
            << util::fmt(r.partition.balance_ratio(), 2) << ", "
            << util::fmt(r.steps_per_sec, 1) << " steps/s)\n";
  util::Table t({"stage", "units", "params", "predicted share", "busy ms",
                 "busy share", "pop wait ms", "push wait ms"});
  double cost_total = 0.0;
  for (double c : r.partition.stage_cost) cost_total += c;
  std::uint64_t busy_total = 0;
  for (const auto& s : r.stats) busy_total += s.busy_ns;
  std::vector<int> units_per_stage(static_cast<std::size_t>(r.partition.num_stages), 0);
  for (int st : r.partition.unit_stage) ++units_per_stage[static_cast<std::size_t>(st)];
  for (int s = 0; s < r.partition.num_stages; ++s) {
    auto idx = static_cast<std::size_t>(s);
    t.add_row({std::to_string(s), std::to_string(units_per_stage[idx]),
               std::to_string(r.partition.stage_param_count[idx]),
               util::fmt(100.0 * r.partition.stage_cost[idx] / cost_total, 1) + "%",
               util::fmt(static_cast<double>(r.stats[idx].busy_ns) / 1e6, 1),
               util::fmt(busy_total > 0
                             ? 100.0 * static_cast<double>(r.stats[idx].busy_ns) /
                                   static_cast<double>(busy_total)
                             : 0.0,
                         1) +
                   "%",
               util::fmt(static_cast<double>(r.stats[idx].pop_wait_ns) / 1e6, 1),
               util::fmt(static_cast<double>(r.stats[idx].push_wait_ns) / 1e6, 1)});
  }
  std::cout << t.to_string() << '\n';
}

/// One strategy's block of the BENCH_partition.json snapshot.
benchutil::Json run_to_json(const std::string& label, const RunResult& r) {
  benchutil::Json j = benchutil::Json::object();
  j.set("label", label);
  j.set("balance_ratio", r.partition.balance_ratio());
  j.set("busy_spread", pipemare::core::StageLoadObserver::busy_spread(r.stats));
  j.set("steps_per_sec", r.steps_per_sec);
  benchutil::Json stages = benchutil::Json::array();
  for (int s = 0; s < r.partition.num_stages; ++s) {
    auto idx = static_cast<std::size_t>(s);
    benchutil::Json st = benchutil::Json::object();
    st.set("stage", s);
    st.set("params", static_cast<std::int64_t>(r.partition.stage_param_count[idx]));
    st.set("predicted_cost", r.partition.stage_cost[idx]);
    st.set("busy_ns", r.stats[idx].busy_ns);
    st.set("pop_wait_ns", r.stats[idx].pop_wait_ns);
    st.set("push_wait_ns", r.stats[idx].push_wait_ns);
    stages.push(std::move(st));
  }
  j.set("stages", std::move(stages));
  return j;
}

/// Total-variation distance between the partition's predicted stage-cost
/// shares and the measured busy-ns shares: 0 = the cost model's split
/// weights match wall-clock exactly, 1 = completely misallocated. The
/// kernel-calibration pass (PartitionSpec::calibrated) exists to shrink
/// this number: raw FLOP counts over-weight GEMM-heavy modules once the
/// tiled kernels run them ~2-3x faster than the memory-bound ops.
double predicted_vs_measured_error(const RunResult& r) {
  double cost_total = 0.0;
  for (double c : r.partition.stage_cost) cost_total += c;
  std::uint64_t busy_total = 0;
  for (const auto& s : r.stats) busy_total += s.busy_ns;
  if (cost_total <= 0.0 || busy_total == 0) return 0.0;
  double err = 0.0;
  for (int s = 0; s < r.partition.num_stages; ++s) {
    auto idx = static_cast<std::size_t>(s);
    err += std::abs(r.partition.stage_cost[idx] / cost_total -
                    static_cast<double>(r.stats[idx].busy_ns) /
                        static_cast<double>(busy_total));
  }
  return err / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const int steps = cli.get_int("steps", quick ? 6 : 40);
  const int stages = cli.get_int("stages", 4);
  const int microbatches = cli.get_int("microbatches", 4);
  const bool measured = cli.get_bool("measured", false);
  const bool json = cli.get_bool("json", false);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));

  benchutil::MlpWorkload workload(microbatches, /*micro_size=*/32, kWide, kClasses,
                                  seed);

  std::cout << "micro_partition: skewed " << kWide << "->" << kNarrow
            << " MLP, P=" << stages << ", N=" << microbatches << ", " << steps
            << " steps, cost source "
            << (measured ? "measured (timed reps)" : "analytic (FLOP model)") << "\n\n";

  auto uniform = run_strategy(pipeline::PartitionStrategy::Uniform, false, workload,
                              stages, microbatches, steps, seed);
  auto balanced = run_strategy(pipeline::PartitionStrategy::Balanced, measured,
                               workload, stages, microbatches, steps, seed);
  // Same analytic cost model, rescaled to predicted nanoseconds by the
  // KernelCalibration micro-profile of the active kernel backend.
  auto calibrated = run_strategy(pipeline::PartitionStrategy::Balanced, false,
                                 workload, stages, microbatches, steps, seed,
                                 /*calibrated=*/true);

  print_run("uniform (unit-count split)", uniform);
  print_run("balanced (cost-model split)", balanced);
  print_run("balanced,calibrated (kernel-calibrated cost model)", calibrated);

  // Evaluate both splits under the same (balanced-run) cost model: the
  // uniform partition's own stage_cost counts units, which is exactly the
  // assumption the cost model corrects.
  auto ratio_under = [](const pipeline::Partition& p,
                        const std::vector<double>& costs) {
    std::vector<double> stage(static_cast<std::size_t>(p.num_stages), 0.0);
    for (std::size_t u = 0; u < costs.size(); ++u) {
      stage[static_cast<std::size_t>(p.unit_stage[u])] += costs[u];
    }
    return pipeline::balance_ratio(stage);
  };
  const std::vector<double>& costs = balanced.partition.unit_cost;

  const double spread_u = core::StageLoadObserver::busy_spread(uniform.stats);
  const double spread_b = core::StageLoadObserver::busy_spread(balanced.stats);
  std::cout << "balanced vs uniform: predicted max/mean "
            << util::fmt(ratio_under(uniform.partition, costs), 2) << " -> "
            << util::fmt(ratio_under(balanced.partition, costs), 2)
            << ", measured busy spread " << util::fmt(spread_u, 2) << " -> "
            << util::fmt(spread_b, 2) << ", throughput "
            << util::fmt(uniform.steps_per_sec, 1) << " -> "
            << util::fmt(balanced.steps_per_sec, 1) << " steps/s ("
            << util::fmt_x(balanced.steps_per_sec /
                           std::max(1e-9, uniform.steps_per_sec))
            << ")\n";

  const double err_analytic = predicted_vs_measured_error(balanced);
  const double err_calibrated = predicted_vs_measured_error(calibrated);
  std::cout << "predicted-vs-measured stage-share error (TV distance): "
            << "analytic " << util::fmt(err_analytic, 3) << " -> calibrated "
            << util::fmt(err_calibrated, 3) << "\n";

  if (json) {
    benchutil::Json root = benchutil::Json::object();
    root.set("bench", "micro_partition");
    root.set("machine", benchutil::machine_info());
    benchutil::Json params = benchutil::Json::object();
    params.set("stages", stages);
    params.set("microbatches", microbatches);
    params.set("steps", steps);
    params.set("measured", measured);
    params.set("seed", static_cast<std::int64_t>(seed));
    root.set("params", std::move(params));
    benchutil::Json runs = benchutil::Json::array();
    runs.push(run_to_json("uniform", uniform));
    runs.push(run_to_json("balanced", balanced));
    runs.push(run_to_json("balanced,calibrated", calibrated));
    root.set("runs", std::move(runs));
    benchutil::Json summary = benchutil::Json::object();
    summary.set("predicted_ratio_uniform", ratio_under(uniform.partition, costs));
    summary.set("predicted_ratio_balanced", ratio_under(balanced.partition, costs));
    summary.set("busy_spread_uniform", spread_u);
    summary.set("busy_spread_balanced", spread_b);
    summary.set("predicted_error_analytic", err_analytic);
    summary.set("predicted_error_calibrated", err_calibrated);
    summary.set("throughput_gain",
                balanced.steps_per_sec / std::max(1e-9, uniform.steps_per_sec));
    root.set("summary", std::move(summary));
    benchutil::write_bench_json("BENCH_partition.json", root);
  }
  return 0;
}
