// The observability suite (tier1): obs::MetricsRegistry semantics
// (counter/gauge/histogram, bounds fixing, snapshots), obs::TraceRecorder
// (disabled no-op, span/instant recording, drop-counted overflow, reset),
// Chrome trace-event schema checks on real traced runs (a threaded_steal
// training run and a PipelineServer session), the PipeMare staleness
// histograms' bound contracts (observed tau <= max_delay for the Hogwild
// backends, <= Schedule::max_staleness for the versioned engines), the
// acceptance-criteria invariant that curves are bitwise-equal with tracing
// on vs off, and the StageStats delta/reset contract StageLoadObserver
// relies on — uniformly across all five registered backends, and on a
// scripted backend for a reset the observer was not told about.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/stage_load.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/hogwild/hogwild.h"
#include "src/hogwild/threaded_hogwild.h"
#include "src/nn/activations.h"
#include "src/nn/heads.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/weight_versions.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/util/rng.h"

namespace pipemare {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "pipemare_obs_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Structural JSON sanity without a parser dependency: every brace/bracket
/// closes (quotes respected). The CI smoke goes further and runs the file
/// through python's json.load; this catches exporter regressions in-test.
bool balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// The tier-1 MLP fixture (same recipe as the sched/threaded suites).
struct MlpFixture {
  nn::Model model;
  nn::ClassificationXent head;
  std::vector<nn::Flow> inputs;
  std::vector<tensor::Tensor> targets;

  MlpFixture(int layers, int width, int classes, int num_micro,
             std::uint64_t seed = 17) {
    for (int i = 0; i < layers; ++i) {
      model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
      model.add(std::make_unique<nn::ReLU>());
    }
    model.add(std::make_unique<nn::Linear>(width, classes));
    util::Rng rng(seed);
    for (int m = 0; m < num_micro; ++m) {
      nn::Flow f;
      f.x = tensor::Tensor({2, width});
      for (std::int64_t i = 0; i < f.x.size(); ++i) {
        f.x[i] = static_cast<float>(rng.normal());
      }
      tensor::Tensor t({2});
      for (int j = 0; j < 2; ++j) t[j] = static_cast<float>(rng.randint(classes));
      inputs.push_back(std::move(f));
      targets.push_back(std::move(t));
    }
  }
};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("obs.test.counter");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name -> same instrument (the caching contract).
  EXPECT_EQ(&reg.counter("obs.test.counter"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge& g = reg.gauge("obs.test.gauge");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  EXPECT_EQ(&reg.gauge("obs.test.gauge"), &g);
}

TEST(Metrics, HistogramBucketsQuantilesAndReset) {
  obs::Histogram h(obs::Histogram::linear_bounds(0.0, 1.0, 4));
  ASSERT_EQ(h.bounds(), (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  ASSERT_EQ(h.num_buckets(), 5u);  // 4 finite + overflow

  EXPECT_TRUE(std::isnan(h.quantile(0.5)));  // empty
  h.observe(0.0);
  h.observe(0.5);
  h.observe(2.0);
  h.observe(10.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // <= 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // <= 1
  EXPECT_EQ(h.bucket_count(2), 1u);  // <= 2
  EXPECT_EQ(h.bucket_count(3), 0u);  // <= 3
  EXPECT_EQ(h.bucket_count(4), 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5 / 4.0);
  // max_observed is exact even though 10.0 landed in the overflow bucket —
  // this is why the staleness-bound assertions below are meaningful.
  EXPECT_DOUBLE_EQ(h.max_observed(), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  // Overflow quantile reports the last finite bound (bucket resolution).
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  for (std::size_t i = 0; i < h.num_buckets(); ++i) EXPECT_EQ(h.bucket_count(i), 0u);

  auto exp = obs::Histogram::exponential_bounds(1.0, 2.0, 3);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(Metrics, FirstRegistrationFixesHistogramBounds) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h =
      reg.histogram("obs.test.hist", obs::Histogram::linear_bounds(0.0, 1.0, 2));
  obs::Histogram& again =
      reg.histogram("obs.test.hist", obs::Histogram::linear_bounds(0.0, 5.0, 8));
  EXPECT_EQ(&again, &h);
  EXPECT_EQ(again.bounds(), (std::vector<double>{0.0, 1.0}));
  EXPECT_EQ(reg.find_histogram("obs.test.hist"), &h);
  EXPECT_EQ(reg.find_histogram("obs.test.no-such-histogram"), nullptr);
}

TEST(Metrics, SnapshotListsEveryInstrumentAndWritesValidJson) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.counter("obs.snap.counter").add(3);
  reg.gauge("obs.snap.gauge").set(-1.5);
  obs::Histogram& h =
      reg.histogram("obs.snap.hist", obs::Histogram::linear_bounds(0.0, 1.0, 4));
  h.observe(0.5);
  h.observe(2.5);

  const std::string json = reg.snapshot_json().dump();
  EXPECT_TRUE(balanced_json(json)) << json;
  for (const char* needle :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"obs.snap.counter\"",
        "\"obs.snap.gauge\"", "\"obs.snap.hist\"", "\"count\"", "\"mean\"",
        "\"p50\"", "\"p99\"", "\"buckets\"", "\"le\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }

  const std::string text = reg.snapshot_text();
  EXPECT_NE(text.find("obs.snap.counter"), std::string::npos);
  EXPECT_NE(text.find("obs.snap.hist"), std::string::npos);

  const std::string path = temp_path("metrics_snapshot.json");
  reg.write_json(path);
  EXPECT_EQ(read_file(path), json);
  EXPECT_THROW(reg.write_json("/no/such/dir/metrics.json"), std::runtime_error);

  // reset() zeroes state but keeps registrations (cached pointers stay valid).
  reg.reset();
  EXPECT_EQ(reg.counter("obs.snap.counter").value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.find_histogram("obs.snap.hist"), &h);
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(Trace, DisabledPathRecordsNothing) {
  auto& rec = obs::TraceRecorder::instance();
  rec.reset();
  EXPECT_FALSE(rec.enabled());
  {
    obs::Span span("noop", "test", 0, 0, 0);
  }
  obs::instant("noop", "test");
  rec.record_complete("noop", "test", 0, 1, -1, -1, -1);
  rec.record_instant("noop", "test", -1, -1, -1);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, SpansInstantsAndThreadNamesExportChromeSchema) {
  auto& rec = obs::TraceRecorder::instance();
  rec.enable();
  rec.set_thread_name("obs-test-main");
  {
    obs::Span span("work", "test", /*stage=*/1, /*micro=*/2, /*step=*/3);
  }
  obs::instant("mark", "test", /*stage=*/0, /*micro=*/-1, /*step=*/7);
  rec.disable();
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);

  const std::string path = temp_path("unit_trace.json");
  obs::write_chrome_trace(path);
  const std::string trace = read_file(path);
  EXPECT_TRUE(balanced_json(trace)) << trace;
  for (const char* needle :
       {"\"traceEvents\"", "\"displayTimeUnit\": \"ms\"",
        // The complete span, with its duration and args.
        "\"name\": \"work\"", "\"ph\": \"X\"", "\"dur\":",
        // The instant, thread-scoped as Perfetto requires.
        "\"name\": \"mark\"", "\"ph\": \"i\"", "\"s\": \"t\"",
        // The thread_name metadata row.
        "\"ph\": \"M\"", "\"thread_name\"", "\"obs-test-main\"",
        // Common fields + args payload.
        "\"pid\": 1", "\"tid\": 0", "\"stage\": 1", "\"micro\": 2",
        "\"step\": 3"}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << "missing " << needle;
  }
  // The instant's unset micro (-1) must be omitted from args, not emitted.
  EXPECT_EQ(trace.find("\"micro\": -1"), std::string::npos);

  rec.reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_FALSE(rec.enabled());
}

TEST(Trace, OverflowCountsDropsInsteadOfWrapping) {
  auto& rec = obs::TraceRecorder::instance();
  rec.enable(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) obs::instant("e", "test", -1, -1, i);
  rec.disable();
  EXPECT_EQ(rec.recorded(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);

  // The export is an honest prefix: exactly the 4 recorded events (steps
  // 0..3), none of the dropped ones.
  const std::string path = temp_path("overflow_trace.json");
  obs::write_chrome_trace(path);
  const std::string trace = read_file(path);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(trace.find("\"step\": " + std::to_string(i)), std::string::npos);
  }
  EXPECT_EQ(trace.find("\"step\": 4"), std::string::npos);
  rec.reset();
}

TEST(Trace, EnableRestartsTheSession) {
  auto& rec = obs::TraceRecorder::instance();
  rec.enable();
  obs::instant("first", "test");
  rec.enable();  // restart drops the previous session's buffers
  obs::instant("second", "test");
  rec.disable();
  EXPECT_EQ(rec.recorded(), 1u);
  const std::string path = temp_path("restart_trace.json");
  obs::write_chrome_trace(path);
  const std::string trace = read_file(path);
  EXPECT_EQ(trace.find("\"first\""), std::string::npos);
  EXPECT_NE(trace.find("\"second\""), std::string::npos);
  rec.reset();
}

// ---------------------------------------------------------------------------
// Weight-staleness histograms (the measured-tau probes)
// ---------------------------------------------------------------------------

TEST(Staleness, VersionedEnginesStayWithinScheduleBound) {
  obs::MetricsRegistry::instance().reset();
  constexpr int kStages = 3;
  constexpr int kMicro = 2;
  MlpFixture fx(/*layers=*/3, /*width=*/10, /*classes=*/4, kMicro);
  pipeline::EngineConfig ec;
  ec.method = pipeline::Method::PipeMare;
  ec.num_stages = kStages;
  ec.num_microbatches = kMicro;
  pipeline::PipelineEngine eng(fx.model, ec, 1);
  for (int step = 0; step < 4; ++step) {
    (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
    eng.commit_update();
  }
  const double bound = pipeline::Schedule(kStages, kMicro).max_staleness();
  for (int s = 0; s < kStages; ++s) {
    const obs::Histogram* h = obs::MetricsRegistry::instance().find_histogram(
        "train.staleness.stage" + std::to_string(s));
    ASSERT_NE(h, nullptr) << "stage " << s;
    EXPECT_GT(h->count(), 0u) << "stage " << s;
    EXPECT_LE(h->max_observed(), bound) << "stage " << s;
    EXPECT_GE(h->max_observed(), 0.0) << "stage " << s;
  }
  // Later stages have smaller forward delay under PipeMare (tau_fwd shrinks
  // toward the last stage), so the measured maxima must be non-increasing.
  const auto* first =
      obs::MetricsRegistry::instance().find_histogram("train.staleness.stage0");
  const auto* last = obs::MetricsRegistry::instance().find_histogram(
      "train.staleness.stage" + std::to_string(kStages - 1));
  EXPECT_GE(first->max_observed(), last->max_observed());
}

TEST(Staleness, HogwildBackendsStayWithinMaxDelay) {
  obs::MetricsRegistry::instance().reset();
  constexpr int kStages = 3;
  constexpr double kMaxDelay = 3.0;
  hogwild::HogwildConfig hw;
  hw.engine.num_stages = kStages;
  hw.engine.num_microbatches = 2;
  hw.max_delay = kMaxDelay;

  {
    MlpFixture fx(/*layers=*/3, /*width=*/10, /*classes=*/4, 2);
    hogwild::HogwildEngine eng(fx.model, hw, 1);
    for (int step = 0; step < 6; ++step) {
      (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
      eng.commit_update();
    }
  }
  {
    MlpFixture fx(/*layers=*/3, /*width=*/10, /*classes=*/4, 2);
    hw.num_workers = 2;
    hogwild::ThreadedHogwildEngine eng(fx.model, hw, 1);
    for (int step = 0; step < 6; ++step) {
      (void)eng.forward_backward(fx.inputs, fx.targets, fx.head);
      eng.commit_update();
    }
  }

  // Both engines feed the same per-stage histogram family; the sampled
  // delay is truncated at max_delay and clamped at startup, so every
  // observation obeys the configured bound.
  for (int s = 0; s < kStages; ++s) {
    const obs::Histogram* h = obs::MetricsRegistry::instance().find_histogram(
        "train.staleness.stage" + std::to_string(s));
    ASSERT_NE(h, nullptr) << "stage " << s;
    EXPECT_GT(h->count(), 0u) << "stage " << s;
    EXPECT_LE(h->max_observed(), kMaxDelay) << "stage " << s;
    EXPECT_GE(h->max_observed(), 0.0) << "stage " << s;
  }
}

// ---------------------------------------------------------------------------
// Traced end-to-end runs (the acceptance criteria)
// ---------------------------------------------------------------------------

core::TrainerConfig tiny_steal_config() {
  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.engine.num_stages = 4;
  cfg.epochs = 2;
  cfg.minibatch_size = 32;
  cfg.microbatch_size = 8;
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.lr = 0.05;
  cfg.seed = 5;
  cfg.backend = {"threaded_steal", core::StealOptions{.workers = 3}};
  return cfg;
}

TEST(TracedTraining, CurvesBitwiseEqualAndFilesValid) {
  data::ImageDatasetConfig d;
  d.classes = 4;
  d.train_size = 64;
  d.test_size = 32;
  d.image_size = 8;
  d.noise_std = 0.4;
  d.seed = 11;
  nn::ResNetConfig m;
  m.base_channels = 6;
  m.blocks_per_group = {1, 1};
  core::ImageTask task(d, m, "tiny-image");

  // Reference: same config, no instrumentation outputs.
  auto plain = core::train(task, tiny_steal_config());

  obs::MetricsRegistry::instance().reset();
  auto cfg = tiny_steal_config();
  cfg.trace_path = temp_path("train_trace.json");
  cfg.metrics_path = temp_path("train_metrics.json");
  auto traced = core::train(task, cfg);

  // The headline invariant: observability must not touch numerics.
  ASSERT_EQ(plain.curve.size(), traced.curve.size());
  for (std::size_t e = 0; e < plain.curve.size(); ++e) {
    EXPECT_EQ(plain.curve[e].train_loss, traced.curve[e].train_loss) << "epoch " << e;
    EXPECT_EQ(plain.curve[e].metric, traced.curve[e].metric) << "epoch " << e;
    EXPECT_EQ(plain.curve[e].param_norm, traced.curve[e].param_norm) << "epoch " << e;
  }

  // train() owns the session: the recorder is off again after returning.
  EXPECT_FALSE(obs::TraceRecorder::instance().enabled());
  EXPECT_GT(obs::TraceRecorder::instance().recorded(), 0u);

  const std::string trace = read_file(cfg.trace_path);
  EXPECT_TRUE(balanced_json(trace));
  for (const char* needle :
       {"\"traceEvents\"", "\"ph\": \"X\"", "\"cat\": \"sched\"",
        "\"name\": \"fwd\"", "\"name\": \"bwd\"", "\"thread_name\"",
        "\"pool-worker-0\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << "missing " << needle;
  }

  const std::string metrics = read_file(cfg.metrics_path);
  EXPECT_TRUE(balanced_json(metrics));
  for (const char* needle :
       {"\"train.staleness.stage0\"", "\"train.staleness.stage3\"",
        "\"sched.tasks_pushed\"", "\"sched.tasks_popped\"", "\"train.epoch\"",
        "\"train.loss\"", "\"train.param_norm\"", "\"kernels.gemm_dispatch\"",
        "\"sched.total_steals\""}) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << "missing " << needle;
  }

  // The MetricsObserver's final epoch gauge matches the returned curve.
  EXPECT_EQ(obs::MetricsRegistry::instance().gauge("train.loss").value(),
            traced.curve.back().train_loss);
  obs::TraceRecorder::instance().reset();
}

TEST(TracedServe, SessionWritesTraceAndLatencyHistograms) {
  obs::MetricsRegistry::instance().reset();
  constexpr int kWidth = 8;
  constexpr int kRequests = 8;
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(kWidth, kWidth, /*relu_init=*/true));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Linear>(kWidth, 4));
  std::vector<float> w(static_cast<std::size_t>(model.param_count()));
  util::Rng rng(3);
  model.init_params(w, rng);
  serve::ModelCheckpoint ckpt;
  ckpt.digest = serve::shape_digest(model);
  ckpt.weights = w;

  serve::ServeConfig cfg;
  cfg.num_stages = 2;
  cfg.workers = 2;
  cfg.batch.policy = serve::BatchPolicy::Continuous;
  cfg.batch.max_batch = 2;
  cfg.trace_path = temp_path("serve_trace.json");
  cfg.metrics_path = temp_path("serve_metrics.json");

  serve::PipelineServer server(model, ckpt, cfg);
  server.start();
  std::vector<serve::TicketPtr> tickets;
  for (int i = 0; i < kRequests; ++i) {
    nn::Flow f;
    f.x = tensor::Tensor({1, kWidth});
    for (std::int64_t j = 0; j < f.x.size(); ++j) {
      f.x[j] = static_cast<float>(rng.normal());
    }
    tickets.push_back(server.submit(std::move(f)));
  }
  for (auto& t : tickets) ASSERT_EQ(t->wait().status, serve::Status::Ok);
  server.stop();
  EXPECT_FALSE(obs::TraceRecorder::instance().enabled());

  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("serve.submitted").value(), kRequests);
  EXPECT_EQ(reg.counter("serve.admitted").value(), kRequests);
  EXPECT_EQ(reg.counter("serve.completed").value(), kRequests);
  EXPECT_EQ(reg.counter("serve.rejected").value(), 0u);
  EXPECT_EQ(reg.counter("serve.errors").value(), 0u);
  EXPECT_GE(reg.counter("serve.batches").value(),
            static_cast<std::uint64_t>(kRequests / cfg.batch.max_batch));
  // The latency histograms observe exactly the Response values clients see.
  const obs::Histogram* queue_ms = reg.find_histogram("serve.queue_ms");
  const obs::Histogram* total_ms = reg.find_histogram("serve.total_ms");
  ASSERT_NE(queue_ms, nullptr);
  ASSERT_NE(total_ms, nullptr);
  EXPECT_EQ(queue_ms->count(), kRequests);
  EXPECT_EQ(total_ms->count(), kRequests);
  EXPECT_GE(total_ms->max_observed(), 0.0);

  const std::string trace = read_file(cfg.trace_path);
  EXPECT_TRUE(balanced_json(trace));
  for (const char* needle :
       {"\"traceEvents\"", "\"cat\": \"serve\"", "\"name\": \"enqueue\"",
        "\"name\": \"admit\"", "\"name\": \"complete\"", "\"name\": \"stage\"",
        "\"ph\": \"i\"", "\"s\": \"t\"", "\"ph\": \"X\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << "missing " << needle;
  }
  const std::string metrics = read_file(cfg.metrics_path);
  EXPECT_TRUE(balanced_json(metrics));
  EXPECT_NE(metrics.find("\"serve.queue_ms\""), std::string::npos);
  EXPECT_NE(metrics.find("\"serve.total_ms\""), std::string::npos);
  obs::TraceRecorder::instance().reset();
}

// ---------------------------------------------------------------------------
// StageStats delta/reset contract across all five backends (the surface
// StageLoadObserver and the metrics exporter both build on)
// ---------------------------------------------------------------------------

core::BackendConfig backend_config_for(const std::string& name) {
  if (name == "threaded_steal") {
    core::StealOptions opts;
    opts.workers = 2;
    opts.mode = sched::StealMode::Forced;
    return {name, opts};
  }
  if (name == "threaded_hogwild") {
    core::ThreadedHogwildOptions opts;
    opts.workers = 2;
    return {name, opts};
  }
  return {name};
}

TEST(StageStatsContract, DeltaAndResetSemanticsAcrossAllBackends) {
  constexpr int kStages = 2;
  constexpr int kMicro = 2;
  const std::vector<std::string> instrumented = {"threaded", "threaded_steal",
                                                 "threaded_hogwild"};
  const std::vector<std::string> uninstrumented = {"sequential", "hogwild"};

  for (const auto& name : uninstrumented) {
    MlpFixture fx(/*layers=*/4, /*width=*/10, /*classes=*/4, kMicro);
    pipeline::EngineConfig ec;
    ec.method = pipeline::Method::PipeMare;
    ec.num_stages = kStages;
    ec.num_microbatches = kMicro;
    auto backend = core::BackendRegistry::instance().create(
        std::move(fx.model), backend_config_for(name), ec, 1);
    core::StageLoadObserver load(*backend);
    // No per-slot instrumentation: the observer deactivates, uniformly.
    EXPECT_FALSE(load.active()) << name;
    core::EpochRecord rec;
    load.on_epoch(rec);
    EXPECT_TRUE(load.epoch_stats().empty()) << name;
  }

  for (const auto& name : instrumented) {
    MlpFixture fx(/*layers=*/4, /*width=*/10, /*classes=*/4, kMicro);
    pipeline::EngineConfig ec;
    ec.method = pipeline::Method::PipeMare;
    ec.num_stages = kStages;
    ec.num_microbatches = kMicro;
    auto backend = core::BackendRegistry::instance().create(
        std::move(fx.model), backend_config_for(name), ec, 1);
    core::StageLoadObserver load(*backend);
    ASSERT_TRUE(load.active()) << name;

    // Two "epochs" of two steps each: the observer's deltas must tile the
    // cumulative counters exactly (no double counting, nothing lost).
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (int step = 0; step < 2; ++step) {
        (void)backend->forward_backward(fx.inputs, fx.targets, fx.head);
        backend->commit_update();
      }
      core::EpochRecord rec;
      load.on_epoch(rec);
    }
    ASSERT_EQ(load.epoch_stats().size(), 2u) << name;
    const auto& totals = load.totals();
    ASSERT_EQ(totals.size(), load.epoch_stats()[0].size()) << name;
    std::uint64_t total_items = 0;
    for (std::size_t s = 0; s < totals.size(); ++s) {
      std::uint64_t items = 0;
      std::uint64_t busy = 0;
      for (const auto& epoch : load.epoch_stats()) {
        items += epoch[s].items;
        busy += epoch[s].busy_ns;
      }
      EXPECT_EQ(items, totals[s].items) << name << " slot " << s;
      EXPECT_EQ(busy, totals[s].busy_ns) << name << " slot " << s;
      total_items += totals[s].items;
      // A stage slot runs every microbatch of its stage; a threaded_hogwild
      // worker slot claims microbatches from one shared counter, so one
      // worker may legitimately claim none.
      if (name != "threaded_hogwild") {
        EXPECT_GT(totals[s].items, 0u) << name << " slot " << s;
      }
    }
    if (name == "threaded_hogwild") {
      // Every microbatch of the 4 steps is claimed by exactly one worker.
      EXPECT_EQ(total_items, static_cast<std::uint64_t>(4 * kMicro)) << name;
    }

    // reset_stage_stats zeroes every slot...
    backend->reset_stage_stats();
    for (const auto& s : backend->stage_stats()) {
      EXPECT_EQ(s.items, 0u) << name;
      EXPECT_EQ(s.busy_ns, 0u) << name;
      EXPECT_EQ(s.pop_wait_ns, 0u) << name;
      EXPECT_EQ(s.stolen_items, 0u) << name;
    }

    // ...and the observer's since() fallback treats the post-reset
    // cumulative value as the next epoch's delta (counters regressed below
    // the stale baseline), so per-epoch reporting survives a mid-run reset.
    (void)backend->forward_backward(fx.inputs, fx.targets, fx.head);
    backend->commit_update();
    auto cumulative = backend->stage_stats();
    core::EpochRecord rec;
    load.on_epoch(rec);
    const auto& delta = load.epoch_stats().back();
    ASSERT_EQ(delta.size(), cumulative.size()) << name;
    for (std::size_t s = 0; s < delta.size(); ++s) {
      EXPECT_EQ(delta[s].items, cumulative[s].items) << name << " slot " << s;
    }
  }
}

/// An ExecutionBackend whose stage_stats() replays a script, one sample per
/// call; nothing else of it is exercised.
class ScriptedStatsBackend final : public core::ExecutionBackend {
 public:
  explicit ScriptedStatsBackend(std::vector<std::vector<pipeline::StageStats>> script)
      : script_(std::move(script)) {}

  std::vector<pipeline::StageStats> stage_stats() const override {
    return script_.at(std::min(next_++, script_.size() - 1));
  }

  pipeline::StepResult forward_backward(const std::vector<nn::Flow>&,
                                        const std::vector<tensor::Tensor>&,
                                        const nn::LossHead&) override {
    return {};
  }
  std::span<float> weights() override { return params_; }
  std::span<const float> weights() const override { return params_; }
  std::span<float> gradients() override { return params_; }
  void commit_update() override {}
  std::vector<optim::LrSegment> lr_segments(double, std::span<const double>) const override {
    return {};
  }
  std::vector<double> stage_tau_fwd() const override { return {}; }
  void set_method(pipeline::Method) override {}
  pipeline::Method method() const override { return pipeline::Method::PipeMare; }
  const nn::Model& model() const override { return model_; }
  std::string_view name() const override { return "scripted"; }

 private:
  std::vector<std::vector<pipeline::StageStats>> script_;
  mutable std::size_t next_ = 0;
  std::vector<float> params_;
  nn::Model model_;
};

TEST(StageLoadObserver, UnnotifiedResetIsDetectedPerSampleNotPerField) {
  // Epoch 1 ends at the baseline; then the backend's counters are reset
  // without telling the observer, and epoch 2 happens to end with slot 0's
  // items equal to its stale baseline while its busy time regressed. The
  // regressed counter proves a reset, so the whole sample is epoch 2's
  // delta: per field, slot 0 would read 0 items and slot 1 only the growth
  // over its stale baseline.
  const std::vector<pipeline::StageStats> baseline = {
      {.busy_ns = 100, .pop_wait_ns = 10, .items = 4},
      {.busy_ns = 200, .pop_wait_ns = 20, .items = 4}};
  const std::vector<pipeline::StageStats> after_reset = {
      {.busy_ns = 50, .pop_wait_ns = 30, .items = 4},
      {.busy_ns = 300, .pop_wait_ns = 40, .items = 6}};
  // The first sample answers active().
  ScriptedStatsBackend backend({baseline, baseline, after_reset});
  core::StageLoadObserver load(backend);
  ASSERT_TRUE(load.active());
  core::EpochRecord rec;
  load.on_epoch(rec);
  load.on_epoch(rec);
  ASSERT_EQ(load.epoch_stats().size(), 2u);
  const auto& delta = load.epoch_stats()[1];
  ASSERT_EQ(delta.size(), 2u);
  for (std::size_t s = 0; s < delta.size(); ++s) {
    EXPECT_EQ(delta[s].items, after_reset[s].items) << "slot " << s;
    EXPECT_EQ(delta[s].busy_ns, after_reset[s].busy_ns) << "slot " << s;
    EXPECT_EQ(delta[s].pop_wait_ns, after_reset[s].pop_wait_ns) << "slot " << s;
  }
}

}  // namespace
}  // namespace pipemare
