#include "src/hogwild/threaded_hogwild.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace pipemare::hogwild {

namespace {

using Clock = std::chrono::steady_clock;
using util::ns_between;

}  // namespace

ThreadedHogwildEngine::ThreadedHogwildEngine(const nn::Model& model, HogwildConfig cfg,
                                             std::uint64_t seed)
    : model_(model),
      cfg_(std::move(cfg)),
      versions_(model, cfg_, seed),
      grads_(versions_.store().live().size(), 0.0F) {
  for (int m = 0; m < model_.num_modules(); ++m) {
    if (model_.module(m).stateful_forward()) {
      throw std::invalid_argument(
          "ThreadedHogwildEngine: module '" + model_.module(m).name() +
          "' mutates state in forward (stateful_forward); concurrent "
          "whole-model replicas would race on it. Use HogwildEngine or the "
          "stage-partitioned \"threaded\" backend instead.");
    }
  }

  const int w = sched::resolve_workers(cfg_.num_workers, cfg_.engine.num_microbatches);
  stats_.assign(static_cast<std::size_t>(w), pipeline::StageStats{});
  scratch_.resize(static_cast<std::size_t>(w));  // sized by each worker (drain)
  caches_.resize(static_cast<std::size_t>(w));
  for (auto& c : caches_) c = model_.make_caches();
  done_.resize(static_cast<std::size_t>(w));
  // Spawn last: drain() touches every field above.
  pool_ = std::make_unique<sched::WorkerPool>(w, [this](int worker) { drain(worker); });
}

ThreadedHogwildEngine::~ThreadedHogwildEngine() = default;

void ThreadedHogwildEngine::record_failure(const char* what) {
  bool expected = false;
  if (mb_failed_.compare_exchange_strong(expected, true)) {
    util::MutexLock lock(error_m_);
    mb_error_ = what;
  }
}

void ThreadedHogwildEngine::process_micro(int micro, int worker, bool& w_ready) {
  std::vector<float>& w = scratch_[static_cast<std::size_t>(worker)];
  std::vector<nn::Cache>& caches = caches_[static_cast<std::size_t>(worker)];
  if (mb_failed_.load(std::memory_order_relaxed)) return;
  try {
    if (!w_ready) {
      // One delayed-weight view per worker per step: every worker builds
      // the identical bytes (the trainer thread sampled the versions), so
      // microbatch->worker assignment cannot change any result. Seqlock
      // read: retry until the view was assembled entirely inside one
      // stable (even) epoch. Commits are barrier-ordered before worker
      // reads today, so this never spins and the barrier (not the epoch)
      // provides the happens-before; a true free-running mode must also
      // make the slot bytes themselves race-free (see the class comment).
      for (;;) {
        std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
        if (e1 & 1U) continue;  // writer active
        versions_.assemble(w);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (epoch_.load(std::memory_order_relaxed) == e1) break;
      }
      w_ready = true;
    }
    auto idx = static_cast<std::size_t>(micro);
    nn::Flow input = (*mb_inputs_)[idx];
    input.training = true;
    input.micro = micro;
    input.step = versions_.store().step();
    nn::Flow out = model_.forward(std::move(input), w, caches);
    auto lr = mb_head_->forward_backward(out.x, (*mb_targets_)[idx]);
    micro_[idx] = {lr.loss, lr.correct, lr.count};
    if (!std::isfinite(lr.loss)) return;  // gradients unspecified past here
    std::vector<float>& g = micro_grads_[idx];
    g.assign(grads_.size(), 0.0F);
    nn::Flow dflow;
    dflow.x = std::move(lr.doutput);
    (void)model_.backward(std::move(dflow), w, caches, g);
  } catch (const std::exception& e) {
    record_failure(e.what());
  }
}

void ThreadedHogwildEngine::drain(int worker) {
  // Each worker sizes (and first touches) its own weight-view buffer on
  // its first minibatch, off the constructing thread.
  scratch_[static_cast<std::size_t>(worker)].resize(grads_.size());
  pipeline::StageStats& stats = stats_[static_cast<std::size_t>(worker)];
  const auto n = static_cast<int>(mb_inputs_->size());
  bool w_ready = false;
  for (int m = next_micro_.fetch_add(1, std::memory_order_relaxed); m < n;
       m = next_micro_.fetch_add(1, std::memory_order_relaxed)) {
    auto t0 = Clock::now();
    {
      obs::Span span("micro", "hogwild", -1, m, versions_.store().step());
      process_micro(m, worker, w_ready);
    }
    stats.busy_ns += ns_between(t0, Clock::now());
    ++stats.items;
  }
  done_[static_cast<std::size_t>(worker)] = Clock::now();
}

ThreadedHogwildEngine::StepResult ThreadedHogwildEngine::forward_backward(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head) {
  auto n = static_cast<int>(micro_inputs.size());
  if (n == 0 || micro_targets.size() != micro_inputs.size()) {
    throw std::invalid_argument("ThreadedHogwildEngine: bad microbatch vectors");
  }
  auto un = static_cast<std::size_t>(n);
  micro_.assign(un, StepResult{});
  if (micro_grads_.size() < un) micro_grads_.resize(un);

  // Sample this step's per-unit weight versions on the trainer thread —
  // the same draws, in the same order, as HogwildEngine.
  versions_.sample();

  mb_inputs_ = &micro_inputs;
  mb_targets_ = &micro_targets;
  mb_head_ = &head;
  mb_failed_.store(false);
  next_micro_.store(0, std::memory_order_relaxed);
  pool_->run_generation();
  // A worker that ran out of microbatches idles in the pool barrier until
  // the last one finishes: charge that tail to its pop_wait_ns.
  const auto last_done = *std::max_element(done_.begin(), done_.end());
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].pop_wait_ns += ns_between(done_[i], last_done);
  }
  mb_inputs_ = nullptr;
  mb_targets_ = nullptr;
  mb_head_ = nullptr;
  if (mb_failed_.load()) {
    util::MutexLock lock(error_m_);
    std::string what = std::move(mb_error_);
    mb_error_.clear();
    throw std::runtime_error("ThreadedHogwildEngine worker failed: " + what);
  }

  // Deterministic merge in microbatch order, matching the sequential
  // engine's accumulation (and the unified non-finite contract).
  return pipeline::merge_microbatches(micro_, grads_, [&] {
    std::fill(grads_.begin(), grads_.end(), 0.0F);
    for (int m = 0; m < n; ++m) {
      const std::vector<float>& g = micro_grads_[static_cast<std::size_t>(m)];
      for (std::size_t i = 0; i < grads_.size(); ++i) grads_[i] += g[i];
    }
  });
}

void ThreadedHogwildEngine::commit_update() {
  // Seqlock write: odd epoch while the ring slot is inconsistent.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  versions_.store().commit_update();
  epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace pipemare::hogwild
