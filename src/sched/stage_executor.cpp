#include "src/sched/stage_executor.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/stats.h"

namespace pipemare::sched {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

StageExecutor::StageExecutor(int stages, int workers, Client client)
    : client_(std::move(client)),
      home_stages_(static_cast<std::size_t>(workers)),
      counters_(static_cast<std::size_t>(stages + workers)) {
  for (int s = 0; s < stages; ++s) {
    queues_.push_back(std::make_unique<TaskQueue>());
    home_stages_[static_cast<std::size_t>(s % workers)].push_back(s);
  }
  // Spawn last: work() touches every field above.
  pool_ = std::make_unique<WorkerPool>(workers, [this](int worker) { work(worker); });
}

StageExecutor::~StageExecutor() = default;

void StageExecutor::set_victims(const std::vector<int>& order, bool steal_first) {
  victims_ = order;
  steal_first_ = steal_first;
}

void StageExecutor::push(Task task) {
  queues_[static_cast<std::size_t>(task.stage)]->push(task);
  notify();
}

void StageExecutor::notify() {
  {
    util::MutexLock lock(m_);
    ++push_version_;
  }
  cv_.notify_all();
}

void StageExecutor::run(std::int64_t trace_step) {
  trace_step_ = trace_step;
  pool_->run_generation();
}

bool StageExecutor::scan(const std::vector<int>& stages, bool steal, Task& out) {
  for (int s : stages) {
    TaskQueue& q = *queues_[static_cast<std::size_t>(s)];
    if (steal ? q.steal(out) : q.pop(out)) return true;
  }
  return false;
}

bool StageExecutor::acquire(int worker, Task& out, bool& stolen) {
  const std::vector<int>& home = home_stages_[static_cast<std::size_t>(worker)];
  const bool found = steal_first_
                         ? scan(victims_, true, out) || scan(home, false, out)
                         : scan(home, false, out) || scan(victims_, true, out);
  stolen = found && out.stage % num_workers() != worker;
  return found;
}

void StageExecutor::charge(int worker, const Task& task, bool stolen,
                           std::uint64_t busy_ns) {
  for (Counters* c : {&stage_counters(task.stage), &worker_counters(worker)}) {
    c->busy_ns.fetch_add(busy_ns, kRelaxed);
    c->items.fetch_add(1, kRelaxed);
    if (stolen) {
      c->stolen_items.fetch_add(1, kRelaxed);
      c->stolen_ns.fetch_add(busy_ns, kRelaxed);
    }
  }
  if (stolen) {
    static obs::Counter& steals = obs::MetricsRegistry::instance().counter("sched.steals");
    steals.add();
  }
}

void StageExecutor::work(int worker) {
  for (;;) {
    // Version first, finished() second (see the class comment): the order
    // is what makes the park below race-free.
    std::uint64_t version;
    {
      util::MutexLock lock(m_);
      version = push_version_;
    }
    if (client_.finished()) return;

    Task task;
    bool stolen = false;
    if (acquire(worker, task, stolen)) {
      charge(worker, task, stolen, client_.execute(worker, task, stolen));
      continue;
    }
    const Clock::duration recheck =
        client_.idle ? client_.idle() : Clock::duration::max();
    if (recheck <= Clock::duration::zero()) continue;

    // Nothing admissible anywhere: park until the version moves, or until
    // the client's timer is due.
    const auto t0 = Clock::now();
    {
      obs::Span bubble("pop_wait", "sched", -1, -1, trace_step_);
      util::MutexLock lock(m_);
      if (recheck == Clock::duration::max()) {
        while (push_version_ == version) cv_.wait(m_);
      } else if (push_version_ == version) {
        cv_.wait_for(m_, std::chrono::duration_cast<std::chrono::nanoseconds>(recheck));
      }
    }
    worker_counters(worker).pop_wait_ns.fetch_add(util::ns_between(t0, Clock::now()),
                                                  kRelaxed);
  }
}

std::vector<StageExecutor::StageStats> StageExecutor::snapshot(int first, int count) const {
  std::vector<StageStats> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Counters& c = counters_[static_cast<std::size_t>(first + i)];
    StageStats& s = out[static_cast<std::size_t>(i)];
    s.busy_ns = c.busy_ns.load(kRelaxed);
    s.pop_wait_ns = c.pop_wait_ns.load(kRelaxed);
    s.items = c.items.load(kRelaxed);
    s.stolen_items = c.stolen_items.load(kRelaxed);
    s.stolen_ns = c.stolen_ns.load(kRelaxed);
  }
  return out;
}

std::vector<StageExecutor::StageStats> StageExecutor::stage_stats() const {
  std::vector<StageStats> out = snapshot(0, num_stages());
  // Waiting is worker-side: worker s is home to stage s (s < min(W, P)),
  // so its idle wait is that stage's bubble.
  const std::vector<StageStats> workers = worker_stats();
  for (std::size_t s = 0; s < out.size() && s < workers.size(); ++s) {
    out[s].pop_wait_ns = workers[s].pop_wait_ns;
  }
  return out;
}

std::vector<StageExecutor::StageStats> StageExecutor::worker_stats() const {
  return snapshot(num_stages(), num_workers());
}

void StageExecutor::reset_stats() {
  for (Counters& c : counters_) {
    c.busy_ns.store(0, kRelaxed);
    c.pop_wait_ns.store(0, kRelaxed);
    c.items.store(0, kRelaxed);
    c.stolen_items.store(0, kRelaxed);
    c.stolen_ns.store(0, kRelaxed);
  }
}

}  // namespace pipemare::sched
