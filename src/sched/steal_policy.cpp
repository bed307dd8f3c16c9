#include "src/sched/steal_policy.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pipemare::sched {

std::string steal_mode_name(StealMode mode) {
  switch (mode) {
    case StealMode::Disabled: return "off";
    case StealMode::LoadAware: return "load";
    case StealMode::Forced: return "forced";
  }
  return "?";
}

StealMode parse_steal_mode(std::string_view text) {
  if (text == "off" || text == "disabled" || text == "none") {
    return StealMode::Disabled;
  }
  if (text == "load" || text == "load-aware" || text == "load_aware") {
    return StealMode::LoadAware;
  }
  if (text == "forced") return StealMode::Forced;
  throw std::invalid_argument(
      "parse_steal_mode: '" + std::string(text) +
      "' is not a steal mode; use off|load|forced (long forms: disabled, "
      "load-aware)");
}

StealPolicy::StealPolicy(StealMode mode, std::vector<double> predicted_cost)
    : mode_(mode), predicted_(std::move(predicted_cost)) {
  rank(predicted_);
}

void StealPolicy::rank(std::span<const double> share) {
  order_.resize(share.size());
  std::iota(order_.begin(), order_.end(), 0);
  // stable_sort + strictly-greater comparator: equal shares keep ascending
  // stage order, so the ranking is a pure function of the input vector.
  std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
    return share[static_cast<std::size_t>(a)] > share[static_cast<std::size_t>(b)];
  });
}

void StealPolicy::refresh(std::span<const std::uint64_t> busy_ns) {
  if (!steal_enabled()) return;
  if (busy_ns.size() != predicted_.size()) return;
  std::uint64_t total = 0;
  for (std::uint64_t b : busy_ns) total += b;
  if (total == 0) return;  // nothing measured yet: keep the predicted seed
  std::vector<double> observed(busy_ns.begin(), busy_ns.end());
  rank(observed);
}

}  // namespace pipemare::sched
