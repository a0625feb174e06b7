#include "core/uniform_consensus.hpp"

#include <stdexcept>

#include "core/census.hpp"

namespace anonet {

namespace {

double step_for(std::uint32_t bound_on_n) {
  if (bound_on_n == 0) {
    throw std::invalid_argument("uniform consensus: bound must be positive");
  }
  return 1.0 / static_cast<double>(bound_on_n);
}

}  // namespace

UniformWeightAgent::UniformWeightAgent(double value, std::uint32_t bound_on_n)
    : x_(value), step_(step_for(bound_on_n)) {}

void UniformWeightAgent::receive(Inbox<Message> messages) {
  // The agent's own message contributes zero to the correction, so the
  // anonymous multiset needs no self-identification.
  double delta = 0.0;
  for (const Message& m : messages) delta += m.x - x_;
  x_ += step_ * delta;
}

FrequencyUniformAgent::FrequencyUniformAgent(std::int64_t input,
                                             std::uint32_t bound_on_n)
    : input_(input), bound_(bound_on_n), step_(step_for(bound_on_n)) {
  x_[input_] = 1.0;
}

void FrequencyUniformAgent::receive(Inbox<Message> messages) {
  std::map<std::int64_t, double> next = x_;
  for (const Message& m : messages) {
    for (const auto& [value, x] : m.x) next.try_emplace(value, 0.0);
  }
  for (auto& [value, x_own] : next) {
    const double before = x_own;
    double delta = 0.0;
    for (const Message& m : messages) {
      auto it = m.x.find(value);
      delta += (it == m.x.end() ? 0.0 : it->second) - before;
    }
    x_own = before + step_ * delta;
  }
  x_ = std::move(next);
}

std::optional<Frequency> FrequencyUniformAgent::rounded_frequency() const {
  return round_frequency(x_, bound_);
}

}  // namespace anonet
