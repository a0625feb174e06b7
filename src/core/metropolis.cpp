#include "core/metropolis.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/census.hpp"

namespace anonet {

namespace {

double metropolis_weight(int degree_a, int degree_b) {
  return 1.0 / static_cast<double>(std::max(degree_a, degree_b));
}

}  // namespace

MetropolisAgent::Message MetropolisAgent::send(int outdegree,
                                               int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error("MetropolisAgent: requires outdegree awareness");
  }
  degree_ = outdegree;
  return Message{x_, outdegree};
}

void MetropolisAgent::receive(Inbox<Message> messages) {
  // x_i += Σ_j W_ij (x_j - x_i). The agent's own message contributes zero,
  // so no self-identification is needed (the multiset stays anonymous).
  double delta = 0.0;
  for (const Message& m : messages) {
    delta += metropolis_weight(degree_, m.degree) * (m.x - x_);
  }
  x_ += delta;
}

FrequencyMetropolisAgent::FrequencyMetropolisAgent(std::int64_t input)
    : input_(input) {
  keys_.push_back(input_);
  xs_.push_back(1.0);
}

FrequencyMetropolisAgent::Message FrequencyMetropolisAgent::send(
    int outdegree, int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error(
        "FrequencyMetropolisAgent: requires outdegree awareness");
  }
  degree_ = outdegree;
  return Message{keys_, xs_, outdegree};
}

void FrequencyMetropolisAgent::receive(Inbox<Message> messages) {
  // Materialize every value any sender knows: a missing entry is an exact 0
  // (indicator average), so processing it keeps the pairwise update
  // symmetric — the neighbor treats our missing entry as 0 too, and the two
  // corrections cancel, preserving the global sum per value. Per-value
  // floating-point order is message order in both the map-based original and
  // this SoA merge, so outputs are bit-identical.
  merged_.clear();
  bool uniform = true;
  for (const Message& m : messages) {
    if (m.keys != keys_) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    merged_ = keys_;
  } else {
    merged_ = keys_;
    for (const Message& m : messages) {
      merged_.insert(merged_.end(), m.keys.begin(), m.keys.end());
    }
    std::sort(merged_.begin(), merged_.end());
    merged_.erase(std::unique(merged_.begin(), merged_.end()), merged_.end());
  }

  // Pre-round values aligned to the union; values this agent does not hold
  // yet enter as exact zeros.
  if (merged_.size() == keys_.size()) {
    before_ = xs_;
  } else {
    before_.assign(merged_.size(), 0.0);
    std::size_t j = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      while (merged_[j] < keys_[i]) ++j;
      before_[j] = xs_[i];
    }
  }

  delta_.assign(merged_.size(), 0.0);
  for (const Message& m : messages) {
    const double w = metropolis_weight(degree_, m.degree);
    if (m.keys.size() == merged_.size()) {
      // Key sets equal (sorted-unique subset of the union, same size): the
      // dense multiply-add lane.
      for (std::size_t j = 0; j < merged_.size(); ++j) {
        delta_[j] += w * (m.xs[j] - before_[j]);
      }
    } else {
      // A sender without a value contributes w * (0 - before): walk the
      // whole union, consuming the message's keys in lockstep.
      std::size_t i = 0;
      for (std::size_t j = 0; j < merged_.size(); ++j) {
        double x_sender = 0.0;
        if (i < m.keys.size() && m.keys[i] == merged_[j]) {
          x_sender = m.xs[i];
          ++i;
        }
        delta_[j] += w * (x_sender - before_[j]);
      }
    }
  }
  for (std::size_t j = 0; j < merged_.size(); ++j) before_[j] += delta_[j];
  keys_.swap(merged_);
  xs_.swap(before_);
}

std::map<std::int64_t, double> FrequencyMetropolisAgent::estimates() const {
  std::map<std::int64_t, double> result;
  for (std::size_t i = 0; i < keys_.size(); ++i) result[keys_[i]] = xs_[i];
  return result;
}

std::optional<Frequency> FrequencyMetropolisAgent::rounded_frequency(
    std::uint32_t bound_on_n) const {
  return round_frequency(estimates(), bound_on_n);
}

}  // namespace anonet
