#include "core/pushsum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/census.hpp"

namespace anonet {

PushSumAgent::PushSumAgent(double value, double weight)
    : y_(value), z_(weight) {
  if (weight <= 0.0) {
    throw std::invalid_argument("PushSumAgent: weight must be positive");
  }
}

PushSumAgent::Message PushSumAgent::send(int outdegree, int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error("PushSumAgent: requires outdegree awareness");
  }
  const double d = static_cast<double>(outdegree);
  return Message{y_ / d, z_ / d};
}

void PushSumAgent::receive(Inbox<Message> messages) {
  double y = 0.0;
  double z = 0.0;
  for (const Message& m : messages) {
    y += m.y_share;
    z += m.z_share;
  }
  y_ = y;
  z_ = z;
}

FrequencyPushSumAgent::FrequencyPushSumAgent(std::int64_t input,
                                             std::optional<bool> is_leader)
    : input_(input),
      z_default_(is_leader.has_value() && !*is_leader ? 0.0 : 1.0) {
  // Algorithm 1, line 3: y[v_i] <- 1, z[v_i] <- z-default.
  keys_.push_back(input_);
  ys_.push_back(1.0);
  zs_.push_back(z_default_);
}

FrequencyPushSumAgent::Message FrequencyPushSumAgent::send(
    int outdegree, int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error(
        "FrequencyPushSumAgent: requires outdegree awareness");
  }
  return Message{keys_, ys_, zs_, outdegree};
}

void FrequencyPushSumAgent::receive(Inbox<Message> messages) {
  // Per-value asynchronous starts, implemented *conservatively*: a sender
  // that does not know ω contributes nothing (in the G̃ construction of
  // Section 5.3 its edges do not exist yet for ω's instance), and an agent
  // deposits its whole z-default the first time it materializes ω (its
  // banked, never-circulated initial weight joining the instance). This
  // keeps Σy[ω] and Σz[ω] exactly invariant — Σz[ω] = n (or ℓ in the leader
  // variant) once every agent knows ω, so x[ω] -> multiplicity/n exactly.
  // Algorithm 1 as printed instead has *receivers* supply defaults for
  // unknowing senders (lines 9-10), which double-counts a unit that is also
  // re-deposited at the sender and measurably inflates Σz on directed
  // topologies (see pushsum_test.cpp, ConservativeJoiningIsExact); the
  // deviation is documented in DESIGN.md.
  //
  // Per-accumulator floating-point order is message order (each message
  // contributes at most one add per value), identical whether the outer loop
  // runs value-major over a map or message-major over vectors — so this SoA
  // merge is bit-for-bit the same as the original map-based update.
  merged_.clear();
  bool uniform = !messages.empty();
  for (const Message& m : messages) {
    if (m.keys != messages.front().keys) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    merged_ = messages.front().keys;
  } else {
    for (const Message& m : messages) {
      merged_.insert(merged_.end(), m.keys.begin(), m.keys.end());
    }
    std::sort(merged_.begin(), merged_.end());
    merged_.erase(std::unique(merged_.begin(), merged_.end()), merged_.end());
  }

  acc_y_.assign(merged_.size(), 0.0);
  acc_z_.assign(merged_.size(), 0.0);
  for (const Message& m : messages) {
    const double d = static_cast<double>(m.outdegree);
    if (m.keys.size() == merged_.size()) {
      // Equal sizes of sorted-unique subset and union mean equal key sets:
      // the dense lane the SoA layout exists for (vectorizable, no search).
      for (std::size_t i = 0; i < m.keys.size(); ++i) {
        acc_y_[i] += m.ys[i] / d;
        acc_z_[i] += m.zs[i] / d;
      }
    } else {
      std::size_t j = 0;
      for (std::size_t i = 0; i < m.keys.size(); ++i) {
        while (merged_[j] < m.keys[i]) ++j;
        acc_y_[j] += m.ys[i] / d;
        acc_z_[j] += m.zs[i] / d;
      }
    }
  }
  // Banked z-defaults for values this agent materializes just now.
  std::size_t i = 0;
  for (std::size_t j = 0; j < merged_.size(); ++j) {
    while (i < keys_.size() && keys_[i] < merged_[j]) ++i;
    if (i >= keys_.size() || keys_[i] != merged_[j]) acc_z_[j] += z_default_;
  }
  keys_.swap(merged_);
  ys_.swap(acc_y_);
  zs_.swap(acc_z_);
}

std::map<std::int64_t, double> FrequencyPushSumAgent::estimates() const {
  std::map<std::int64_t, double> result;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    result[keys_[i]] = zs_[i] > 0.0
                           ? ys_[i] / zs_[i]
                           : std::numeric_limits<double>::infinity();
  }
  return result;
}

std::map<std::int64_t, double> FrequencyPushSumAgent::normalized_estimates()
    const {
  std::map<std::int64_t, double> raw = estimates();
  double total = 0.0;
  for (const auto& [value, x] : raw) total += x;
  if (total > 0.0 && std::isfinite(total)) {
    for (auto& [value, x] : raw) x /= total;
  }
  return raw;
}

std::optional<Frequency> FrequencyPushSumAgent::rounded_frequency(
    std::uint32_t bound_on_n) const {
  return round_frequency(estimates(), bound_on_n);
}

std::map<std::int64_t, double> FrequencyPushSumAgent::multiplicity_estimates(
    std::int64_t leader_count) const {
  if (leader_count <= 0) {
    throw std::invalid_argument(
        "FrequencyPushSumAgent: leader_count must be positive");
  }
  std::map<std::int64_t, double> result = estimates();
  for (auto& [value, x] : result) x *= static_cast<double>(leader_count);
  return result;
}

}  // namespace anonet
