#include "core/pushsum.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

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
  state_.push_back({input_, 1.0, z_default_});
}

FrequencyPushSumAgent::Message FrequencyPushSumAgent::send(
    int outdegree, int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error(
        "FrequencyPushSumAgent: requires outdegree awareness");
  }
  return Message{outdegree, state_};
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
  // Each message is merged into the stack-local union of the keys seen so
  // far: a key the union lacks enters with zero weights, then the message
  // adds its shares. Every accumulator therefore starts at 0 and adds its
  // shares in message order, one add per message holding ω, which is
  // bit-for-bit the original map-based update.
  Entries merged;
  for (const Message& m : messages) {
    const double d = static_cast<double>(m.outdegree);
    if (std::equal(m.entries.begin(), m.entries.end(), merged.begin(),
                   merged.end(), [](const Entry& sent, const Entry& slot) {
                     return sent.key == slot.key;
                   })) {
      // The sender holds exactly the union's values: the dense lane.
      for (std::size_t j = 0; j < merged.size(); ++j) {
        merged[j].y += m.entries[j].y / d;
        merged[j].z += m.entries[j].z / d;
      }
      continue;
    }
    Entry* slot = merged.begin();
    for (const Entry& sent : m.entries) {
      while (slot != merged.end() && slot->key < sent.key) ++slot;
      if (slot == merged.end() || slot->key != sent.key) {
        slot = merged.insert(slot, {sent.key, 0.0, 0.0});
      }
      slot->y += sent.y / d;
      slot->z += sent.z / d;
      ++slot;
    }
  }
  // Banked z-defaults for values this agent materializes just now.
  const Entry* held = state_.begin();
  for (Entry& entry : merged) {
    while (held != state_.end() && held->key < entry.key) ++held;
    if (held == state_.end() || held->key != entry.key) entry.z += z_default_;
  }
  state_ = std::move(merged);
}

std::map<std::int64_t, double> FrequencyPushSumAgent::estimates() const {
  std::map<std::int64_t, double> result;
  for (const Entry& entry : state_) {
    result[entry.key] = entry.z > 0.0
                            ? entry.y / entry.z
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
