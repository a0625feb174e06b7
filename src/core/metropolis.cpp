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
  state_.push_back({input_, 1.0});
}

FrequencyMetropolisAgent::Message FrequencyMetropolisAgent::send(
    int outdegree, int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error(
        "FrequencyMetropolisAgent: requires outdegree awareness");
  }
  degree_ = outdegree;
  return Message{outdegree, state_};
}

void FrequencyMetropolisAgent::receive(Inbox<Message> messages) {
  // Materialize every value any sender knows: a missing entry is an exact 0
  // (indicator average), so processing it keeps the pairwise update
  // symmetric — the neighbor treats our missing entry as 0 too, and the two
  // corrections cancel, preserving the global sum per value.
  //
  // The stack-local union starts as the held values, each with its
  // pre-round value and a zero delta. Every message then walks the whole
  // union in lockstep with its own keys, adding w * (x_sender - before) to
  // each delta, with x_sender = 0 where it lacks the value; a key the union
  // lacks enters first with before = 0. A key entering at message k would
  // have gathered only exact zeros from messages 1..k-1, so every delta is
  // the same sum, in message order, as in the map-based original, and the
  // outputs are bit-identical.
  struct Pending {
    std::int64_t key;
    double before;
    double delta;
  };
  SmallVector<Pending, kInlineFrequencyValues> merged;
  for (const Entry& held : state_) merged.push_back({held.key, held.x, 0.0});
  for (const Message& m : messages) {
    const double w = metropolis_weight(degree_, m.degree);
    if (std::equal(m.entries.begin(), m.entries.end(), merged.begin(),
                   merged.end(), [](const Entry& sent, const Pending& slot) {
                     return sent.key == slot.key;
                   })) {
      // The sender holds exactly the union's values: the dense lane.
      for (std::size_t j = 0; j < merged.size(); ++j) {
        merged[j].delta += w * (m.entries[j].x - merged[j].before);
      }
      continue;
    }
    const Entry* sent = m.entries.begin();
    for (Pending* slot = merged.begin();
         slot != merged.end() || sent != m.entries.end(); ++slot) {
      if (sent != m.entries.end() &&
          (slot == merged.end() || sent->key < slot->key)) {
        slot = merged.insert(slot, {sent->key, 0.0, 0.0});
      }
      double x_sender = 0.0;
      if (sent != m.entries.end() && sent->key == slot->key) {
        x_sender = sent->x;
        ++sent;
      }
      slot->delta += w * (x_sender - slot->before);
    }
  }
  state_.clear();
  state_.reserve(merged.size());
  for (const Pending& p : merged) state_.push_back({p.key, p.before + p.delta});
}

std::map<std::int64_t, double> FrequencyMetropolisAgent::estimates() const {
  std::map<std::int64_t, double> result;
  for (const Entry& entry : state_) result[entry.key] = entry.x;
  return result;
}

std::optional<Frequency> FrequencyMetropolisAgent::rounded_frequency(
    std::uint32_t bound_on_n) const {
  return round_frequency(estimates(), bound_on_n);
}

}  // namespace anonet
