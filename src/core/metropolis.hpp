#pragma once

// Metropolis averaging (Section 5).
//
// On symmetric networks the Metropolis weights
//     W_{ij} = 1 / max(d_i, d_j)          (i != j, (i,j) an edge)
//     W_{ii} = 1 - Σ_{j != i} W_{ij}
// form a doubly-stochastic matrix whose repeated application drives every
// x_i to the average of the initial values; the paper uses it as the
// frequency engine for the dynamic symmetric-communications column of
// Table 2. Each message carries (x, d): the receiver can compute W_{ij}
// because it knows its own round degree from the sending phase (outdegree
// awareness — the model the paper states Metropolis under; in a *static*
// symmetric network degrees could instead be learned in round one). The
// update is sum-preserving pairwise, needs no persistent memory beyond x,
// and tolerates asynchronous starts.
//
// MetropolisAgent averages one scalar. FrequencyMetropolisAgent runs one
// instance per input value over indicator initializations — the average of
// 1{v_i = ω} is exactly ν_v(ω) — with lazy per-value joining mirroring
// Algorithm 1 (both endpoints of an edge process a value as soon as either
// knows it, keeping the pairwise cancellation exact).

#include <cstdint>
#include <map>
#include <optional>

#include "functions/functions.hpp"
#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "support/small_vector.hpp"
#include "wire/codecs.hpp"

namespace anonet {

class MetropolisAgent {
 public:
  struct Message {
    double x = 0.0;
    int degree = 1;
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Metropolis weights consume the round degree (outdegree awareness) and
  // the pairwise cancellation is only sum-preserving on bidirectional round
  // graphs: the executor verifies symmetry every round.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree | ModelCapabilities::kSymmetricOnly;
  // The pairwise terms vanish *symmetrically* when a neighbor is inert: a
  // sleeping or absent vertex neither sends nor transitions, so both sides
  // of the (u, v) term are missing and the sum is still conserved — async
  // starts and churn are safe. A one-directional message drop is not (one
  // side applies the term, the other does not), and a crashed agent's
  // output is stuck off-average forever.
  static constexpr FaultTolerance kFaultTolerance =
      FaultTolerance::kAsyncStart | FaultTolerance::kChurn;

  explicit MetropolisAgent(double value) : x_(value) {}

  [[nodiscard]] Message send(int outdegree, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] double output() const { return x_; }

 private:
  double x_ = 0.0;
  mutable int degree_ = 1;  // round degree recorded at send time
};

// Metropolis value + announced round degree.
template <>
struct wire::MessageTraits<MetropolisAgent::Message> {
  using M = MetropolisAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_double(m.x);
    sink.write_svarint(m.degree);
  }

  static M decode(BitReader& src) {
    M m;
    m.x = src.read_double();
    m.degree = src.read_varint<int>();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(MetropolisAgent);

class FrequencyMetropolisAgent {
 public:
  // One value's Metropolis instance: ω and its estimate x[ω].
  struct Entry {
    std::int64_t key;
    double x;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  // Per-value state, sorted by key (keys strictly increasing). Up to
  // kInlineFrequencyValues entries live inline in the agent.
  using Entries = SmallVector<Entry, kInlineFrequencyValues>;

  struct Message {
    // The sender's announced round degree and a copy of its state.
    // Inline, it is one contiguous block in the executor's outbox, and the
    // send phase allocates nothing.
    int degree = 1;
    Entries entries;
  };
  // Delivered by outbox slot: a copy in the arena would move the whole
  // inline block, a few hundred bytes, per delivery.
  static_assert(kDeliveredBySlot<Message>);

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Same cell as MetropolisAgent: round degrees + symmetric networks.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree | ModelCapabilities::kSymmetricOnly;
  // Same robustness profile as MetropolisAgent: symmetric omission is
  // conserved, one-sided loss is not.
  static constexpr FaultTolerance kFaultTolerance =
      FaultTolerance::kAsyncStart | FaultTolerance::kChurn;

  explicit FrequencyMetropolisAgent(std::int64_t input);

  [[nodiscard]] Message send(int outdegree, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] std::int64_t input() const { return input_; }
  [[nodiscard]] std::map<std::int64_t, double> estimates() const;

  // Corollary-5.3-style exact rounding under a known bound N >= n; the same
  // Farey argument applies to any convergent frequency estimate.
  [[nodiscard]] std::optional<Frequency> rounded_frequency(
      std::uint32_t bound_on_n) const;

 private:
  std::int64_t input_;
  mutable int degree_ = 1;
  Entries state_;
};

// Frequency Metropolis: count + (delta key, x) per entry + degree.
template <>
struct wire::MessageTraits<FrequencyMetropolisAgent::Message> {
  using M = FrequencyMetropolisAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_uvarint(m.entries.size());
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
      write_key(sink, m.entries[i].key, i == 0, prev);
      sink.write_double(m.entries[i].x);
      prev = m.entries[i].key;
    }
    sink.write_svarint(m.degree);
  }

  static M decode(BitReader& src) {
    const std::uint64_t count = src.read_count(8 + kDoubleBits);
    M m;
    m.entries.reserve(count);
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      prev = read_key(src, i == 0, prev);
      m.entries.push_back({prev, src.read_double()});
    }
    m.degree = src.read_varint<int>();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(FrequencyMetropolisAgent);

}  // namespace anonet
