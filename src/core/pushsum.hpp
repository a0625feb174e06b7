#pragma once

// Push-Sum (Sections 5.1-5.5).
//
// PushSumAgent is the bare quot-sum algorithm of Theorem 5.2: weights y, z
// flow along edges scaled by 1/outdegree (column-stochastic mass splitting),
// and the output x = y/z converges to Σv_k / Σw_k in any dynamic network
// with a finite dynamic diameter. The paper remarks that "by the very
// definition of its update rules, the Push-Sum algorithm requires output
// port awareness" (§5.1) — that applies to the general form where shares
// may differ per recipient; the equal 1/d split used here (and in the
// paper's own analysis, eq. 6-7) is isotropic, so outdegree awareness
// suffices and that is the model this agent runs under. It tolerates
// asynchronous starts and is *not* self-stabilizing (the y, z
// initialization is part of its correctness; see the negative demonstration
// in pushsum_test.cpp).
//
// FrequencyPushSumAgent is Algorithm 1: one Push-Sum instance per input
// value ω, started lazily by the agents holding ω and joined by others upon
// first hearing of ω (an asynchronous start, which Push-Sum tolerates).
// x[ω] -> ν_v(ω). With a known bound N >= n, rounding each estimate to the
// nearest rational with denominator <= N (support/farey.hpp) yields the
// exact frequency function in finite time (Corollary 5.3); with a leader
// count ℓ, initializing z to 0 at non-leaders turns estimates into
// multiplicities (Section 5.5).

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

class PushSumAgent {
 public:
  struct Message {
    double y_share = 0.0;
    double z_share = 0.0;
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // The 1/d mass split consumes the round outdegree (Table 1, outdegree
  // awareness); the executor rejects this agent under broadcast models.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree;
  // Mass conservation survives churn (an absent vertex holds its y, z on
  // its self-loop and rejoins intact) but nothing else: an executor-level
  // sleeping or crashed receiver swallows its 1/d share, and a dropped
  // message destroys mass outright. (Graph-level async starts, where the
  // edge is absent and the outdegree shrinks accordingly, are the variant
  // Push-Sum does tolerate — see AsyncStartSchedule.)
  static constexpr FaultTolerance kFaultTolerance = FaultTolerance::kChurn;

  // y(0) = value, z(0) = weight (> 0); x converges to Σ values / Σ weights.
  PushSumAgent(double value, double weight);

  // Outdegree awareness: shares are the state split d ways.
  [[nodiscard]] Message send(int outdegree, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] double y() const { return y_; }
  [[nodiscard]] double z() const { return z_; }
  [[nodiscard]] double output() const { return y_ / z_; }

 private:
  double y_;
  double z_;
};

// Push-Sum share pair: two exact doubles.
template <>
struct wire::MessageTraits<PushSumAgent::Message> {
  using M = PushSumAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_double(m.y_share);
    sink.write_double(m.z_share);
  }

  static M decode(BitReader& src) {
    M m;
    m.y_share = src.read_double();
    m.z_share = src.read_double();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(PushSumAgent);

class FrequencyPushSumAgent {
 public:
  // One value's Push-Sum instance: ω and its weights y[ω], z[ω].
  struct Entry {
    std::int64_t key;
    double y;
    double z;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  // Per-value state, sorted by key (keys strictly increasing). Up to
  // kInlineFrequencyValues entries live inline in the agent.
  using Entries = SmallVector<Entry, kInlineFrequencyValues>;

  struct Message {
    // The sender's outdegree (receivers divide) and a copy of its state.
    // Inline, it is one contiguous block in the executor's outbox, and the
    // send phase allocates nothing.
    int outdegree = 1;
    Entries entries;
  };
  // Delivered by outbox slot: a copy in the arena would move the whole
  // inline block, a few hundred bytes, per delivery.
  static_assert(kDeliveredBySlot<Message>);

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Per-value Push-Sum inherits the 1/d split: outdegree awareness required.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree;
  // Inherits Push-Sum's robustness profile: churn only (see PushSumAgent).
  static constexpr FaultTolerance kFaultTolerance = FaultTolerance::kChurn;

  // `leader_count` empty: Algorithm 1 (z defaults to 1 everywhere).
  // `leader_count` set: the Section 5.5 variant — z defaults to 1 at leaders
  // and 0 elsewhere, and multiplicity(ω) = ℓ · x[ω].
  explicit FrequencyPushSumAgent(std::int64_t input,
                                 std::optional<bool> is_leader = std::nullopt);

  [[nodiscard]] Message send(int outdegree, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] std::int64_t input() const { return input_; }

  // Raw estimates x[ω] = y[ω]/z[ω]; +inf while z[ω] == 0 (leader variant,
  // finitely many rounds).
  [[nodiscard]] std::map<std::int64_t, double> estimates() const;

  // §5.4: estimates normalized to sum to 1 — a bona fide frequency vector
  // even before convergence.
  [[nodiscard]] std::map<std::int64_t, double> normalized_estimates() const;

  // Corollary 5.3: exact-frequency candidate under a known bound N >= n.
  // Returns nullopt while the rounded values don't form a frequency
  // function; eventually stabilizes on ν_v exactly.
  [[nodiscard]] std::optional<Frequency> rounded_frequency(
      std::uint32_t bound_on_n) const;

  // Section 5.5: multiplicity estimates ℓ·x[ω] (leader variant only).
  [[nodiscard]] std::map<std::int64_t, double> multiplicity_estimates(
      std::int64_t leader_count) const;

 private:
  std::int64_t input_;
  double z_default_;  // 1.0, or 0.0 for non-leaders in the leader variant
  Entries state_;
};

// Frequency Push-Sum: count + (delta key, y, z) per entry + outdegree.
template <>
struct wire::MessageTraits<FrequencyPushSumAgent::Message> {
  using M = FrequencyPushSumAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_uvarint(m.entries.size());
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
      write_key(sink, m.entries[i].key, i == 0, prev);
      sink.write_double(m.entries[i].y);
      sink.write_double(m.entries[i].z);
      prev = m.entries[i].key;
    }
    sink.write_svarint(m.outdegree);
  }

  static M decode(BitReader& src) {
    const std::uint64_t count = src.read_count(8 + 2 * kDoubleBits);
    M m;
    m.entries.reserve(count);
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      prev = read_key(src, i == 0, prev);
      const double y = src.read_double();
      const double z = src.read_double();
      m.entries.push_back({prev, y, z});
    }
    m.outdegree = src.read_varint<int>();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(FrequencyPushSumAgent);

}  // namespace anonet
