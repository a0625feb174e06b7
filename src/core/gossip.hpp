#pragma once

// The simple gossip (flooding) algorithm: the positive half of the
// simple-broadcast row of Tables 1 and 2.
//
// Each agent maintains the set of input values it has heard of and
// broadcasts it every round. After D rounds (D the [dynamic] diameter) every
// agent knows the full support of the input vector, hence can compute any
// set-based function in finite time — under any communication model, static
// or dynamic, with or without knowledge of n. This is also the strongest
// possible algorithm for simple broadcast: Hendrickx & Tsitsiklis (and Boldi
// & Vigna for known n) show nothing beyond set-based functions is
// computable there, which bench/lifting_obstruction demonstrates
// executably.

#include <cstdint>
#include <set>
#include <vector>

#include "functions/functions.hpp"
#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "wire/codecs.hpp"

namespace anonet {

class SetGossipAgent {
 public:
  struct Message {
    std::vector<std::int64_t> values;  // sorted known-set snapshot
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // The sending function is a pure function of the state — the simple
  // broadcast cell of Table 1, hence runnable under every model.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNone;
  // Flooding a monotone set union is idempotent: late wake-ups, lost
  // copies and temporary absences only delay dissemination, they never
  // corrupt it. Crash-stop is fatal — a crashed agent's known-set (and
  // hence its output) freezes, and its value may never have been sent.
  static constexpr FaultTolerance kFaultTolerance =
      FaultTolerance::kAsyncStart | FaultTolerance::kMessageDrop |
      FaultTolerance::kChurn;

  explicit SetGossipAgent(std::int64_t input) : input_(input) {
    known_.insert(input);
  }

  // Simple broadcast: the message depends on the state alone.
  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{{known_.begin(), known_.end()}};
  }

  void receive(Inbox<Message> messages) {
    for (const Message& m : messages) {
      known_.insert(m.values.begin(), m.values.end());
    }
  }

  [[nodiscard]] std::int64_t input() const { return input_; }
  [[nodiscard]] const std::set<std::int64_t>& known() const { return known_; }

  // Output variable: f applied to the currently known support (one
  // representative per value). Stabilizes on f(v) for set-based f.
  [[nodiscard]] Rational output(const SymmetricFunction& f) const {
    const std::vector<std::int64_t> support(known_.begin(), known_.end());
    return f(support);
  }

 private:
  std::int64_t input_;
  std::set<std::int64_t> known_;
};

// Known-set snapshot: count + delta-coded sorted values (wire/codecs.hpp).
template <>
struct wire::MessageTraits<SetGossipAgent::Message> {
  using M = SetGossipAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_uvarint(m.values.size());
    std::int64_t prev = 0;
    bool first = true;
    for (const std::int64_t v : m.values) {
      write_key(sink, v, first, prev);
      prev = v;
      first = false;
    }
  }

  static M decode(BitReader& src) {
    // Every value costs at least one 8-bit varint group; the clamped count
    // read makes a corrupt count a DecodeError, not a giant reserve().
    const std::uint64_t count = src.read_count(8);
    M m;
    m.values.reserve(count);
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      prev = read_key(src, i == 0, prev);
      m.values.push_back(prev);
    }
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(SetGossipAgent);

}  // namespace anonet
