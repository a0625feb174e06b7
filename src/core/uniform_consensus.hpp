#pragma once

// Degree-oblivious average consensus for symmetric networks with a known
// bound N >= n (in the spirit of Charron-Bost & Lambein-Monette [11] and
// Lambein-Monette's thesis [24], cited in Section 5).
//
// The Metropolis weights need the endpoint degrees; in the *simple*
// symmetric-communications model a sender knows nothing about its audience.
// But a bound N on the network size bounds every degree, so the uniform
// step 1/N is safe for everyone:
//     x_i(t) = x_i(t-1) + (1/N) Σ_{j ∈ N_i(t)} (x_j(t-1) - x_i(t-1)).
// The implied weight matrix is symmetric and doubly stochastic with
// diagonal >= 1/N, hence sum-preserving and convergent to the average on
// every connected symmetric round graph — at the price of a much smaller
// spectral gap than Metropolis (the O(n^4)-ish regime the paper mentions;
// bench/metropolis_convergence.cpp measures the contrast, A3).
//
// Messages carry only the state: this is genuinely the simple broadcast
// sending function, so these agents run under CommModel::kSymmetricBroadcast
// with the executor hiding the outdegree.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "functions/functions.hpp"
#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "wire/codecs.hpp"

namespace anonet {

// Scalar version: averages one real value.
class UniformWeightAgent {
 public:
  struct Message {
    double x = 0.0;
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Genuinely degree-oblivious (the whole point), but the 1/N step is only
  // sum-preserving on bidirectional round graphs: symmetric networks only.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kSymmetricOnly;

  // `bound_on_n` is the common knowledge N >= n.
  UniformWeightAgent(double value, std::uint32_t bound_on_n);

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{x_};
  }
  void receive(Inbox<Message> messages);

  [[nodiscard]] double output() const { return x_; }

 private:
  double x_;
  double step_;  // 1/N
};

// Uniform-weight consensus: one exact double.
template <>
struct wire::MessageTraits<UniformWeightAgent::Message> {
  using M = UniformWeightAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_double(m.x);
  }

  static M decode(BitReader& src) {
    M m;
    m.x = src.read_double();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(UniformWeightAgent);

// Per-value indicator version: x[ω] -> ν_v(ω), with the lazy per-value
// joining of Algorithm 1 (both endpoints of a symmetric edge treat a
// missing entry as an exact 0, so the pairwise updates cancel and each
// per-value sum is invariant).
class FrequencyUniformAgent {
 public:
  struct Message {
    std::map<std::int64_t, double> x;
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Same cell as UniformWeightAgent: degree-oblivious, symmetric networks.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kSymmetricOnly;

  FrequencyUniformAgent(std::int64_t input, std::uint32_t bound_on_n);

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{x_};
  }
  void receive(Inbox<Message> messages);

  [[nodiscard]] std::int64_t input() const { return input_; }
  [[nodiscard]] const std::map<std::int64_t, double>& estimates() const {
    return x_;
  }
  // Corollary 5.3-style exact lock under the same bound N.
  [[nodiscard]] std::optional<Frequency> rounded_frequency() const;

 private:
  std::int64_t input_;
  std::uint32_t bound_;
  double step_;
  std::map<std::int64_t, double> x_;
};

// Frequency uniform consensus: count + (delta key, x) per entry.
template <>
struct wire::MessageTraits<FrequencyUniformAgent::Message> {
  using M = FrequencyUniformAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_uvarint(m.x.size());
    std::int64_t prev = 0;
    bool first = true;
    for (const auto& [value, x] : m.x) {
      write_key(sink, value, first, prev);
      sink.write_double(x);
      prev = value;
      first = false;
    }
  }

  static M decode(BitReader& src) {
    const std::uint64_t count = src.read_count(8 + kDoubleBits);
    M m;
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      prev = read_key(src, i == 0, prev);
      m.x.emplace(prev, src.read_double());
    }
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(FrequencyUniformAgent);

}  // namespace anonet
