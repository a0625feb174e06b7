#pragma once

// Exact-arithmetic Push-Sum.
//
// The Push-Sum update is linear with rational coefficients 1/d, so the
// entire execution can be carried in exact rationals: Σy and Σz are then
// *identically* invariant (not up to float roundoff), and the iterates are
// the true mathematical trajectory of Theorem 5.2. Denominators grow like
// (max degree)^t, which BigInt absorbs comfortably at test scale; the
// double-based PushSumAgent remains the workhorse, and tests cross-validate
// it against this agent trajectory-by-trajectory.

#include <vector>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "support/rational.hpp"
#include "wire/wire.hpp"

namespace anonet {

class ExactPushSumAgent {
 public:
  struct Message {
    Rational y_share;
    Rational z_share;
  };

  // All state is per-agent: safe under the executor's thread-parallel phases.
  static constexpr bool kParallelSafe = true;
  // Same 1/d rational mass split as PushSumAgent: outdegree awareness.
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kNeedsOutdegree;

  // z(0) must be positive; x = y/z converges to Σvalues / Σweights.
  ExactPushSumAgent(Rational value, Rational weight);

  [[nodiscard]] Message send(int outdegree, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] const Rational& y() const { return y_; }
  [[nodiscard]] const Rational& z() const { return z_; }
  [[nodiscard]] Rational output() const { return y_ / z_; }

 private:
  Rational y_;
  Rational z_;
};

// Exact Push-Sum: two arbitrary-precision rationals, each numerator then
// denominator as sign + length + magnitude. The only unbounded per-entry
// payload in the suite — its measured growth round over round is the
// paper's "infinite bandwidth" made visible.
template <>
struct wire::MessageTraits<ExactPushSumAgent::Message> {
  using M = ExactPushSumAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_rational(m.y_share);
    sink.write_rational(m.z_share);
  }

  static M decode(BitReader& src) {
    M m;
    m.y_share = src.read_rational();
    m.z_share = src.read_rational();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(ExactPushSumAgent);

}  // namespace anonet
