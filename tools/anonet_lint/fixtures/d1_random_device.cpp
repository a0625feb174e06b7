// Negative fixture — anonet_lint MUST flag this file under rule D1.
//
// The agent seeds per-round behavior from std::random_device and the global
// rand() pool: two runs with identical (inputs, schedule, seed) diverge,
// breaking the engine's bitwise-determinism guarantee (the counter-keyed
// RNG exists precisely so no agent ever needs this).

#include <cstdlib>
#include <random>
#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class NoisyGossipAgent {
 public:
  struct Message {
    long value = 0;
  };

  static constexpr bool kParallelSafe = true;

  explicit NoisyGossipAgent(long input) : value_(input) {}

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    std::random_device entropy;  // D1: nondeterministic source
    return Message{value_ ^ static_cast<long>(entropy())};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) {
      if (rand() % 2 == 0) {  // D1: hidden-state global RNG
        value_ ^= m.value;
      }
    }
  }

 private:
  long value_;
};

}  // namespace anonet_fixtures
