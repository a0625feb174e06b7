// Negative fixture — anonet_lint MUST flag this file under rule A1.
//
// The agent smuggles its executor vertex index into its state and messages.
// Anonymity is the paper's ground rule (Section 2.1): agents are identical
// deterministic automata, and an algorithm that reads a vertex id is
// solving a different — much easier — problem (it gets leader election for
// free). Nothing in the Executor API hands an agent its index; this fixture
// models the contributor who plumbs it through a constructor anyway.

#include <cstdint>
#include "runtime/inbox.hpp"

namespace anonet_fixtures {

using Vertex = std::int32_t;

class IdentityLeakAgent {
 public:
  struct Message {
    std::int64_t value = 0;
  };

  IdentityLeakAgent(std::int64_t input, Vertex vertex_id)  // A1: vertex index
      : value_(input), self_(vertex_id) {}

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    // A1: branching on the executor index breaks anonymity — vertex 0
    // elects itself leader, which no anonymous algorithm can do.
    if (self_ == 0) return Message{-1};
    return Message{value_};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) {
      if (m.value < value_) value_ = m.value;
    }
  }

 private:
  std::int64_t value_;
  Vertex self_;  // A1: stored executor identity
};

}  // namespace anonet_fixtures
