// Negative fixture — anonet_lint MUST flag this file under rule P1.
//
// The agent declares kParallelSafe — inviting the executor to run its round
// hooks from several workers — while mutating function-local static state
// and a non-constant static data member, and holding a shared_ptr to a
// registry that every sibling touches. This is the exact bug class the
// PR 1 review fixed by hand in the thread pool; P1 makes it a lint finding
// instead of a TSan session.

#include <cstdint>
#include <memory>
#include <vector>
#include "runtime/inbox.hpp"

namespace anonet_fixtures {

struct SharedTally {
  std::int64_t total = 0;
};

class RacyCounterAgent {
 public:
  struct Message {
    std::int64_t value = 0;
  };

  // The lie under test: parallel-safe declaration over shared state.
  static constexpr bool kParallelSafe = true;

  // P1: non-constant static data member — one counter shared by all agents.
  static std::int64_t rounds_observed;

  explicit RacyCounterAgent(std::shared_ptr<SharedTally> tally)
      : tally_(std::move(tally)) {}

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    static std::int64_t sends = 0;  // P1: static local in a round hook
    ++sends;
    return Message{sends};
  }

  void receive(anonet::Inbox<Message> messages) {
    ++rounds_observed;
    for (const Message& m : messages) {
      tally_->total += m.value;  // racing write through the shared pointer
    }
  }

 private:
  std::shared_ptr<SharedTally> tally_;  // P1: shared state in a kParallelSafe agent
};

std::int64_t RacyCounterAgent::rounds_observed = 0;

}  // namespace anonet_fixtures
