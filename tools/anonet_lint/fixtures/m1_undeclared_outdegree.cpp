// Negative fixture — anonet_lint MUST flag this file under rule M1.
//
// The agent consumes its outdegree parameter (a 1/d mass split, Push-Sum
// style) but declares no ModelCapabilities at all. Under kSimpleBroadcast
// the executor hands send() an outdegree of 0 — the division silently
// produces inf/nan and the "algorithm" computes garbage while appearing to
// run under a model where Theorem 4.1 says frequency computation is
// impossible. The missing annotation is exactly what M1 exists to catch.

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

class StealthOutdegreeAgent {
 public:
  struct Message {
    double y_share = 0.0;
  };

  explicit StealthOutdegreeAgent(double value) : y_(value) {}

  // M1: names (and uses) `outdegree` without declaring kNeedsOutdegree.
  [[nodiscard]] Message send(int outdegree, int /*port*/) const {
    return Message{y_ / outdegree};
  }

  void receive(anonet::Inbox<Message> messages) {
    y_ = 0.0;
    for (const Message& m : messages) y_ += m.y_share;
  }

 private:
  double y_;
};

}  // namespace anonet_fixtures
