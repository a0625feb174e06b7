// Negative fixture — anonet_lint MUST flag this file under rule M1.
//
// The agent declares kNeedsOutdegree — so the outdegree use is fine — but
// its send() also names and uses the port parameter, addressing recipients
// individually. That is output-port awareness (the strongest row of
// Table 1) smuggled in under a weaker declaration: under any isotropic
// model the executor passes port 0 and the per-recipient branches are dead,
// masking the dependency until someone runs the agent under
// kOutputPortAware and gets different semantics.

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"


namespace anonet_fixtures {

class CovertPortAgent {
 public:
  struct Message {
    double share = 0.0;
  };

  // Declares the outdegree dependency only: the port use below is the lie.
  static constexpr anonet::ModelCapabilities kModelCapabilities =
      anonet::ModelCapabilities::kNeedsOutdegree;

  explicit CovertPortAgent(double value) : y_(value) {}

  // M1: names `port` without declaring kNeedsOutputPorts.
  [[nodiscard]] Message send(int outdegree, int port) const {
    // First port gets the whole mass, the rest get nothing: genuinely
    // non-isotropic behavior.
    if (port <= 1) return Message{y_};
    return Message{0.0 * outdegree};
  }

  void receive(anonet::Inbox<Message> messages) {
    y_ = 0.0;
    for (const Message& m : messages) y_ += m.share;
  }

 private:
  double y_;
};

}  // namespace anonet_fixtures
