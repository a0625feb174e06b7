// Negative fixture — anonet_lint MUST flag this file under rule M1.
//
// Positional outdegree use laundered through a helper: the in-class send()
// declaration leaves both parameters unnamed (clean under the plain
// parameter-name heuristic), the out-of-line *template* definition renames
// the outdegree to `fanout` and forwards it into weight_for(), and the class
// never declares ModelCapabilities::kNeedsOutdegree. Renaming and forwarding
// does not change what the sending function observes — under simple
// broadcast the executor passes outdegree 0 and the division is garbage.
// M1 must see through both layers: the template-qualified out-of-line
// definition (`LaunderingAgent<T>::send`) and the helper call.

#include "runtime/inbox.hpp"

namespace anonet_fixtures {

template <typename T>
class LaunderingAgent {
 public:
  struct Message {
    T share{};
  };

  explicit LaunderingAgent(T value) : state_(value) {}

  // Declaration: parameters deliberately unnamed, so the naive check passes.
  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const;

  void receive(anonet::Inbox<Message> messages) {
    state_ = T{};
    for (const Message& m : messages) state_ += m.share;
  }

  [[nodiscard]] T output() const { return state_; }

 private:
  // The helper that actually consumes the audience size.
  [[nodiscard]] Message weight_for(int fanout) const {
    return Message{state_ / static_cast<T>(fanout + 1)};
  }

  T state_{};
};

// M1: the definition renames the outdegree parameter and forwards it.
template <typename T>
typename LaunderingAgent<T>::Message LaunderingAgent<T>::send(
    int fanout, int /*port*/) const {
  return weight_for(fanout);
}

}  // namespace anonet_fixtures
