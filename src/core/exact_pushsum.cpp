#include "core/exact_pushsum.hpp"

#include <stdexcept>

namespace anonet {

ExactPushSumAgent::ExactPushSumAgent(Rational value, Rational weight)
    : y_(std::move(value)), z_(std::move(weight)) {
  if (z_.signum() <= 0) {
    throw std::invalid_argument("ExactPushSumAgent: weight must be positive");
  }
}

ExactPushSumAgent::Message ExactPushSumAgent::send(int outdegree,
                                                   int /*port*/) const {
  if (outdegree <= 0) {
    throw std::logic_error("ExactPushSumAgent: requires outdegree awareness");
  }
  const Rational divisor(outdegree);
  return Message{y_ / divisor, z_ / divisor};
}

void ExactPushSumAgent::receive(Inbox<Message> messages) {
  Rational y, z;
  for (const Message& m : messages) {
    y += m.y_share;
    z += m.z_share;
  }
  y_ = std::move(y);
  z_ = std::move(z);
}

}  // namespace anonet
