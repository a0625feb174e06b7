// Negative fixture — anonet_lint MUST flag this file under rule W1.
//
// A MessageTraits specialization, written beside the agent the way core
// agent headers write theirs (`struct wire::MessageTraits<...>`), that
// defines encode but NOT decode: a half-implemented codec passes "is there
// a specialization?" checks while still breaking the round-trip property
// the wire layer depends on. W1 requires both members, and names the
// missing one.

#include <cstdint>
#include <vector>

namespace anonet_fixtures {

class HalfCodecAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  static constexpr bool kParallelSafe = true;

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_};
  }

  void receive(const std::vector<Message>& messages) {
    for (const Message& m : messages) value_ += m.value;
  }

 private:
  std::int64_t value_ = 0;
};

namespace wire {

template <typename M>
struct MessageTraits;  // primary template: never defined

}  // namespace wire

template <>
struct wire::MessageTraits<HalfCodecAgent::Message> {
  template <typename Sink>
  static void encode(const HalfCodecAgent::Message& m, Sink& sink) {
    sink.write_svarint(m.value);
  }

  // decode() is missing: the round trip cannot be completed.
};

}  // namespace anonet_fixtures
