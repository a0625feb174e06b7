// Negative fixture — anonet_lint MUST flag this file under rule W1.
//
// The raw-payload escape: PayloadAgent has a COMPLETE MessageTraits codec,
// yet pack_payload_frame() smuggles its Message across a byte boundary
// with std::memcpy — the bits on the wire are whatever the ABI says, not
// what the codec (and the bandwidth meter) says. That statement is the one
// W1 finding here. The two legitimate neighbors stay silent: the transport
// *control* frame (HelloFrame, not an agent message) may be packed by
// hand, and the MessageTraits-routed encode path is the sanctioned way for
// the same Message to reach bytes.

#include <cstdint>
#include <cstring>
#include <vector>

namespace anonet_fixtures {

namespace wire {

template <typename M>
struct MessageTraits;  // primary template: never defined

struct BitWriter {
  void write_svarint(std::int64_t) {}
};
struct BitReader {
  [[nodiscard]] std::int64_t read_svarint() { return 0; }
};

}  // namespace wire

class PayloadAgent {
 public:
  struct Message {
    std::int64_t value;
    std::int64_t round;
  };

  static constexpr bool kParallelSafe = true;

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_, round_};
  }

  void receive(const std::vector<Message>& messages) {
    for (const Message& m : messages) value_ += m.value;
    ++round_;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t round_ = 0;
};

namespace wire {

template <>
struct MessageTraits<PayloadAgent::Message> {
  template <typename Sink>
  static void encode(const PayloadAgent::Message& m, Sink& sink) {
    sink.write_svarint(m.value);
    sink.write_svarint(m.round);
  }

  [[nodiscard]] static PayloadAgent::Message decode(BitReader& src) {
    PayloadAgent::Message m{};
    m.value = src.read_svarint();
    m.round = src.read_svarint();
    return m;
  }
};

}  // namespace wire

// A transport control frame: plain protocol plumbing, not an agent
// message. Hand-packing it is allowed — control frames have no
// MessageTraits obligation and no bandwidth-meter semantics.
struct HelloFrame {
  std::uint32_t magic;
  std::uint16_t version;
};

inline void pack_control_frame(const HelloFrame& hello,
                               std::vector<std::uint8_t>& out) {
  out.resize(sizeof(hello));
  std::memcpy(out.data(), &hello, sizeof(hello));  // exempt: control frame
}

// VIOLATION: the agent payload bypasses its codec. The meter charges the
// bits encode() writes; this puts sizeof(Message) ABI bytes on the wire
// instead.
inline void pack_payload_frame(const PayloadAgent::Message& message,
                               std::vector<std::uint8_t>& out) {
  out.resize(sizeof(message));
  std::memcpy(out.data(), &message, sizeof(PayloadAgent::Message));
}

// The sanctioned route for the same message: statements that go through
// the codec are exempt even though they name PayloadAgent::Message.
inline void pack_payload_frame_properly(const PayloadAgent::Message& message,
                                        wire::BitWriter& sink) {
  wire::MessageTraits<PayloadAgent::Message>::encode(message, sink);
}

}  // namespace anonet_fixtures
