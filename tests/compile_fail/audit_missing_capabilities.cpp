// MUST NOT COMPILE. An agent registered with the static audit but missing
// the kModelCapabilities declaration: audit_declarations() fires its named
// static_assert ("agent must declare ... kModelCapabilities"). This is the
// deletion drill for the annotation scheme — strip the Table 1 row from any
// core agent and the build dies exactly like this TU does.

#include <cstdint>

#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"

namespace {

class UndeclaredAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  static constexpr bool kParallelSafe = true;
  // kModelCapabilities deliberately missing.

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const {
    return Message{value_};
  }

  void receive(anonet::Inbox<Message> messages) {
    for (const Message& m : messages) value_ += m.value;
  }

 private:
  std::int64_t value_ = 0;
};

}  // namespace

// A complete codec, so the missing kModelCapabilities is the drill's only
// fault.
template <>
struct anonet::wire::MessageTraits<UndeclaredAgent::Message> {
  template <typename Sink>
  static void encode(const UndeclaredAgent::Message& m, Sink& sink) {
    sink.write_svarint(m.value);
  }
  static UndeclaredAgent::Message decode(BitReader& src) {
    return {src.read_svarint()};
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(UndeclaredAgent);

int main() { return 0; }
