// MUST NOT COMPILE. An agent registered with the static audit but silent
// about parallel safety: audit_declarations() fires its named static_assert
// ("agent must declare ... kParallelSafe explicitly"). Silence is the
// dangerous state — the executor's kParallelSafeAgent concept treats an
// undeclared agent exactly like a kParallelSafe = false one, so a renamed
// member would serialize every campaign without any diagnostic. The audit
// turns that silence into this compile error.

#include <cstdint>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"

namespace {

class SilentAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  // kParallelSafe deliberately missing (neither true nor false).
  static constexpr anonet::ModelCapabilities kModelCapabilities =
      anonet::ModelCapabilities::kNone;

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

// A complete codec, so the missing kParallelSafe is the drill's only fault.
template <>
struct anonet::wire::MessageTraits<SilentAgent::Message> {
  template <typename Sink>
  static void encode(const SilentAgent::Message& m, Sink& sink) {
    sink.write_svarint(m.value);
  }
  static SilentAgent::Message decode(BitReader& src) {
    return {src.read_svarint()};
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(SilentAgent);

int main() { return 0; }
