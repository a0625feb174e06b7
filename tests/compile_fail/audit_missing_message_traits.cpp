// MUST NOT COMPILE. A fully annotated agent whose Message has no
// MessageTraits specialization, pushed through the wire half of the static
// audit (the check src/runtime/static_audit.cpp runs for every entry of
// ANONET_CORE_AGENT_LIST): wire::WireEncodable fails and the named
// static_assert ("no complete MessageTraits specialization") fires. Delete
// any codec from wire/codecs.hpp and the library itself dies the same way.

#include <cstdint>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "wire/codecs.hpp"

namespace {

class CodeclessAgent {
 public:
  struct Message {
    std::int64_t value;
  };

  static constexpr bool kParallelSafe = true;
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

// The same obligation static_audit.cpp imposes on every registered agent —
// spelled directly so this TU does not need to re-expand the X-macro list.
template <typename A>
constexpr bool audit_wire() {
  static_assert(anonet::wire::WireEncodable<typename A::Message>,
                "no complete MessageTraits specialization for this Message");
  return true;
}

static_assert(audit_wire<CodeclessAgent>(),
              "wire audit failed for CodeclessAgent");

}  // namespace

int main() { return 0; }
