// MUST NOT COMPILE. A fully annotated agent whose Message has no
// MessageTraits specialization, run through the library's static audit:
// wire::WireEncodable fails and audit_declarations() fires its named
// static_assert ("has no complete MessageTraits specialization"). Delete
// the codec beside any core agent and its header dies the same way.

#include <cstdint>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"

namespace {

class CodelessAgent {
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

ANONET_STATIC_AUDIT_DECLARATIONS(CodelessAgent);

}  // namespace

int main() { return 0; }
