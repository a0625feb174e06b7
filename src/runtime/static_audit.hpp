#pragma once

// Compile-time agent audit: the declaration side of docs/static_analysis.md.
//
// anonet_lint (tools/anonet_lint/) analyzes *source text*; this header
// mirrors its contract in the type system so the two can cross-check each
// other. Every core agent header invokes
//
//     ANONET_STATIC_AUDIT_DECLARATIONS(TheAgent);
//
// right after the class definition and its wire codec, which static_asserts
// — with named, greppable messages — that the class declares the two
// annotations the runtime dispatches on and that its Message can cross the
// channel:
//
//   - kModelCapabilities (runtime/capabilities.hpp): the machine-checked
//     Table 1 row. Without it, agent_capabilities<A>() silently defaults to
//     kModelPolymorphic and every agent/model pairing check degrades to a
//     no-op — exactly the hole a refactor that renames the member would
//     open. lint rule M1 is the textual twin of this assert.
//
//   - kParallelSafe (runtime/executor.hpp's kParallelSafeAgent concept):
//     whether the executor may fan receive() out across thread-pool blocks.
//     `false` is a perfectly good declaration (HistoryFrequencyAgent and
//     MinBaseAgent intern into a shared registry and say so); *absence* is
//     not, because the concept treats "undeclared" and "false" identically
//     and a typo'd member name would silently serialize every campaign.
//     lint rule C1/P1 are the textual twins.
//
//   - a complete wire::MessageTraits<Message> (wire/wire.hpp's
//     WireEncodable): the canonical format the bandwidth meter and bounded
//     channels measure. Because the macro sits in the agent's own header,
//     an agent whose codec is deleted fails to compile wherever it is
//     included. lint rule W1 is the textual twin, and also flags a core
//     agent header that does not invoke this macro.

#include <concepts>

#include "runtime/capabilities.hpp"
#include "wire/wire.hpp"

namespace anonet {

// kParallelSafe declared explicitly — true or false, but stated. The
// executor's kParallelSafeAgent concept only asks "is it true?"; the audit
// additionally rejects silence.
template <typename A>
concept DeclaresParallelSafety = requires {
  { A::kParallelSafe } -> std::convertible_to<bool>;
};

template <typename A>
[[nodiscard]] constexpr bool audit_declarations() {
  static_assert(DeclaresModelCapabilities<A>,
                "static audit: agent must declare `static constexpr "
                "ModelCapabilities kModelCapabilities` (its Table 1 row) — "
                "without it agent_capabilities<A>() defaults to "
                "kModelPolymorphic and the agent/model pairing checks of "
                "runtime/capabilities.hpp are silently disabled");
  static_assert(DeclaresParallelSafety<A>,
                "static audit: agent must declare `static constexpr bool "
                "kParallelSafe` explicitly (true or false) — the executor "
                "treats an undeclared agent as unsafe, so a renamed or "
                "missing member serializes every campaign without any "
                "diagnostic");
  static_assert(wire::WireEncodable<typename A::Message>,
                "static audit: agent's Message has no complete "
                "MessageTraits specialization (encode, decode) — every "
                "message that can cross the channel needs a canonical wire "
                "format beside the agent, or bandwidth metering and bounded "
                "channels silently lie");
  return true;
}

}  // namespace anonet

// Invoked at namespace scope in the agent's own header, after the class and
// its MessageTraits specialization, so the audit fires wherever the class
// is visible.
#define ANONET_STATIC_AUDIT_DECLARATIONS(Agent)                         \
  static_assert(::anonet::audit_declarations<Agent>(),                  \
                "static audit failed for " #Agent)
