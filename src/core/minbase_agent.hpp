#pragma once

// Distributed minimum-base construction (Section 3.2, after Boldi & Vigna).
//
// Each round, an agent broadcasts its current view and rebuilds a one-level
// deeper view from the views it receives; from its own view it extracts a
// minimum-base candidate B(T_t) (views/base_extraction.hpp). In a static
// strongly connected network of n agents and diameter D, the candidate is
// guaranteed to *be* the minimum base — of the valued graph matching the
// communication model — from round n + 2D onwards (the paper's refined
// extraction achieves n + D; ours trades that D for a self-stabilizing
// window, see views/base_extraction.cpp):
//   - simple broadcast / symmetric: vertices labeled with input values;
//   - outdegree awareness: labels are (value, outdegree) pairs, the G_{v,d}
//     double valuation of Section 4.2;
//   - output port awareness: values as labels plus port-colored view edges.
// The algorithm is self-stabilizing: a corrupted view only pollutes the
// deepest layers of the growing view, and the extraction only looks at
// recent layers, so any initial state is flushed once enough fresh rounds
// have run. Agents
// never halt (the paper's computability notion has no termination); the
// candidate is the agent's output variable.

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/comm_model.hpp"
#include "runtime/static_audit.hpp"
#include "views/base_extraction.hpp"
#include "views/label_codec.hpp"
#include "views/view_registry.hpp"
#include "wire/wire.hpp"

namespace anonet {

class MinBaseAgent {
 public:
  struct Message {
    ViewId view = kInvalidView;
    // Output port the message left through (0 for isotropic models); becomes
    // the edge color of the corresponding child in the receiver's view.
    int port = 0;
  };

  // Adapts to whatever the model provides: views are labeled with values,
  // (value, outdegree) pairs, or port-colored edges depending on the
  // CommModel handed to the constructor (Section 3.2), so every pairing is
  // legitimate. NOT kParallelSafe: agents intern into the shared registry.
  static constexpr bool kParallelSafe = false;
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kModelPolymorphic;

  // All agents of an execution share `registry` and `codec` (see the
  // interning rationale in views/view_registry.hpp).
  //
  // `max_view_depth` > 0 selects the *finite-state* variant the paper
  // mentions at the end of Section 3.2: the view is truncated to its most
  // recent `max_view_depth` layers after every round, bounding the state
  // space at the price of a window large enough to stabilize — any
  // max_view_depth >= n + 2D works (their refined version loses only
  // O(D log D) rounds; ours simply needs the window to contain the
  // extraction horizon). 0 keeps the unbounded view.
  MinBaseAgent(std::shared_ptr<ViewRegistry> registry,
               std::shared_ptr<LabelCodec> codec, std::int64_t input,
               CommModel model, int max_view_depth = 0);

  [[nodiscard]] Message send(int outdegree, int port) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] std::int64_t input() const { return input_; }
  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] int rounds_run() const { return rounds_; }

  // The candidate extracted from the current view (computed lazily and
  // cached per round). `plausible` is false until enough structure has been
  // seen.
  [[nodiscard]] const ExtractedBase& candidate() const;

  // Self-stabilization fault injection: replaces the state by an arbitrary
  // (possibly nonsensical) view. Used by tests.
  void corrupt(ViewId garbage_view);

 private:
  [[nodiscard]] int own_label() const;

  std::shared_ptr<ViewRegistry> registry_;
  std::shared_ptr<LabelCodec> codec_;
  std::int64_t input_;
  CommModel model_;
  int max_view_depth_ = 0;  // 0 = unbounded
  // Outdegree reported by the model at the latest send; -1 before the first
  // send. In the outdegree-aware model this value is part of the agent's own
  // vertex label (the model hands it to the sending function, Section 2.2).
  mutable int observed_outdegree_ = -1;
  ViewId view_ = kInvalidView;
  int rounds_ = 0;
  mutable ExtractedBase candidate_;
  mutable int candidate_round_ = -1;
};

// Minimum-base view reference (interned, as for HistoryFrequencyAgent) +
// output port.
template <>
struct wire::MessageTraits<MinBaseAgent::Message> {
  using M = MinBaseAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_svarint(m.view);
    sink.write_svarint(m.port);
  }

  static M decode(BitReader& src) {
    M m;
    m.view = src.read_varint<ViewId>();
    m.port = src.read_varint<int>();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(MinBaseAgent);

}  // namespace anonet
