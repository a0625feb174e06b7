#pragma once

// History-tree frequency computation for dynamic symmetric networks,
// after the approach of Di Luna & Viglietta [25, 26] cited in Section 5.
//
// The paper's Table 2 credits [26] with *exact* computation of
// frequency-based functions in dynamic symmetric networks with no
// centralized help at all — no bound on n, no outdegree awareness — and
// [25] with exact multisets given leaders. The mechanism behind those
// results is the *history tree*: the per-round hierarchy of agent classes
// under view equivalence, which in our codebase is literally the view
// machinery run on the dynamic graph (level-t classes = depth-t views).
//
// What makes symmetric networks special is a per-round double count: all
// members of a level-t class A received the same number c_{A,B'} of round-t
// messages from members of each level-(t-1) class B' (it is part of their
// shared view), and in a bidirectional round graph the directed edge count
// between two agent sets is the same in both directions. Summed over the
// children of two level-(t-1) classes B', D' this yields, for the true
// class cardinalities z:
//     Σ_{C child of B'} c_{C,D'} · z_C  =  Σ_{C child of D'} c_{C,B'} · z_C,
// together with the refinement identities z_{B'} = Σ_{C child of B'} z_C.
// Every agent can read all coefficients off its own view; collecting the
// relations over a window of levels [t0, t1] and solving the homogeneous
// system exactly (linalg/kernel.hpp) recovers the class cardinalities up to
// a common factor — hence the frequency function, with no knowledge of n.
//
// The solve keeps only the deepest level's classes as unknowns. Through
// the parent chain every lower class is the disjoint union of its level-t1
// descendants, so substituting the refinement identities turns each
// double-count row into a small integer row over at most n unknowns (the
// rows with B' = D' vanish: both sums walk the same children with the same
// counts). This is exactly the full (level, class) system:
//   - the refinement rows fix every lower unknown from the level-t1 ones,
//     so the two kernels are isomorphic;
//   - lower entries are integer sums of level-t1 entries, so the gcd and
//     the coprime scaling agree;
//   - positive level-t1 entries force positive lower entries, so the sign
//     checks (and every "no solution") agree.
//
// This module reproduces that mechanism and verifies it experimentally; the
// *guarantees* of [25, 26] (linear-time stabilization, disconnected
// networks) rest on their analysis and are not re-proved here — our agent
// is eventually exact on finite-dynamic-diameter symmetric networks in the
// same empirical sense as the rest of the library, and like DLV's algorithm
// it is not self-stabilizing and uses unbounded state.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/census.hpp"
#include "functions/functions.hpp"
#include "runtime/capabilities.hpp"
#include "runtime/inbox.hpp"
#include "runtime/static_audit.hpp"
#include "support/bigint.hpp"
#include "views/label_codec.hpp"
#include "views/view_registry.hpp"
#include "wire/wire.hpp"

namespace anonet {

// Cardinalities of the deepest window level's classes.
struct HistoryClassSizes {
  std::vector<ViewId> classes;  // ascending ids
  std::vector<BigInt> sizes;    // positive, coprime, up to a common factor
};

// The window solve behind HistoryFrequencyAgent for the agent whose current
// history-tree node is `view`; nullopt while the window is incomplete or
// the relations do not pin a one-dimensional positive solution.
[[nodiscard]] std::optional<HistoryClassSizes> solve_history_window(
    const ViewRegistry& registry, ViewId view);

class HistoryFrequencyAgent {
 public:
  struct Message {
    ViewId view = kInvalidView;
  };

  // Degree-oblivious (simple broadcast sending function), but the whole
  // double-count mechanism rests on bidirectional round graphs — and not
  // just as a schedule promise: the correctness argument quantifies over
  // every round the executor accepts, so the *model* must certify symmetry
  // at delivery time. kNeedsSymmetricModel restricts this agent to
  // CommModel::kSymmetricBroadcast (compile error under any other model);
  // kSymmetricOnly additionally keeps the per-round symmetry check armed.
  // NOT kParallelSafe: agents intern into the shared registry.
  static constexpr bool kParallelSafe = false;
  static constexpr ModelCapabilities kModelCapabilities =
      ModelCapabilities::kSymmetricOnly |
      ModelCapabilities::kNeedsSymmetricModel;

  // All agents of an execution share `registry` and `codec` (interning).
  HistoryFrequencyAgent(std::shared_ptr<ViewRegistry> registry,
                        std::shared_ptr<LabelCodec> codec, std::int64_t input);

  [[nodiscard]] Message send(int /*outdegree*/, int /*port*/) const;
  void receive(Inbox<Message> messages);

  [[nodiscard]] std::int64_t input() const { return input_; }
  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] int rounds_run() const { return rounds_; }

  // The solved window as a census (core/census.hpp): the deepest level's
  // classes with their input values; nullopt while the window is incomplete
  // or the relation system does not yet pin a one-dimensional positive
  // solution. Cached per round.
  [[nodiscard]] const std::optional<ClassCensus>& census() const;

  // ν_v of the census (frequency_from_ratios).
  [[nodiscard]] std::optional<Frequency> frequency_estimate() const;

  // Section 5.5 analogue with leaders: inputs are
  // encode_leader_input()-coded; the leader classes pin the common factor,
  // turning class cardinalities into absolute multiplicities (of decoded
  // values, multiset_with_leaders). `leader_count` = ℓ, known to all.
  [[nodiscard]] std::optional<std::map<std::int64_t, BigInt>>
  multiset_estimate(std::int64_t leader_count) const;

 private:
  std::shared_ptr<ViewRegistry> registry_;
  std::shared_ptr<LabelCodec> codec_;
  std::int64_t input_;
  ViewId view_ = kInvalidView;
  int rounds_ = 0;
  mutable std::optional<ClassCensus> census_;
  mutable int census_round_ = -1;
};

// History-tree view announcement: one interned view reference. A ViewId
// names a registry slot both endpoints can rebuild, not a serialized
// subtree (the §4.2 trick of exchanging O(log V)-bit names for views), so
// the message stays small however deep the view grows; kInvalidView = -1
// zigzags to a single 8-bit group.
template <>
struct wire::MessageTraits<HistoryFrequencyAgent::Message> {
  using M = HistoryFrequencyAgent::Message;

  template <typename Sink>
  static void encode(const M& m, Sink& sink) {
    sink.write_svarint(m.view);
  }

  static M decode(BitReader& src) {
    M m;
    m.view = src.read_varint<ViewId>();
    return m;
  }
};

ANONET_STATIC_AUDIT_DECLARATIONS(HistoryFrequencyAgent);

}  // namespace anonet
