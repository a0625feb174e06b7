#pragma once

// Hash-consed Boldi–Vigna view trees (Section 3.2).
//
// The depth-t view of an agent is a tree: the root carries the agent's label,
// and its children are the depth-(t-1) views of its in-neighbors, each child
// edge carrying the color (output port) of the connecting edge when the
// model provides one. Views grow exponentially as explicit trees, so the
// simulator interns them: structurally equal views share one id, making
// equality O(1) and messages constant-size. Interning is a *bandwidth*
// optimization only — agents can compute nothing from an id beyond what the
// tree itself conveys, so computability results are unaffected (see
// DESIGN.md, substitution table).

#include <any>
#include <cstdint>
#include <map>
#include <vector>

namespace anonet {

using ViewId = std::int32_t;
inline constexpr ViewId kInvalidView = -1;

class ViewRegistry {
 public:
  // A child is a sub-view plus the color of the edge it was received on.
  using ChildList = std::vector<std::pair<ViewId, std::int32_t>>;

  // Depth-0 view: a bare vertex label.
  ViewId leaf(int label);

  // View with children of uniform depth d; the result has depth d + 1.
  // Children are sorted internally (a view's children form a multiset).
  // Throws std::invalid_argument on mixed child depths.
  ViewId node(int label, ChildList children);

  [[nodiscard]] int label(ViewId id) const;
  [[nodiscard]] int depth(ViewId id) const;
  [[nodiscard]] const ChildList& children(ViewId id) const;

  // The view truncated to depth `h` (identity when depth(id) <= h).
  // Memoized per node; truncation commutes with the view construction,
  // i.e. truncate(V_t(v), h) == V_h(v).
  ViewId truncate(ViewId id, int h);

  // All distinct sub-views of `id`, including `id` itself.
  [[nodiscard]] std::vector<ViewId> subviews(ViewId id) const;

  // Number of nodes of the *unfolded* tree (children counted with
  // multiplicity) — the size a non-interned message would have. Grows
  // exponentially with depth, which is exactly why the simulator interns
  // and why the paper cares about finite-state variants; returned as a
  // double since it overflows integers fast. Memoized per node.
  [[nodiscard]] double tree_size(ViewId id) const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  // A memo slot for a result computed from interned nodes alone, keyed by
  // lists of ids; empty until the caller stores a value of its own type
  // there (core/history_tree.cpp keys its window solve on the window's
  // ascending class lists). Exact because interned nodes never change;
  // held per registry, never in static state, because ids are
  // registry-local.
  using MemoKey = std::vector<std::vector<ViewId>>;
  [[nodiscard]] std::any& memo(const MemoKey& key) const;

 private:
  // An interned view plus its lazily filled memos. Both are exact: the
  // fields above never change once interned.
  struct Node {
    int label = 0;
    int depth = 0;
    ChildList children;
    // truncations[h] = truncate(id, h) for h < depth; kInvalidView until
    // computed.
    std::vector<ViewId> truncations = {};
    mutable double tree_size = 0.0;  // 0 until computed (sizes are >= 1)
  };

  ViewId intern(Node node);

  std::vector<Node> nodes_;
  std::map<std::tuple<int, int, ChildList>, ViewId> interned_;
  mutable std::map<MemoKey, std::any> memo_;
};

}  // namespace anonet
