#include "core/history_tree.hpp"

#include <algorithm>
#include <any>
#include <map>
#include <set>
#include <stdexcept>

#include "linalg/kernel.hpp"
#include "linalg/matrix.hpp"

namespace anonet {

HistoryFrequencyAgent::HistoryFrequencyAgent(
    std::shared_ptr<ViewRegistry> registry, std::shared_ptr<LabelCodec> codec,
    std::int64_t input)
    : registry_(std::move(registry)),
      codec_(std::move(codec)),
      input_(input) {
  if (registry_ == nullptr || codec_ == nullptr) {
    throw std::invalid_argument("HistoryFrequencyAgent: null registry/codec");
  }
}

HistoryFrequencyAgent::Message HistoryFrequencyAgent::send(int /*outdegree*/,
                                                           int /*port*/) const {
  const ViewId current = view_ == kInvalidView
                             ? registry_->leaf(codec_->value_label(input_))
                             : view_;
  return Message{current};
}

void HistoryFrequencyAgent::receive(Inbox<Message> messages) {
  if (messages.empty()) {
    throw std::logic_error("HistoryFrequencyAgent: missing self-loop?");
  }
  // History-tree node: the agent's own previous view in a distinguished
  // slot (color 1: the parent chain of the history tree, which DLV's agents
  // carry explicitly) plus the received multiset (color 0: one entry per
  // round-t in-edge, self-loop included). Unlike the static view agent
  // there is no truncation: levels are anchored at round 1, so a node of
  // depth k *is* some agent's genuine round-k view.
  const ViewId previous = view_ == kInvalidView
                              ? registry_->leaf(codec_->value_label(input_))
                              : view_;
  ViewRegistry::ChildList children;
  children.reserve(messages.size() + 1);
  children.emplace_back(previous, 1);
  for (const Message& m : messages) {
    children.emplace_back(m.view, 0);
  }
  view_ = registry_->node(codec_->value_label(input_), std::move(children));
  ++rounds_;
}

namespace {

// The distinguished own-predecessor child (color 1).
ViewId parent_class(const ViewRegistry& registry, ViewId node) {
  for (const auto& [child, color] : registry.children(node)) {
    if (color == 1) return child;
  }
  throw std::logic_error("HistoryFrequencyAgent: node without parent chain");
}

// Index of `id` in its level's ascending class list.
std::size_t position(const std::vector<ViewId>& level, ViewId id) {
  const auto it = std::lower_bound(level.begin(), level.end(), id);
  if (it == level.end() || *it != id) {
    throw std::logic_error("HistoryFrequencyAgent: class outside its level");
  }
  return static_cast<std::size_t>(it - level.begin());
}

// The solve proper over the window's ascending class lists, lowest level
// first. It reads nothing but `levels` and the interned nodes they name.
std::optional<HistoryClassSizes> solve_levels(
    const ViewRegistry& registry,
    const std::vector<std::vector<ViewId>>& levels) {
  // The unknowns are the deepest level's classes. Walking down the window,
  // `below[b]` collects the 0/1 indicator of class b's deepest
  // descendants, and each double-count row is accumulated over the same
  // unknowns: child C of B with c_{C,D} in-edges from D adds c_{C,D} times
  // C's descendant indicator to the row of the pair {B, D}.
  const std::vector<ViewId>& deepest = levels.back();
  const std::size_t m = deepest.size();
  std::vector<std::vector<std::int64_t>> upper(
      m, std::vector<std::int64_t>(m, 0));
  for (std::size_t i = 0; i < m; ++i) upper[i][i] = 1;
  std::set<std::vector<std::int64_t>> rows;
  for (std::size_t k = levels.size() - 1; k > 0; --k) {
    const std::vector<ViewId>& classes = levels[k];
    const std::vector<ViewId>& lower = levels[k - 1];
    std::vector<std::vector<std::int64_t>> below(
        lower.size(), std::vector<std::int64_t>(m, 0));
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::int64_t>>
        pair_rows;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      const std::vector<std::int64_t>& z = upper[c];
      const std::size_t b = position(lower, parent_class(registry, classes[c]));
      for (std::size_t j = 0; j < m; ++j) below[b][j] += z[j];
      for (const auto& [from, color] : registry.children(classes[c])) {
        if (color != 0) continue;
        const std::size_t d = position(lower, from);
        if (d == b) continue;  // the b == d row is identically zero
        std::vector<std::int64_t>& row =
            pair_rows[{std::min(b, d), std::max(b, d)}];
        row.resize(m, 0);
        const std::int64_t sign = b < d ? 1 : -1;
        for (std::size_t j = 0; j < m; ++j) row[j] += sign * z[j];
      }
    }
    for (const std::vector<std::int64_t>& z : below) {
      if (std::find(z.begin(), z.end(), 1) == z.end()) {
        return std::nullopt;  // a class without children: incomplete window
      }
    }
    for (auto& [key, row] : pair_rows) rows.insert(std::move(row));
    upper = std::move(below);
  }
  // Each distinct relation once; a zero row (the pair's sums cancel after
  // substitution) relates nothing.
  rows.erase(std::vector<std::int64_t>(m, 0));

  RationalMatrix system(rows.size(), m);
  std::size_t r = 0;
  for (const std::vector<std::int64_t>& row : rows) {
    for (std::size_t j = 0; j < m; ++j) system.at(r, j) = Rational(row[j]);
    ++r;
  }
  auto kernel = positive_coprime_kernel_vector(system);
  if (!kernel.has_value()) return std::nullopt;
  return HistoryClassSizes{deepest, std::move(*kernel)};
}

}  // namespace

std::optional<HistoryClassSizes> solve_history_window(
    const ViewRegistry& registry, ViewId view) {
  if (view == kInvalidView) return std::nullopt;

  // Window of levels [t0, t1]: deep enough that the class sets are complete
  // (an agent sees every level-k class once k <= t - D), long enough to
  // carry the refinement relations. D is unknown; t/2 becomes valid once
  // t >= 2D, which the eventual-correctness contract absorbs.
  const int t = registry.depth(view);
  const int t1 = t / 2;
  // The length cap is a coordinate of the recorded verdicts, not a cost
  // bound: the window decides when the relations first pin the classes, so
  // changing it can move every history cell's stabilization round.
  constexpr int kMaxWindowLevels = 12;
  const int t0 = std::max(t / 4, t1 - kMaxWindowLevels);
  if (t1 - t0 < 1) return std::nullopt;

  // Class sets per level: every embedded sub-view of depth k is some
  // agent's genuine round-k view (level-k history-tree node).
  std::vector<std::vector<ViewId>> levels(
      static_cast<std::size_t>(t1 - t0 + 1));
  for (ViewId s : registry.subviews(view)) {
    const int k = registry.depth(s);
    if (k >= t0 && k <= t1) {
      levels[static_cast<std::size_t>(k - t0)].push_back(s);
    }
  }
  for (std::vector<ViewId>& level : levels) {
    std::sort(level.begin(), level.end());
  }

  // Once the window's levels are complete every agent holds the same
  // lists, and an agent's window often repeats from the previous round:
  // solve each distinct window once per registry.
  std::any& solved = registry.memo(levels);
  if (!solved.has_value()) solved = solve_levels(registry, levels);
  return std::any_cast<const std::optional<HistoryClassSizes>&>(solved);
}

const std::optional<ClassCensus>& HistoryFrequencyAgent::census() const {
  if (census_round_ != rounds_) {
    census_round_ = rounds_;
    census_.reset();
    auto solution = solve_history_window(*registry_, view_);
    if (solution.has_value()) {
      census_.emplace();
      for (ViewId c : solution->classes) {
        census_->values.push_back(codec_->value_of(registry_->label(c)));
      }
      census_->sizes = std::move(solution->sizes);
    }
  }
  return census_;
}

std::optional<Frequency> HistoryFrequencyAgent::frequency_estimate() const {
  const auto& solved = census();
  if (!solved.has_value()) return std::nullopt;
  return frequency_from_ratios(solved->values, solved->sizes);
}

std::optional<std::map<std::int64_t, BigInt>>
HistoryFrequencyAgent::multiset_estimate(std::int64_t leader_count) const {
  if (leader_count <= 0) {
    throw std::invalid_argument("multiset_estimate: need >= 1 leader");
  }
  const auto& solved = census();
  if (!solved.has_value()) return std::nullopt;
  return multiset_with_leaders(*solved, leader_count);
}

}  // namespace anonet
