#include "core/history_tree.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "core/census.hpp"
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

void HistoryFrequencyAgent::receive(std::span<const Message> messages) {
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

  // The unknowns are the level-t1 classes. Walking down the window,
  // `below[b]` collects the 0/1 indicator of class b's level-t1
  // descendants, and each double-count row is accumulated over the same
  // unknowns: child C of B with c_{C,D} in-edges from D adds c_{C,D} times
  // C's descendant indicator to the row of the pair {B, D}.
  const std::vector<ViewId>& deepest = levels.back();
  const std::size_t m = deepest.size();
  std::vector<std::vector<std::int64_t>> upper(
      m, std::vector<std::int64_t>(m, 0));
  for (std::size_t i = 0; i < m; ++i) upper[i][i] = 1;
  std::set<std::vector<std::int64_t>> rows;
  for (int k = t1; k > t0; --k) {
    const std::vector<ViewId>& classes =
        levels[static_cast<std::size_t>(k - t0)];
    const std::vector<ViewId>& lower =
        levels[static_cast<std::size_t>(k - 1 - t0)];
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

const std::optional<HistoryClassSizes>& HistoryFrequencyAgent::solve() const {
  if (solution_round_ != rounds_) {
    solution_round_ = rounds_;
    solution_ = solve_history_window(*registry_, view_);
  }
  return solution_;
}

std::optional<Frequency> HistoryFrequencyAgent::frequency_estimate() const {
  const auto& solution = solve();
  if (!solution.has_value()) return std::nullopt;
  BigInt total(0);
  std::map<std::int64_t, BigInt> weight;
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t value =
        codec_->value_of(registry_->label(solution->classes[i]));
    auto [it, inserted] = weight.emplace(value, solution->sizes[i]);
    if (!inserted) it->second += solution->sizes[i];
    total += solution->sizes[i];
  }
  std::map<std::int64_t, Rational> entries;
  for (auto& [value, w] : weight) entries.emplace(value, Rational(w, total));
  try {
    return Frequency(std::move(entries));
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

std::optional<std::map<std::int64_t, BigInt>>
HistoryFrequencyAgent::multiset_estimate(std::int64_t leader_count) const {
  if (leader_count <= 0) {
    throw std::invalid_argument("multiset_estimate: need >= 1 leader");
  }
  const auto& solution = solve();
  if (!solution.has_value()) return std::nullopt;
  BigInt leader_total(0);
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t coded =
        codec_->value_of(registry_->label(solution->classes[i]));
    if (decode_leader_flag(coded)) leader_total += solution->sizes[i];
  }
  if (leader_total.is_zero()) return std::nullopt;
  std::map<std::int64_t, BigInt> multiset;
  for (std::size_t i = 0; i < solution->classes.size(); ++i) {
    const std::int64_t coded =
        codec_->value_of(registry_->label(solution->classes[i]));
    const BigInt scaled = BigInt(leader_count) * solution->sizes[i];
    if (!(scaled % leader_total).is_zero()) return std::nullopt;
    auto [it, inserted] =
        multiset.emplace(decode_leader_value(coded), scaled / leader_total);
    if (!inserted) it->second += scaled / leader_total;
  }
  return multiset;
}

}  // namespace anonet
