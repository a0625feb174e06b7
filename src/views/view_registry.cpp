#include "views/view_registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace anonet {

ViewId ViewRegistry::intern(Node node) {
  auto key = std::tuple{node.label, node.depth, node.children};
  auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  const auto id = static_cast<ViewId>(nodes_.size());
  nodes_.push_back(std::move(node));
  interned_.emplace(std::move(key), id);
  return id;
}

ViewId ViewRegistry::leaf(int label) { return intern({label, 0, {}}); }

ViewId ViewRegistry::node(int label, ChildList children) {
  if (children.empty()) {
    throw std::invalid_argument(
        "ViewRegistry::node: views have at least the self-loop child");
  }
  std::sort(children.begin(), children.end());
  const int child_depth = depth(children.front().first);
  for (const auto& [child, color] : children) {
    if (depth(child) != child_depth) {
      throw std::invalid_argument("ViewRegistry::node: mixed child depths");
    }
  }
  return intern({label, child_depth + 1, std::move(children)});
}

int ViewRegistry::label(ViewId id) const {
  return nodes_[static_cast<std::size_t>(id)].label;
}

int ViewRegistry::depth(ViewId id) const {
  return nodes_[static_cast<std::size_t>(id)].depth;
}

const ViewRegistry::ChildList& ViewRegistry::children(ViewId id) const {
  return nodes_[static_cast<std::size_t>(id)].children;
}

ViewId ViewRegistry::truncate(ViewId id, int h) {
  if (h < 0) throw std::invalid_argument("ViewRegistry::truncate: h < 0");
  const int full_depth = depth(id);
  if (full_depth <= h) return id;
  const auto slot = static_cast<std::size_t>(h);
  {
    const std::vector<ViewId>& known =
        nodes_[static_cast<std::size_t>(id)].truncations;
    if (slot < known.size() && known[slot] != kInvalidView) return known[slot];
  }
  ViewId result;
  if (h == 0) {
    result = leaf(label(id));
  } else {
    ChildList truncated;
    truncated.reserve(children(id).size());
    // Copy: recursive truncate calls may reallocate nodes_.
    const ChildList kids = children(id);
    const int own_label = label(id);
    for (const auto& [child, color] : kids) {
      truncated.emplace_back(truncate(child, h - 1), color);
    }
    result = node(own_label, std::move(truncated));
  }
  // Re-read: interning above may have reallocated nodes_.
  std::vector<ViewId>& known = nodes_[static_cast<std::size_t>(id)].truncations;
  if (known.empty()) {
    known.assign(static_cast<std::size_t>(full_depth), kInvalidView);
  }
  known[slot] = result;
  return result;
}

double ViewRegistry::tree_size(ViewId id) const {
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  if (n.tree_size > 0.0) return n.tree_size;
  double size = 1.0;
  for (const auto& [child, color] : n.children) {
    size += tree_size(child);
  }
  n.tree_size = size;
  return size;
}

std::any& ViewRegistry::memo(const MemoKey& key) const {
  return memo_.try_emplace(key).first->second;
}

std::vector<ViewId> ViewRegistry::subviews(ViewId id) const {
  std::vector<ViewId> result;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<ViewId> stack{id};
  while (!stack.empty()) {
    const ViewId current = stack.back();
    stack.pop_back();
    if (seen[static_cast<std::size_t>(current)]) continue;
    seen[static_cast<std::size_t>(current)] = true;
    result.push_back(current);
    for (const auto& [child, color] : children(current)) {
      stack.push_back(child);
    }
  }
  return result;
}

}  // namespace anonet
