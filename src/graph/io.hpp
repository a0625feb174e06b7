#pragma once

// Graph serialization: Graphviz DOT export for inspection/papers, and a
// plain edge-list text format for loading experiment topologies.
//
// Edge-list format (line-oriented, '#' comments):
//     n <vertex_count>
//     e <source> <target> [color]
// Vertices are 0-based; color defaults to kNoColor, and a written color is
// at least 1 (to_edge_list omits kNoColor). Tokens are separated by spaces
// or tabs, and each is a whole decimal int32.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"

namespace anonet {

// DOT digraph; vertex labels show `values` when provided (one per vertex),
// edge labels show non-zero colors (output ports). Self-loops included.
[[nodiscard]] std::string to_dot(const Digraph& g,
                                 const std::vector<std::int64_t>* values =
                                     nullptr,
                                 std::string_view name = "anonet");

[[nodiscard]] std::string to_edge_list(const Digraph& g);

// Parses the edge-list format, failing closed: throws std::invalid_argument
// on an unknown directive, a missing or repeated header, an edge before the
// header, a line with too few or too many tokens, or a token that is not a
// whole int32 in range (n >= 0, color >= 1), and std::out_of_range on a
// vertex outside [0, n).
[[nodiscard]] Digraph parse_edge_list(std::string_view text);

}  // namespace anonet
