#include "graph/io.hpp"

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace anonet {

std::string to_dot(const Digraph& g, const std::vector<std::int64_t>* values,
                   std::string_view name) {
  if (values != nullptr &&
      values->size() != static_cast<std::size_t>(g.vertex_count())) {
    throw std::invalid_argument("to_dot: valuation size mismatch");
  }
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    os << "  " << v;
    if (values != nullptr) {
      os << " [label=\"" << v << ": "
         << (*values)[static_cast<std::size_t>(v)] << "\"]";
    }
    os << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  " << e.source << " -> " << e.target;
    if (e.color != kNoColor) os << " [label=\"" << e.color << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_edge_list(const Digraph& g) {
  std::ostringstream os;
  os << "n " << g.vertex_count() << "\n";
  for (const Edge& e : g.edges()) {
    os << "e " << e.source << " " << e.target;
    if (e.color != kNoColor) os << " " << e.color;
    os << "\n";
  }
  return os.str();
}

namespace {

// The space- or tab-separated tokens of one line.
std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t at = line.find_first_not_of(" \t");
  while (at != std::string_view::npos) {
    const std::size_t end = line.find_first_of(" \t", at);
    tokens.push_back(line.substr(at, end - at));
    at = line.find_first_not_of(" \t", end);
  }
  return tokens;
}

// The token as a whole decimal int32 of at least `min`, or nothing: a sign
// other than '-', a trailing character or an overflow all fail.
std::optional<std::int32_t> parse_int(std::string_view token,
                                      std::int32_t min) {
  std::int32_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end || value < min) return std::nullopt;
  return value;
}

}  // namespace

Digraph parse_edge_list(std::string_view text) {
  std::istringstream input{std::string(text)};
  std::string line;
  std::optional<Digraph> graph;
  int line_number = 0;
  while (std::getline(input, line)) {
    ++line_number;
    const std::vector<std::string_view> tokens = split_tokens(line);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const auto bad = [&](const std::string& what) {
      return std::invalid_argument("parse_edge_list: " + what + " at line " +
                                   std::to_string(line_number));
    };
    if (tokens[0] == "n") {
      const std::optional<Vertex> n =
          tokens.size() == 2 ? parse_int(tokens[1], 0) : std::nullopt;
      if (!n.has_value() || graph.has_value()) throw bad("bad header");
      graph.emplace(*n);
    } else if (tokens[0] == "e") {
      if (!graph.has_value()) {
        throw std::invalid_argument("parse_edge_list: edge before header");
      }
      if (tokens.size() != 3 && tokens.size() != 4) throw bad("bad edge");
      // Any int32 vertex parses; add_edge rejects one outside [0, n).
      constexpr Vertex kAny = std::numeric_limits<Vertex>::min();
      const std::optional<Vertex> source = parse_int(tokens[1], kAny);
      const std::optional<Vertex> target = parse_int(tokens[2], kAny);
      const std::optional<EdgeColor> color =
          tokens.size() == 4 ? parse_int(tokens[3], 1) : kNoColor;
      if (!source || !target || !color) throw bad("bad edge");
      graph->add_edge(*source, *target, *color);
    } else {
      throw bad("unknown directive '" + std::string(tokens[0]) + "'");
    }
  }
  if (!graph.has_value()) {
    throw std::invalid_argument("parse_edge_list: missing 'n' header");
  }
  return *std::move(graph);
}

}  // namespace anonet
