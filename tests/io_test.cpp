// Tests for graph serialization (graph/io.hpp).

#include "graph/io.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace anonet {
namespace {

TEST(GraphIo, DotContainsVerticesAndEdges) {
  Digraph g(2);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 1);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph anonet"), std::string::npos);
  EXPECT_NE(dot.find("0 -> 1 [label=\"3\"]"), std::string::npos);
  EXPECT_NE(dot.find("1 -> 1;"), std::string::npos);
}

TEST(GraphIo, DotWithValues) {
  Digraph g(2);
  g.add_edge(0, 1);
  const std::vector<std::int64_t> values{7, -2};
  const std::string dot = to_dot(g, &values, "valued");
  EXPECT_NE(dot.find("digraph valued"), std::string::npos);
  EXPECT_NE(dot.find("0: 7"), std::string::npos);
  EXPECT_NE(dot.find("1: -2"), std::string::npos);
  const std::vector<std::int64_t> wrong{1};
  EXPECT_THROW(to_dot(g, &wrong), std::invalid_argument);
}

TEST(GraphIo, EdgeListRoundTrip) {
  const Digraph g = random_strongly_connected(6, 5, 3);
  const Digraph parsed = parse_edge_list(to_edge_list(g));
  EXPECT_EQ(parsed.vertex_count(), g.vertex_count());
  EXPECT_EQ(parsed.edges(), g.edges());
}

TEST(GraphIo, EdgeListRoundTripPreservesColors) {
  Digraph g(3);
  g.ensure_self_loops();
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 5);
  const Digraph parsed = parse_edge_list(to_edge_list(g));
  EXPECT_EQ(parsed.edges(), g.edges());
}

TEST(GraphIo, ParseAcceptsCommentsAndBlankLines) {
  const Digraph g = parse_edge_list(
      "# a triangle\n"
      "n 3\n"
      "\n"
      "e 0 1\n"
      "e 1 2\n"
      "  # with a colored closing edge\n"
      "e 2 0 4\n");
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.edge(2).color, 4);
}

TEST(GraphIo, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_edge_list(""), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("e 0 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\nn 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\nx 0 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\ne 0 5\n"), std::out_of_range);
  EXPECT_THROW(parse_edge_list("n 2\ne 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n -1\n"), std::invalid_argument);
  // Each line is exactly `n N` or `e S T [C]`, every token a whole int32 in
  // range, and a written color at least 1.
  EXPECT_THROW(parse_edge_list("n 2\ne 0 1 x\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\ne 0 1x\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2.5\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\ne 0 1 2 9\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\ne 0 1 99999999999\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_edge_list("n 2\ne 0 1 -4\n"), std::invalid_argument);
}

}  // namespace
}  // namespace anonet
