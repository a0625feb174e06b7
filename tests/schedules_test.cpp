// Tests for dynamic-graph schedules and dynamic-diameter measurement.

#include <gtest/gtest.h>

#include "dynamics/adversarial.hpp"
#include "dynamics/connectivity.hpp"
#include "dynamics/schedules.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"

namespace anonet {
namespace {

TEST(Schedules, StaticScheduleRepeatsTheGraph) {
  StaticSchedule schedule(directed_ring(4));
  EXPECT_EQ(schedule.vertex_count(), 4);
  const Digraph g1 = schedule.at(1);
  const Digraph g9 = schedule.at(9);
  EXPECT_EQ(g1.edge_count(), g9.edge_count());
  EXPECT_TRUE(g1.has_all_self_loops());
  EXPECT_THROW(schedule.at(0), std::invalid_argument);
}

TEST(Schedules, StaticDynamicDiameterEqualsDiameter) {
  // For a static strongly connected graph the dynamic diameter equals the
  // ordinary diameter (products of the same graph with self-loops).
  for (Vertex n : {3, 5, 8}) {
    StaticSchedule schedule(directed_ring(n));
    EXPECT_EQ(dynamic_diameter(schedule, 3, 2 * n),
              diameter(directed_ring(n)))
        << n;
  }
}

TEST(Schedules, PeriodicScheduleCycles) {
  Digraph a(2);
  a.add_edge(0, 1);
  Digraph b(2);
  b.add_edge(1, 0);
  PeriodicSchedule schedule({a, b});
  EXPECT_TRUE(schedule.at(1).has_edge(0, 1));
  EXPECT_FALSE(schedule.at(1).has_edge(1, 0));
  EXPECT_TRUE(schedule.at(2).has_edge(1, 0));
  EXPECT_TRUE(schedule.at(3).has_edge(0, 1));  // period 2
  EXPECT_TRUE(schedule.at(1).has_all_self_loops());  // added by constructor
}

TEST(Schedules, PeriodicAlternationHasFiniteDynamicDiameter) {
  // Two half-rings, neither strongly connected, alternating: together they
  // cover the ring, so the dynamic diameter is finite — the "intermediate
  // graphs may be disconnected" regime.
  const Vertex n = 6;
  Digraph evens(n), odds(n);
  for (Vertex v = 0; v < n; ++v) {
    if (v % 2 == 0) evens.add_edge(v, (v + 1) % n);
    else odds.add_edge(v, (v + 1) % n);
    evens.add_edge(v, v);
    odds.add_edge(v, v);
  }
  PeriodicSchedule schedule({evens, odds});
  const int d = dynamic_diameter(schedule, 8, 100);
  EXPECT_GT(d, 0);
  EXPECT_LE(d, 2 * n);
}

TEST(Schedules, RandomStronglyConnectedScheduleIsDeterministicInT) {
  RandomStronglyConnectedSchedule schedule(6, 3, 17);
  const Digraph g3a = schedule.at(3);
  const Digraph g3b = schedule.at(3);
  EXPECT_EQ(g3a.edges(), g3b.edges());
  EXPECT_TRUE(is_strongly_connected(schedule.at(1)));
  EXPECT_TRUE(is_strongly_connected(schedule.at(12)));
  // Different rounds should (almost surely) differ.
  EXPECT_NE(schedule.at(1).edges(), schedule.at(2).edges());
}

TEST(Schedules, RandomStronglyConnectedDynamicDiameterAtMostN) {
  RandomStronglyConnectedSchedule schedule(7, 2, 5);
  const int d = dynamic_diameter(schedule, 10, 7);
  EXPECT_GT(d, 0);
  EXPECT_LE(d, 6);
}

TEST(Schedules, RandomSymmetricScheduleIsSymmetricEveryRound) {
  RandomSymmetricSchedule schedule(8, 3, 23);
  for (int t = 1; t <= 10; ++t) {
    EXPECT_TRUE(schedule.at(t).is_symmetric()) << t;
    EXPECT_TRUE(is_strongly_connected(schedule.at(t))) << t;
  }
}

TEST(Schedules, TokenRingIsSparseButFinitelyConnected) {
  TokenRingSchedule schedule(4);
  for (int t = 1; t <= 8; ++t) {
    EXPECT_EQ(schedule.at(t).edge_count(), 5);  // 4 self-loops + 1 edge
  }
  const int d = dynamic_diameter(schedule, 6, 64);
  EXPECT_GT(d, 4);   // much worse than a static ring
  EXPECT_LE(d, 16);  // but finite (~n^2)
}

TEST(Schedules, AsyncStartIsolatesLateStarters) {
  auto inner = std::make_shared<StaticSchedule>(complete_graph(3));
  AsyncStartSchedule schedule(inner, {1, 1, 5});
  // Rounds 1-4: vertex 2 only has its self-loop.
  const Digraph g2 = schedule.at(2);
  EXPECT_EQ(g2.outdegree(2), 1);
  EXPECT_EQ(g2.indegree(2), 1);
  EXPECT_TRUE(g2.has_edge(0, 1));
  // Round 5 onwards: full graph again.
  const Digraph g5 = schedule.at(5);
  EXPECT_EQ(g5.outdegree(2), 3);
}

TEST(Schedules, AsyncStartValidatesSizes) {
  auto inner = std::make_shared<StaticSchedule>(complete_graph(3));
  EXPECT_THROW(AsyncStartSchedule(inner, {1, 1}), std::invalid_argument);
  EXPECT_THROW(AsyncStartSchedule(nullptr, {}), std::invalid_argument);
}

TEST(Schedules, RandomMatchingIsDegreeAtMostOne) {
  RandomMatchingSchedule schedule(7, 3);
  for (int t = 1; t <= 10; ++t) {
    const Digraph g = schedule.at(t);
    EXPECT_TRUE(g.is_symmetric()) << t;
    EXPECT_TRUE(g.has_all_self_loops()) << t;
    for (Vertex v = 0; v < 7; ++v) {
      EXPECT_LE(g.outdegree(v), 2) << t;  // self + at most one partner
    }
  }
  // Deterministic in (seed, t).
  EXPECT_EQ(schedule.at(4).edges(), RandomMatchingSchedule(7, 3).at(4).edges());
}

TEST(Schedules, RandomMatchingHasFiniteDynamicDiameterEmpirically) {
  RandomMatchingSchedule schedule(6, 9);
  const int d = dynamic_diameter(schedule, 5, 400);
  EXPECT_GT(d, 0);
}

TEST(Schedules, GrowingGapHasBurstsWithDoublingGaps) {
  GrowingGapSchedule schedule(bidirectional_ring(4), 2, 3);
  // Bursts at rounds {1,2}, then gap 3 -> {6,7}, gap 6 -> {14,15}, ...
  EXPECT_TRUE(schedule.in_burst(1));
  EXPECT_TRUE(schedule.in_burst(2));
  EXPECT_FALSE(schedule.in_burst(3));
  EXPECT_TRUE(schedule.in_burst(6));
  EXPECT_FALSE(schedule.in_burst(8));
  EXPECT_TRUE(schedule.in_burst(14));
  // In-burst rounds carry the base graph; gaps carry self-loops only.
  EXPECT_GT(schedule.at(1).edge_count(), 4);
  EXPECT_EQ(schedule.at(3).edge_count(), 4);
  EXPECT_THROW(GrowingGapSchedule(bidirectional_ring(3), 0, 1),
               std::invalid_argument);
}

TEST(Schedules, GrowingGapHasNoFiniteDynamicDiameter) {
  // Any claimed window bound is violated by a late-enough gap.
  GrowingGapSchedule schedule(bidirectional_ring(4), 2, 3);
  EXPECT_EQ(window_to_complete(schedule, 16, 10), -1);  // inside a long gap
}

TEST(Schedules, DynamicDiameterUnreachableReturnsMinusOne) {
  Digraph disconnected(3);
  disconnected.ensure_self_loops();
  StaticSchedule schedule(disconnected);
  EXPECT_EQ(dynamic_diameter(schedule, 2, 10), -1);
}

TEST(Schedules, SpoonerServesTheBridgeOnlyOnPeriodMultiples) {
  const Vertex n = 6;
  SpoonerSchedule schedule(n, 5);
  EXPECT_EQ(schedule.vertex_count(), n);
  EXPECT_EQ(schedule.period(), 5);
  for (int t = 1; t <= 12; ++t) {
    EXPECT_EQ(schedule.bridge_round(t), t % 5 == 0) << t;
    const Digraph g = schedule.at(t);
    EXPECT_TRUE(g.is_symmetric()) << t;
    EXPECT_TRUE(g.has_all_self_loops()) << t;
    EXPECT_EQ(g.has_edge(n - 2, n - 1), t % 5 == 0) << t;
    // Off-bridge rounds isolate the handle (self-loop only).
    if (t % 5 != 0) {
      EXPECT_EQ(g.outdegree(n - 1), 1) << t;
    }
  }
}

TEST(Schedules, SpoonerRealizesDynamicDiameterPeriodPlusTwo) {
  // The handle waits up to `period` rounds at the bridge; crossing the bowl
  // adds two hub hops, so D = period + 2 — the prescribed-delay adversary.
  for (int period : {2, 5}) {
    SpoonerSchedule schedule(6, period);
    EXPECT_EQ(dynamic_diameter(schedule, 3 * period, 4 * period + 8),
              period + 2)
        << period;
  }
}

TEST(Schedules, SpoonerValidates) {
  EXPECT_THROW(SpoonerSchedule(2, 1), std::invalid_argument);
  EXPECT_THROW(SpoonerSchedule(5, 0), std::invalid_argument);
}

TEST(Schedules, UnionRingNoRoundIsConnectedButTheUnionIs) {
  const Vertex n = 6;
  UnionRingSchedule schedule(n, 3);
  EXPECT_EQ(schedule.parts(), 3);
  for (int t = 1; t <= 7; ++t) {
    const Digraph g = schedule.at(t);
    EXPECT_FALSE(is_strongly_connected(g)) << t;
    EXPECT_TRUE(g.is_symmetric()) << t;
    EXPECT_TRUE(g.has_all_self_loops()) << t;
  }
  // Phases cycle with period `parts`.
  EXPECT_EQ(schedule.at(1).edges(), schedule.at(4).edges());
  // The union over any window of `parts` rounds is the ring, so information
  // still flows: finite dynamic diameter, at most parts * n.
  const int d = dynamic_diameter(schedule, 6, 3 * static_cast<int>(n));
  EXPECT_GT(d, 0);
  EXPECT_LE(d, 3 * static_cast<int>(n));
}

TEST(Schedules, UnionRingValidates) {
  EXPECT_THROW(UnionRingSchedule(1, 1), std::invalid_argument);
  EXPECT_THROW(UnionRingSchedule(4, 0), std::invalid_argument);
}

TEST(Schedules, GrowingGapRingServesTheRingExactlyOnPowersOfTwo) {
  const Vertex n = 6;
  GrowingGapRingSchedule schedule(n);
  EXPECT_EQ(schedule.vertex_count(), n);
  for (int t = 1; t <= 64; ++t) {
    const bool power_of_two = (t & (t - 1)) == 0;
    EXPECT_EQ(GrowingGapRingSchedule::connected_round(t), power_of_two) << t;
    const Digraph g = schedule.at(t);
    EXPECT_TRUE(g.is_symmetric()) << t;
    EXPECT_TRUE(g.has_all_self_loops()) << t;
    if (power_of_two) {
      EXPECT_TRUE(is_strongly_connected(g)) << t;
      // Bidirectional ring + self-loops: 3n directed edges.
      EXPECT_EQ(g.edge_count(), 3 * n) << t;
    } else {
      // Self-loops only: every vertex isolated.
      EXPECT_EQ(g.edge_count(), n) << t;
    }
  }
}

TEST(Schedules, GrowingGapRingHasUnboundedDelayButConnectsInfinitelyOften) {
  GrowingGapRingSchedule schedule(5);
  // The gap between consecutive connected rounds doubles forever, so no
  // window bound certifies the dynamic diameter: measuring inside a long
  // silent stretch finds no path within the window.
  EXPECT_EQ(dynamic_diameter(schedule, 5, 10), -1);
  // Yet connectivity recurs: the next power of two always arrives.
  int connected = 0;
  for (int t = 1; t <= 1024; ++t) {
    if (GrowingGapRingSchedule::connected_round(t)) ++connected;
  }
  EXPECT_EQ(connected, 11);  // 1, 2, 4, ..., 1024
}

TEST(Schedules, GrowingGapRingServesBorrowedPhaseViews) {
  GrowingGapRingSchedule schedule(4);
  EXPECT_TRUE(schedule.view(3).is_borrowed());
  // Both phase graphs are stable members.
  EXPECT_EQ(&schedule.view(1).get(), &schedule.view(4).get());
  EXPECT_EQ(&schedule.view(3).get(), &schedule.view(5).get());
  EXPECT_NE(&schedule.view(3).get(), &schedule.view(4).get());
}

TEST(Schedules, GrowingGapRingValidates) {
  EXPECT_THROW(GrowingGapRingSchedule(1), std::invalid_argument);
  EXPECT_THROW(GrowingGapRingSchedule(0), std::invalid_argument);
  // n == 2 is the degenerate complete ring: no duplicate parallel edges.
  GrowingGapRingSchedule two(2);
  const Digraph g = two.at(1);
  EXPECT_EQ(g.edge_count(), 4);  // two self-loops + one bidirectional pair
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Schedules, AdversarialSchedulesServeBorrowedPhaseViews) {
  SpoonerSchedule spooner(5, 4);
  EXPECT_TRUE(spooner.view(4).is_borrowed());
  // The two phase graphs are stable members: same round class, same object.
  EXPECT_EQ(&spooner.view(4).get(), &spooner.view(8).get());
  EXPECT_EQ(&spooner.view(1).get(), &spooner.view(2).get());
  EXPECT_NE(&spooner.view(1).get(), &spooner.view(4).get());

  UnionRingSchedule ring(6, 3);
  EXPECT_TRUE(ring.view(2).is_borrowed());
  EXPECT_EQ(&ring.view(2).get(), &ring.view(5).get());
  EXPECT_NE(&ring.view(2).get(), &ring.view(3).get());
}

TEST(Schedules, RandomScheduleViewsAreCachedPerRound) {
  RandomStronglyConnectedSchedule schedule(6, 3, 17);
  // Repeating a round serves the cached graph: same object, no rebuild.
  const RoundGraphRef a = schedule.view(3);
  const RoundGraphRef b = schedule.view(3);
  EXPECT_TRUE(a.is_borrowed());
  EXPECT_EQ(&a.get(), &b.get());
  // Consecutive rounds come from different slots, so a borrowed ref stays
  // valid across one further view().
  const RoundGraphRef c = schedule.view(4);
  EXPECT_NE(&b.get(), &c.get());
  // Cached views carry exactly the at(t) graph, wherever they live.
  for (int t : {1, 2, 3, 2, 5, 1}) {
    EXPECT_EQ(schedule.view(t).get().edges(), schedule.at(t).edges()) << t;
  }
  RandomSymmetricSchedule symmetric(6, 3, 9);
  EXPECT_TRUE(symmetric.view(2).is_borrowed());
  EXPECT_EQ(symmetric.view(2).get().edges(), symmetric.at(2).edges());
  RandomMatchingSchedule matching(6, 9);
  EXPECT_TRUE(matching.view(2).is_borrowed());
  EXPECT_EQ(matching.view(2).get().edges(), matching.at(2).edges());
}

}  // namespace
}  // namespace anonet
