// Tests for dynamic-graph schedules and dynamic-diameter measurement.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dynamics/adversarial.hpp"
#include "dynamics/connectivity.hpp"
#include "dynamics/perturbation.hpp"
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
  // The two phase graphs are stable members: same round class, same object.
  EXPECT_EQ(&spooner.view(4).get(), &spooner.view(8).get());
  EXPECT_EQ(&spooner.view(1).get(), &spooner.view(2).get());
  EXPECT_NE(&spooner.view(1).get(), &spooner.view(4).get());

  UnionRingSchedule ring(6, 3);
  EXPECT_EQ(&ring.view(2).get(), &ring.view(5).get());
  EXPECT_NE(&ring.view(2).get(), &ring.view(3).get());
}

TEST(Schedules, RandomScheduleViewsAreCachedPerRound) {
  RandomStronglyConnectedSchedule schedule(6, 3, 17);
  // Repeating a round serves the cached graph: same object, no rebuild.
  const RoundGraphRef a = schedule.view(3);
  const RoundGraphRef b = schedule.view(3);
  EXPECT_EQ(&a.get(), &b.get());
  // Consecutive rounds come from different slots, so a lent ref stays
  // valid across one further view().
  const RoundGraphRef c = schedule.view(4);
  EXPECT_NE(&b.get(), &c.get());
  // Cached views carry exactly the graph a fresh schedule lends for round
  // t, wherever they live.
  for (int t : {1, 2, 3, 2, 5, 1}) {
    EXPECT_EQ(schedule.view(t).get().edges(),
              RandomStronglyConnectedSchedule(6, 3, 17).at(t).edges())
        << t;
  }
  RandomSymmetricSchedule symmetric(6, 3, 9);
  EXPECT_EQ(symmetric.view(2).get().edges(),
            RandomSymmetricSchedule(6, 3, 9).at(2).edges());
  RandomMatchingSchedule matching(6, 9);
  EXPECT_EQ(matching.view(2).get().edges(),
            RandomMatchingSchedule(6, 9).at(2).edges());
}

// The caches of a lent graph must be those of a graph built fresh from its
// edges: a generated schedule rebuilds each round in place, into a slot
// whose caches described the round before last.
void expect_caches_match_a_fresh_graph(const Digraph& lent) {
  Digraph fresh(lent.vertex_count());
  for (const Edge& e : lent.edges()) fresh.add_edge(e.source, e.target, e.color);
  EXPECT_EQ(lent.edges(), fresh.edges());
  EXPECT_TRUE(std::ranges::equal(lent.in_offsets(), fresh.in_offsets()));
  EXPECT_TRUE(std::ranges::equal(lent.in_edge_list(), fresh.in_edge_list()));
  EXPECT_TRUE(
      std::ranges::equal(lent.in_source_list(), fresh.in_source_list()));
  for (Vertex v = 0; v < lent.vertex_count(); ++v) {
    EXPECT_TRUE(std::ranges::equal(lent.out_edges(v), fresh.out_edges(v)))
        << v;
    EXPECT_EQ(lent.outdegree(v), fresh.outdegree(v)) << v;
  }
  EXPECT_EQ(lent.has_all_self_loops(), fresh.has_all_self_loops());
  EXPECT_EQ(lent.is_symmetric(), fresh.is_symmetric());
}

TEST(Schedules, EveryScheduleLendsAPureRoundGraph) {
  // Every schedule kind, generated or stored: round t's graph depends on t
  // alone, not on which rounds were asked for before, a graph lent for
  // round t keeps its edges across one further view(), and a graph built
  // in place into a reused slot carries the caches of a fresh one.
  static constexpr Vertex kN = 12;
  static constexpr int kRounds = 16;
  const std::vector<std::pair<const char*, std::function<DynamicGraphPtr()>>>
      kinds = {
          {"static",
           [] { return std::make_shared<StaticSchedule>(directed_ring(kN)); }},
          {"periodic",
           [] {
             return std::make_shared<PeriodicSchedule>(std::vector<Digraph>{
                 directed_ring(kN), bidirectional_ring(kN),
                 complete_graph(kN)});
           }},
          {"random strongly connected",
           [] {
             return std::make_shared<RandomStronglyConnectedSchedule>(kN, 3,
                                                                      17);
           }},
          {"random symmetric",
           [] { return std::make_shared<RandomSymmetricSchedule>(kN, 3, 9); }},
          {"random matching",
           [] { return std::make_shared<RandomMatchingSchedule>(kN, 9); }},
          {"token ring",
           [] { return std::make_shared<TokenRingSchedule>(kN); }},
          {"growing gap",
           [] {
             return std::make_shared<GrowingGapSchedule>(
                 bidirectional_ring(kN), 2, 3);
           }},
          {"async start",
           [] {
             std::vector<int> starts;
             for (Vertex v = 0; v < kN; ++v) starts.push_back(1 + v % 6);
             return std::make_shared<AsyncStartSchedule>(
                 std::make_shared<RandomStronglyConnectedSchedule>(kN, 3, 5),
                 std::move(starts));
           }},
          {"spooner",
           [] { return std::make_shared<SpoonerSchedule>(kN, 3); }},
          {"union ring",
           [] { return std::make_shared<UnionRingSchedule>(kN, 3); }},
          {"growing gap ring",
           [] { return std::make_shared<GrowingGapRingSchedule>(kN); }},
          {"preferential churn",
           [] { return preferential_churn_schedule(kN, 5); }},
          {"geometric churn",
           [] { return geometric_churn_schedule(kN, 5); }},
      };
  for (const auto& [name, make] : kinds) {
    SCOPED_TRACE(name);
    const DynamicGraphPtr forward = make();
    std::vector<std::vector<Edge>> edges(kRounds + 1);
    for (int t = 1; t <= kRounds; ++t) {
      edges[t] = forward->view(t).get().edges();
    }
    const DynamicGraphPtr backward = make();
    for (int t = kRounds; t >= 1; --t) {
      EXPECT_EQ(backward->view(t).get().edges(), edges[t]) << t;
    }
    const DynamicGraphPtr lender = make();
    for (int t = 1; t <= kRounds; ++t) {
      for (const int other : {t + 1, t - 1, t + 100}) {
        if (other < 1) continue;
        const RoundGraphRef lent = lender->view(t);
        static_cast<void>(lender->view(other));
        EXPECT_EQ(lent.get().edges(), edges[t]) << t << " then " << other;
      }
    }
    // Every cache of every round, each read in full, so a slot reused two
    // rounds later starts from caches that were all built.
    const DynamicGraphPtr reuser = make();
    for (int t = 1; t <= kRounds; ++t) {
      SCOPED_TRACE(t);
      const Digraph& lent = reuser->view(t).get();
      EXPECT_EQ(lent.edges(), edges[t]);
      expect_caches_match_a_fresh_graph(lent);
    }
  }
}

TEST(Schedules, GeneratedRoundsReuseTheirSlotsEdgeStorage) {
  // Rounds t and t + 2 share a slot, and a warm slot's round is built into
  // the edge storage the slot already holds.
  static constexpr Vertex kN = 12;
  static constexpr int kRounds = 16;
  const std::vector<std::pair<const char*, DynamicGraphPtr>> schedules = {
      {"random strongly connected",
       std::make_shared<RandomStronglyConnectedSchedule>(kN, 3, 17)},
      {"random symmetric",
       std::make_shared<RandomSymmetricSchedule>(kN, 3, 9)},
  };
  for (const auto& [name, schedule] : schedules) {
    SCOPED_TRACE(name);
    std::vector<const Edge*> storage(kRounds + 1);
    for (int t = 1; t <= kRounds; ++t) {
      storage[t] = schedule->view(t).get().edges().data();
    }
    for (int t = 3; t + 2 <= kRounds; ++t) {
      EXPECT_EQ(storage[t], storage[t + 2]) << t;
      EXPECT_NE(storage[t], storage[t + 1]) << t;
    }
  }
}

// The two-slot lending of BuiltSchedule on a test schedule whose round t is
// Digraph(t + 3), counting its builds; building `failing_round` throws
// after it has emptied the slot it builds into.
class CountingSchedule final : public BuiltSchedule {
 public:
  [[nodiscard]] Vertex vertex_count() const override { return 0; }

  mutable int builds = 0;
  int failing_round = 0;

 private:
  void build(int t, Digraph& into) const override {
    if (t == failing_round) {
      into.reset(0);
      throw std::runtime_error("round 3 unavailable");
    }
    ++builds;
    into.reset(t + 3);
  }
};

TEST(Schedules, RoundCacheMissKeepsTheSlotItLentLast) {
  // Strict slot alternation used to overwrite round 1 here: the miss for
  // round 3 took the slot the hit for round 1 had just lent.
  CountingSchedule schedule;
  static_cast<void>(schedule.view(1));
  static_cast<void>(schedule.view(2));
  const Digraph* round1 = &schedule.view(1).get();
  const Digraph* round3 = &schedule.view(3).get();
  EXPECT_EQ(schedule.builds, 3);
  EXPECT_NE(round1, round3);
  EXPECT_EQ(round1->vertex_count(), 4);  // still round 1's graph
  EXPECT_EQ(round3->vertex_count(), 6);
  EXPECT_EQ(&schedule.view(1).get(), round1);  // and still cached
  EXPECT_EQ(schedule.builds, 3);
}

TEST(Schedules, RoundCacheRecordsARoundOnlyAfterItsBuildReturns) {
  CountingSchedule schedule;
  static_cast<void>(schedule.view(1));
  const Digraph* round2 = &schedule.view(2).get();
  schedule.failing_round = 3;
  EXPECT_THROW(static_cast<void>(schedule.view(3)), std::runtime_error);
  schedule.failing_round = 0;
  // The failed build left the cached rounds as they were...
  EXPECT_EQ(&schedule.view(2).get(), round2);
  EXPECT_EQ(round2->vertex_count(), 5);
  EXPECT_EQ(schedule.builds, 2);
  // ...and recorded nothing for round 3: asking again builds it.
  const Digraph* round3 = &schedule.view(3).get();
  EXPECT_EQ(schedule.builds, 3);
  EXPECT_EQ(round3->vertex_count(), 6);

  // A failed build runs in place, in the slot of the round lent before
  // last, which it marks empty first: that round is rebuilt when asked
  // again, never lent from the half-built slot, and the slot lent last
  // still hits.
  CountingSchedule emptied;
  static_cast<void>(emptied.view(1));
  static_cast<void>(emptied.view(2));
  emptied.failing_round = 3;
  EXPECT_THROW(static_cast<void>(emptied.view(3)), std::runtime_error);
  EXPECT_EQ(emptied.view(1).get().vertex_count(), 4);
  EXPECT_EQ(emptied.builds, 3);
  EXPECT_EQ(emptied.view(2).get().vertex_count(), 5);
  EXPECT_EQ(emptied.builds, 3);
}

}  // namespace
}  // namespace anonet
