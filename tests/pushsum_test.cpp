// Tests for Push-Sum (core/pushsum.hpp): Theorem 5.2 convergence, mass
// conservation, Algorithm 1 frequencies, Corollary 5.3 rounding, the
// Section 5.5 leader variant, and asynchronous starts.

#include "core/pushsum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dynamics/connectivity.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

TEST(PushSum, ComputesQuotSumOnStaticGraph) {
  // quot-sum = Σv / Σw = (1+2+3+4) / (1+1+2+4) = 10/8.
  const std::vector<double> values{1, 2, 3, 4};
  const std::vector<double> weights{1, 1, 2, 4};
  std::vector<PushSumAgent> agents;
  for (std::size_t i = 0; i < values.size(); ++i) {
    agents.emplace_back(values[i], weights[i]);
  }
  Executor<PushSumAgent> exec(
      std::make_shared<StaticSchedule>(random_strongly_connected(4, 4, 3)),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(200);
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_NEAR(exec.agent(v).output(), 10.0 / 8.0, 1e-9) << v;
  }
}

TEST(PushSum, MassConservation) {
  // Column-stochastic updates preserve Σy and Σz exactly (up to float
  // roundoff) every single round.
  std::vector<PushSumAgent> agents;
  agents.emplace_back(5.0, 1.0);
  agents.emplace_back(-3.0, 1.0);
  agents.emplace_back(2.5, 1.0);
  agents.emplace_back(0.0, 1.0);
  agents.emplace_back(1.5, 1.0);
  Executor<PushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 77),
      std::move(agents), CommModel::kOutdegreeAware);
  for (int round = 0; round < 50; ++round) {
    exec.step();
    double y_total = 0.0, z_total = 0.0;
    for (Vertex v = 0; v < 5; ++v) {
      y_total += exec.agent(v).y();
      z_total += exec.agent(v).z();
    }
    EXPECT_NEAR(y_total, 6.0, 1e-9) << round;
    EXPECT_NEAR(z_total, 5.0, 1e-9) << round;
  }
}

TEST(PushSum, ConvergesOnDynamicGraphs) {
  // Average = quot-sum with unit weights, on a fully dynamic schedule.
  const std::vector<double> values{10, 20, 30, 40, 50, 60};
  std::vector<PushSumAgent> agents;
  for (double v : values) agents.emplace_back(v, 1.0);
  Executor<PushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(6, 2, 123),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(300);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_NEAR(exec.agent(v).output(), 35.0, 1e-6);
  }
}

TEST(PushSum, ErrorShrinksGeometrically) {
  // Theorem 5.2: within ε after O(n^{2D} D log 1/ε) rounds — on a fixed
  // network the error must decay (at least) geometrically in the round
  // number. Check monotone envelope over windows.
  std::vector<PushSumAgent> agents;
  for (int i = 0; i < 5; ++i) agents.emplace_back(i == 0 ? 1.0 : 0.0, 1.0);
  Executor<PushSumAgent> exec(
      std::make_shared<StaticSchedule>(bidirectional_ring(5)),
      std::move(agents), CommModel::kOutdegreeAware);
  double previous_error = 1.0;
  int improvements = 0;
  double final_error = 1.0;
  for (int window = 0; window < 10; ++window) {
    exec.run(10);
    double error = 0.0;
    for (Vertex v = 0; v < 5; ++v) {
      error = std::max(error, std::abs(exec.agent(v).output() - 0.2));
    }
    // Count halvings until the float noise floor.
    if (error < previous_error / 2.0 && error > 1e-13) ++improvements;
    previous_error = error;
    final_error = error;
  }
  EXPECT_GE(improvements, 3);  // decay saturates at double precision fast
  EXPECT_LT(final_error, 1e-9);
}

TEST(PushSum, RequiresOutdegreeAwareness) {
  PushSumAgent agent(1.0, 1.0);
  EXPECT_THROW(static_cast<void>(agent.send(0, 0)),
               std::logic_error);  // model hid the degree
  EXPECT_THROW(PushSumAgent(1.0, 0.0), std::invalid_argument);
}

TEST(FrequencyPushSum, EstimatesConvergeToFrequencies) {
  const std::vector<std::int64_t> inputs{1, 1, 1, 2, 2, 7};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 9),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(300);
  for (Vertex v = 0; v < 6; ++v) {
    const auto est = exec.agent(v).estimates();
    EXPECT_NEAR(est.at(1), 0.5, 1e-6);
    EXPECT_NEAR(est.at(2), 1.0 / 3.0, 1e-6);
    EXPECT_NEAR(est.at(7), 1.0 / 6.0, 1e-6);
  }
}

TEST(FrequencyPushSum, RoundedFrequencyLocksExactly) {
  // Corollary 5.3: with bound N, rounding stabilizes on the exact ν_v and
  // stays there.
  const std::vector<std::int64_t> inputs{4, 4, 9};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<StaticSchedule>(random_strongly_connected(3, 2, 1)),
      std::move(agents), CommModel::kOutdegreeAware);
  const Frequency truth = Frequency::of(inputs);
  exec.run(150);
  for (int extra = 0; extra < 10; ++extra) {
    exec.step();
    for (Vertex v = 0; v < 3; ++v) {
      const auto rounded = exec.agent(v).rounded_frequency(5);
      ASSERT_TRUE(rounded.has_value()) << extra;
      EXPECT_EQ(*rounded, truth) << extra;
    }
  }
}

TEST(FrequencyPushSum, NormalizedEstimatesSumToOne) {
  const std::vector<std::int64_t> inputs{1, 2, 3, 4};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<StaticSchedule>(random_strongly_connected(4, 3, 2)),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(10);  // far from convergence: normalization still applies
  for (Vertex v = 0; v < 4; ++v) {
    double total = 0.0;
    for (const auto& [value, x] : exec.agent(v).normalized_estimates()) {
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(FrequencyPushSum, ToleratesAsynchronousStarts) {
  const std::vector<std::int64_t> inputs{5, 5, 8, 8};
  auto inner = std::make_shared<RandomStronglyConnectedSchedule>(4, 3, 33);
  auto schedule = std::make_shared<AsyncStartSchedule>(
      inner, std::vector<int>{1, 4, 2, 7});
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(schedule, std::move(agents),
                                       CommModel::kOutdegreeAware);
  exec.run(400);
  for (Vertex v = 0; v < 4; ++v) {
    const auto est = exec.agent(v).estimates();
    EXPECT_NEAR(est.at(5), 0.5, 1e-6) << v;
    EXPECT_NEAR(est.at(8), 0.5, 1e-6) << v;
  }
}

TEST(FrequencyPushSum, LeaderVariantRecoversMultiplicities) {
  // Section 5.5 with ℓ = 2 leaders: ℓ·x[ω] -> multiplicity of ω.
  const std::vector<std::int64_t> inputs{3, 3, 3, 9, 9};
  const std::vector<bool> leaders{true, false, true, false, false};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    agents.emplace_back(inputs[i], leaders[i]);
  }
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 21),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(400);
  for (Vertex v = 0; v < 5; ++v) {
    const auto mult = exec.agent(v).multiplicity_estimates(2);
    EXPECT_NEAR(mult.at(3), 3.0, 1e-6) << v;
    EXPECT_NEAR(mult.at(9), 2.0, 1e-6) << v;
  }
}

TEST(FrequencyPushSum, LeaderVariantHasTransientInfinities) {
  // With z = 0 at non-leaders, x may be ∞ for finitely many rounds (the
  // paper notes this explicitly) — and must become finite.
  std::vector<FrequencyPushSumAgent> agents;
  agents.emplace_back(1, true);
  agents.emplace_back(2, false);
  agents.emplace_back(3, false);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<StaticSchedule>(directed_ring(3)), std::move(agents),
      CommModel::kOutdegreeAware);
  exec.step();
  bool saw_infinity = false;
  for (Vertex v = 0; v < 3; ++v) {
    for (const auto& [value, x] : exec.agent(v).estimates()) {
      if (std::isinf(x)) saw_infinity = true;
    }
  }
  EXPECT_TRUE(saw_infinity);
  exec.run(300);
  for (Vertex v = 0; v < 3; ++v) {
    for (const auto& [value, x] : exec.agent(v).estimates()) {
      EXPECT_TRUE(std::isfinite(x));
    }
  }
}

TEST(FrequencyPushSum, ConservativeJoiningIsExact) {
  // Regression: on this directed graph an agent keeps hearing *from* an
  // unknowing agent for several rounds. Algorithm 1's receiver-side
  // defaults (lines 9-10) inflate Σz here (the limit would be 1/5.83); the
  // conservative joining rule keeps it exactly n.
  Digraph g(5);
  g.ensure_self_loops();
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  g.add_edge(4, 1);
  g.add_edge(1, 2);
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : {1, 0, 0, 0, 0}) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(std::make_shared<StaticSchedule>(g),
                                       std::move(agents),
                                       CommModel::kOutdegreeAware);
  exec.run(500);
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_NEAR(exec.agent(v).estimates().at(1), 0.2, 1e-9) << v;
  }
}

TEST(FrequencyPushSum, PerValueMassIsConservedOncePresentEverywhere) {
  // After every agent knows every value, Σy[ω] = multiplicity(ω) and
  // Σz[ω] = n exactly, round after round.
  const std::vector<std::int64_t> inputs{2, 2, 5, 5, 5};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 71),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(20);  // long past full dissemination
  for (int round = 0; round < 30; ++round) {
    exec.step();
    std::map<std::int64_t, double> y_total, z_total;
    for (Vertex v = 0; v < 5; ++v) {
      // Inspect raw state via estimates plus mass identities: recompute
      // from a fresh send (outdegree 1 keeps values unscaled).
      const auto message = exec.agent(v).send(1, 0);
      for (const auto& entry : message.entries) {
        y_total[entry.key] += entry.y;
        z_total[entry.key] += entry.z;
      }
    }
    EXPECT_NEAR(y_total[2], 2.0, 1e-9) << round;
    EXPECT_NEAR(y_total[5], 3.0, 1e-9) << round;
    EXPECT_NEAR(z_total[2], 5.0, 1e-9) << round;
    EXPECT_NEAR(z_total[5], 5.0, 1e-9) << round;
  }
}

TEST(FrequencyPushSum, WorksOnSparseTokenRing) {
  // A schedule whose individual rounds are maximally disconnected but whose
  // dynamic diameter is finite — the weakest connectivity Theorem 5.2 needs.
  auto schedule = std::make_shared<TokenRingSchedule>(4);
  ASSERT_GT(dynamic_diameter(*schedule, 8, 64), 0);
  const std::vector<std::int64_t> inputs{1, 1, 2, 2};
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(schedule, std::move(agents),
                                       CommModel::kOutdegreeAware);
  exec.run(2000);
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_NEAR(exec.agent(v).estimates().at(1), 0.5, 1e-3) << v;
  }
}

TEST(PushSum, IsNotSelfStabilizing) {
  // Section 5 / Section 6: Push-Sum's correctness lives in its
  // initialization (Σy, Σz are conserved, never re-established). Corrupting
  // the state mid-run permanently shifts the limit — the algorithm
  // *tolerates asynchronous starts but is not self-stabilizing*, exactly as
  // the paper states. This is a negative demonstration, not a bug.
  std::vector<PushSumAgent> agents;
  for (int i = 0; i < 4; ++i) agents.emplace_back(i == 0 ? 1.0 : 0.0, 1.0);
  Executor<PushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(4, 3, 55),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(30);
  // Adversarial state corruption: double one agent's y mass.
  exec.agents()[2] = PushSumAgent(1.0, 1.0);
  exec.run(300);
  const double truth = 0.25;
  double error = 0.0;
  for (Vertex v = 0; v < 4; ++v) {
    error = std::max(error, std::abs(exec.agent(v).output() - truth));
  }
  EXPECT_GT(error, 0.05);  // converged, but to the wrong value
  // All agents agree on that wrong value (consensus without correctness).
  double spread_value = 0.0;
  for (Vertex v = 0; v < 4; ++v) {
    spread_value = std::max(
        spread_value, std::abs(exec.agent(v).output() - exec.agent(0).output()));
  }
  EXPECT_LT(spread_value, 1e-9);
}

}  // namespace
}  // namespace anonet
