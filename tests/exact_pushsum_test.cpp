// Tests for exact-rational Push-Sum and its cross-validation against the
// floating-point implementation.

#include "core/exact_pushsum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

Rational r(std::int64_t num, std::int64_t den = 1) {
  return Rational(BigInt(num), BigInt(den));
}

TEST(ExactPushSum, MassIsIdenticallyConserved) {
  std::vector<ExactPushSumAgent> agents;
  agents.emplace_back(r(5), r(1));
  agents.emplace_back(r(-3), r(2));
  agents.emplace_back(r(7, 2), r(1));
  Executor<ExactPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(3, 2, 41),
      std::move(agents), CommModel::kOutdegreeAware);
  const Rational y_mass = r(5) + r(-3) + r(7, 2);
  const Rational z_mass = r(4);
  for (int round = 0; round < 40; ++round) {
    exec.step();
    Rational y, z;
    for (Vertex v = 0; v < 3; ++v) {
      y += exec.agent(v).y();
      z += exec.agent(v).z();
    }
    // Exact equality, not within-epsilon: this is the point.
    EXPECT_EQ(y, y_mass) << round;
    EXPECT_EQ(z, z_mass) << round;
  }
}

TEST(ExactPushSum, ConvergesToQuotSum) {
  std::vector<ExactPushSumAgent> agents;
  agents.emplace_back(r(1), r(1));
  agents.emplace_back(r(2), r(1));
  agents.emplace_back(r(3), r(1));
  agents.emplace_back(r(6), r(1));
  Executor<ExactPushSumAgent> exec(
      std::make_shared<StaticSchedule>(random_strongly_connected(4, 3, 7)),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(60);
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_NEAR(exec.agent(v).output().to_double(), 3.0, 1e-9) << v;
  }
}

TEST(ExactPushSum, FloatImplementationTracksExactTrajectory) {
  // Same schedule, same inputs: the double-based agent must follow the true
  // rational trajectory to within accumulated roundoff.
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 99);
  std::vector<ExactPushSumAgent> exact_agents;
  std::vector<PushSumAgent> float_agents;
  const std::vector<std::int64_t> values{4, -1, 0, 9, 3};
  for (std::int64_t v : values) {
    exact_agents.emplace_back(r(v), r(1));
    float_agents.emplace_back(static_cast<double>(v), 1.0);
  }
  Executor<ExactPushSumAgent> exact_exec(schedule, std::move(exact_agents),
                                         CommModel::kOutdegreeAware);
  Executor<PushSumAgent> float_exec(schedule, std::move(float_agents),
                                    CommModel::kOutdegreeAware);
  for (int round = 0; round < 50; ++round) {
    exact_exec.step();
    float_exec.step();
    for (Vertex v = 0; v < 5; ++v) {
      EXPECT_NEAR(float_exec.agent(v).y(), exact_exec.agent(v).y().to_double(),
                  1e-10)
          << "round " << round << " v " << v;
      EXPECT_NEAR(float_exec.agent(v).z(), exact_exec.agent(v).z().to_double(),
                  1e-10)
          << "round " << round << " v " << v;
    }
  }
}

TEST(ExactPushSum, InputValidation) {
  EXPECT_THROW(ExactPushSumAgent(r(1), r(0)), std::invalid_argument);
  EXPECT_THROW(ExactPushSumAgent(r(1), r(-1)), std::invalid_argument);
  ExactPushSumAgent agent(r(1), r(1));
  EXPECT_THROW(agent.send(0, 0), std::logic_error);
}

}  // namespace
}  // namespace anonet
