// Parameterized property sweeps (TEST_P): the paper's claims checked across
// graph families, sizes, seeds, and communication models.

#include <gtest/gtest.h>

#include <random>
#include <type_traits>

#include "core/computability.hpp"
#include "dynamics/connectivity.hpp"
#include "core/census.hpp"
#include "core/freq_static.hpp"
#include "core/minbase_agent.hpp"
#include "core/pushsum.hpp"
#include "dynamics/schedules.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

// --- Sweep 1: static frequency computation across models and graphs ---------

// gtest prints a parameter that has no PrintTo as its raw bytes, and
// gtest_discover_tests puts that dump into each CTest name. The padding
// after `model` is therefore a zeroed member: left implicit, it was
// uninitialized, and the names differed from build to build.
struct StaticCase {
  CommModel model;
  std::uint32_t padding = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<StaticCase>);

class StaticFrequencySweep : public ::testing::TestWithParam<StaticCase> {};

TEST_P(StaticFrequencySweep, AverageIsComputedExactly) {
  const auto [model, padding, seed] = GetParam();
  std::mt19937_64 rng(seed);
  const Vertex n = static_cast<Vertex>(5 + seed % 5);
  Digraph g = model == CommModel::kSymmetricBroadcast
                  ? random_symmetric_connected(n, 3, seed)
                  : random_strongly_connected(n, n, seed);
  std::vector<std::int64_t> inputs;
  std::uniform_int_distribution<std::int64_t> dist(0, 3);
  for (Vertex v = 0; v < n; ++v) inputs.push_back(dist(rng));

  Attempt attempt;
  attempt.model = model;
  attempt.knowledge = Knowledge::kNone;
  attempt.rounds = 2 * n + 2 * diameter(g) + 4;
  const AttemptResult result =
      attempt_static(g, inputs, average_function(), attempt);
  EXPECT_TRUE(result.success) << to_string(model) << " seed=" << seed << ": "
                              << result.mechanism;
  EXPECT_EQ(result.final_error, 0.0);
}

TEST_P(StaticFrequencySweep, KnownSizeRecoversTheSum) {
  const auto [model, padding, seed] = GetParam();
  std::mt19937_64 rng(seed * 31 + 7);
  const Vertex n = static_cast<Vertex>(4 + seed % 4);
  Digraph g = model == CommModel::kSymmetricBroadcast
                  ? random_symmetric_connected(n, 2, seed + 100)
                  : random_strongly_connected(n, n, seed + 100);
  std::vector<std::int64_t> inputs;
  std::uniform_int_distribution<std::int64_t> dist(-2, 2);
  for (Vertex v = 0; v < n; ++v) inputs.push_back(dist(rng));

  Attempt attempt;
  attempt.model = model;
  attempt.knowledge = Knowledge::kExactSize;
  attempt.parameter = n;
  attempt.rounds = 2 * n + 2 * diameter(g) + 4;
  const AttemptResult result =
      attempt_static(g, inputs, sum_function(), attempt);
  EXPECT_TRUE(result.success) << to_string(model) << " seed=" << seed << ": "
                              << result.mechanism;
}

std::vector<StaticCase> static_cases() {
  std::vector<StaticCase> cases;
  for (CommModel model :
       {CommModel::kOutdegreeAware, CommModel::kSymmetricBroadcast,
        CommModel::kOutputPortAware}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      cases.push_back({model, 0, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, StaticFrequencySweep, ::testing::ValuesIn(static_cases()),
    [](const ::testing::TestParamInfo<StaticCase>& param_info) {
      std::string name(to_string(param_info.param.model));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_" + std::to_string(param_info.param.seed);
    });

// --- Sweep 2: Push-Sum invariants across sizes and schedules ----------------

class PushSumSweep : public ::testing::TestWithParam<int> {};

TEST_P(PushSumSweep, FrequencyEstimatesConvergeAndConserveMass) {
  const int n = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(n));
  std::vector<std::int64_t> inputs;
  std::uniform_int_distribution<std::int64_t> dist(0, 2);
  for (int i = 0; i < n; ++i) inputs.push_back(dist(rng));
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(
          n, 2, static_cast<std::uint64_t>(n) * 13),
      std::move(agents), CommModel::kOutdegreeAware);

  exec.run(80 * n);
  const Frequency truth = Frequency::of(inputs);
  for (Vertex v = 0; v < n; ++v) {
    for (const auto& [value, estimate] : exec.agent(v).estimates()) {
      EXPECT_NEAR(estimate, truth.at(value).to_double(), 1e-5)
          << "n=" << n << " v=" << v << " value=" << value;
    }
  }
}

TEST_P(PushSumSweep, RoundingWithBoundStabilizesExactly) {
  const int n = GetParam();
  std::vector<std::int64_t> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
  std::vector<FrequencyPushSumAgent> agents;
  for (std::int64_t v : inputs) agents.emplace_back(v);
  Executor<FrequencyPushSumAgent> exec(
      std::make_shared<RandomStronglyConnectedSchedule>(
          n, 3, static_cast<std::uint64_t>(n) * 17),
      std::move(agents), CommModel::kOutdegreeAware);
  exec.run(80 * n);
  const Frequency truth = Frequency::of(inputs);
  const auto bound = static_cast<std::uint32_t>(n + 3);  // any N >= n
  for (Vertex v = 0; v < n; ++v) {
    const auto rounded = exec.agent(v).rounded_frequency(bound);
    ASSERT_TRUE(rounded.has_value()) << "n=" << n << " v=" << v;
    EXPECT_EQ(*rounded, truth) << "n=" << n << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PushSumSweep, ::testing::Values(2, 3, 5, 8),
                         ::testing::PrintToStringParamName());

// --- Sweep 3: delivery order independence ------------------------------------

class ShuffleSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShuffleSeedSweep, OutputsAreDeliveryOrderIndependent) {
  // Algorithms receive multisets: reshuffling deliveries (different executor
  // seeds) must not change any output. Run the full static pipeline twice.
  const std::uint64_t shuffle_seed = GetParam();
  const Digraph g = random_symmetric_connected(7, 3, 99);
  const std::vector<std::int64_t> inputs{1, 1, 2, 2, 3, 3, 1};
  Attempt attempt;
  attempt.model = CommModel::kSymmetricBroadcast;
  attempt.knowledge = Knowledge::kExactSize;
  attempt.parameter = 7;
  attempt.rounds = 28;
  attempt.seed = shuffle_seed;
  const AttemptResult result =
      attempt_static(g, inputs, sum_function(), attempt);
  Attempt baseline = attempt;
  baseline.seed = 0xabcdef;
  const AttemptResult reference =
      attempt_static(g, inputs, sum_function(), baseline);
  EXPECT_EQ(result.success, reference.success);
  EXPECT_EQ(result.stabilization_round, reference.stabilization_round);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffleSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         ::testing::PrintToStringParamName());

// --- Sweep 4: dynamic diameter certificates ----------------------------------

class ScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleSweep, EveryExperimentScheduleHasFiniteDynamicDiameter) {
  const int n = GetParam();
  RandomStronglyConnectedSchedule sc(n, 2, 7);
  RandomSymmetricSchedule sym(n, 2, 7);
  TokenRingSchedule token(n);
  EXPECT_GT(dynamic_diameter(sc, 6, n), 0) << "strongly connected";
  EXPECT_GT(dynamic_diameter(sym, 6, n), 0) << "symmetric";
  EXPECT_GT(dynamic_diameter(token, 6, 2 * n * n), 0) << "token ring";
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScheduleSweep, ::testing::Values(3, 5, 8, 12),
                         ::testing::PrintToStringParamName());

// --- Sweep 5: leader counts unlock the multiset everywhere -------------------

class LeaderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeaderSweep, SumRecoveredStaticAndDynamic) {
  const int leaders = GetParam();
  const std::vector<std::int64_t> values{2, 2, 7, 7, 7, 4};
  std::vector<std::int64_t> inputs;
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(
        encode_leader_input(values[i], static_cast<int>(i) < leaders));
  }
  Attempt attempt;
  attempt.knowledge = Knowledge::kLeaders;
  attempt.parameter = leaders;

  attempt.model = CommModel::kSymmetricBroadcast;
  attempt.rounds = 40;
  const auto static_result = attempt_static(
      random_symmetric_connected(6, 3, 7), inputs, sum_function(), attempt);
  EXPECT_TRUE(static_result.success) << static_result.mechanism;

  attempt.model = CommModel::kOutdegreeAware;
  attempt.rounds = 500;
  const auto dynamic_result = attempt_dynamic(
      std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 7), inputs,
      sum_function(), attempt);
  EXPECT_TRUE(dynamic_result.success) << dynamic_result.mechanism;
}

INSTANTIATE_TEST_SUITE_P(Counts, LeaderSweep, ::testing::Values(1, 2, 3),
                         ::testing::PrintToStringParamName());

// --- Sweep 6: degree-oblivious consensus across bound multipliers ------------

class BoundSweep : public ::testing::TestWithParam<int> {};

TEST_P(BoundSweep, UniformConsensusLocksForAnyValidBound) {
  const int multiplier = GetParam();
  const Vertex n = 5;
  const std::vector<std::int64_t> inputs{1, 1, 1, 3, 3};
  Attempt attempt;
  attempt.model = CommModel::kSymmetricBroadcast;
  attempt.knowledge = Knowledge::kUpperBound;
  attempt.parameter = multiplier * n;
  // Larger N -> smaller step and finer rounding grid: scale the horizon.
  attempt.rounds = 700 * multiplier * multiplier;
  const auto result = attempt_dynamic(
      std::make_shared<RandomSymmetricSchedule>(n, 3, 21), inputs,
      average_function(), attempt);
  EXPECT_TRUE(result.success) << "multiplier=" << multiplier << ": "
                              << result.mechanism;
  EXPECT_GT(result.stabilization_round, 0);
}

INSTANTIATE_TEST_SUITE_P(Multipliers, BoundSweep, ::testing::Values(1, 2, 4),
                         ::testing::PrintToStringParamName());

// --- Sweep 7: asynchronous starts don't break Push-Sum ------------------------

class AsyncStartSweep : public ::testing::TestWithParam<int> {};

TEST_P(AsyncStartSweep, PushSumExactUnderLateJoins) {
  const int latest_start = GetParam();
  const Vertex n = 5;
  const std::vector<std::int64_t> inputs{0, 4, 0, 4, 4};
  std::vector<int> starts(static_cast<std::size_t>(n), 1);
  for (Vertex v = 0; v < n; v += 2) {
    starts[static_cast<std::size_t>(v)] = latest_start;
  }
  auto schedule = std::make_shared<AsyncStartSchedule>(
      std::make_shared<RandomStronglyConnectedSchedule>(n, 3, 77), starts);
  Attempt attempt;
  attempt.model = CommModel::kOutdegreeAware;
  attempt.knowledge = Knowledge::kUpperBound;
  attempt.parameter = 8;
  attempt.rounds = 300 + latest_start;
  const auto result =
      attempt_dynamic(schedule, inputs, average_function(), attempt);
  EXPECT_TRUE(result.success) << "latest_start=" << latest_start << ": "
                              << result.mechanism;
}

INSTANTIATE_TEST_SUITE_P(StartRounds, AsyncStartSweep,
                         ::testing::Values(1, 5, 20, 60),
                         ::testing::PrintToStringParamName());

// --- Sweep 8: agreement — all agents output the same thing -------------------

class AgreementSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AgreementSweep, MinBasePipelineAgentsAgreeOnceAllPlausible) {
  // δ-computation demands a COMMON limit (Section 2.3). Once every agent's
  // candidate is plausible, the derived frequency estimates must agree —
  // even before they are correct.
  const std::uint64_t seed = GetParam();
  const Digraph g = random_symmetric_connected(7, 3, seed + 200);
  std::vector<std::int64_t> inputs;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> dist(0, 2);
  for (Vertex v = 0; v < 7; ++v) inputs.push_back(dist(rng));

  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<MinBaseAgent> agents;
  for (std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input,
                        CommModel::kSymmetricBroadcast);
  }
  Executor<MinBaseAgent> exec(std::make_shared<StaticSchedule>(g),
                              std::move(agents),
                              CommModel::kSymmetricBroadcast);
  exec.run(7 + 2 * diameter(g) + 2);
  std::optional<Frequency> reference;
  for (const MinBaseAgent& agent : exec.agents()) {
    const auto census = static_census(agent.candidate(), *codec,
                                      CommModel::kSymmetricBroadcast);
    ASSERT_TRUE(census.has_value()) << seed;
    const Frequency estimate =
        frequency_from_ratios(census->values, census->sizes);
    if (!reference.has_value()) reference = estimate;
    EXPECT_EQ(estimate, *reference) << seed;
  }
  EXPECT_EQ(*reference, Frequency::of(inputs)) << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgreementSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace anonet
