// Tests for the high-level computability harness (core/computability.hpp) —
// each test is one or more cells of Table 1 or Table 2 asserted as facts.

#include "core/computability.hpp"

#include <gtest/gtest.h>

#include "core/census.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"

namespace anonet {
namespace {

Rational r(std::int64_t num, std::int64_t den = 1) {
  return Rational(BigInt(num), BigInt(den));
}

Attempt make_attempt(CommModel model, Knowledge knowledge,
                     std::int64_t parameter, int rounds,
                     double tolerance = 1e-3) {
  Attempt attempt;
  attempt.model = model;
  attempt.knowledge = knowledge;
  attempt.parameter = parameter;
  attempt.rounds = rounds;
  attempt.tolerance = tolerance;
  return attempt;
}

// --- Table 1 (static) --------------------------------------------------------

TEST(Table1, SimpleBroadcastComputesSetBased) {
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 5, 1, 5, 1, 5};
  const auto result = attempt_static(
      g, inputs, max_function(),
      make_attempt(CommModel::kSimpleBroadcast, Knowledge::kNone, 0, 12));
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.stabilization_round, 0);
}

TEST(Table1, SimpleBroadcastCannotComputeAverage) {
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 5, 1, 5, 1, 5};
  const auto result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kSimpleBroadcast, Knowledge::kNone, 0, 12));
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.mechanism.find("impossible"), std::string::npos);
}

TEST(Table1, OutdegreeAwarenessComputesAverageExactly) {
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 5, 1, 5, 1, 5};
  const auto result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kNone, 0, 25));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_GT(result.stabilization_round, 0);
  EXPECT_EQ(result.final_error, 0.0);
}

TEST(Table1, SymmetricCommunicationsComputesAverageExactly) {
  const Digraph g = random_symmetric_connected(8, 3, 17);
  const std::vector<std::int64_t> inputs{2, 2, 2, 6, 6, 6, 2, 6};
  const auto result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kNone, 0, 30));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table1, OutputPortAwarenessComputesAverageExactly) {
  const Digraph g = random_strongly_connected(7, 5, 23);
  const std::vector<std::int64_t> inputs{1, 1, 1, 1, 9, 9, 9};
  const auto result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kOutputPortAware, Knowledge::kNone, 0, 30));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table1, SumImpossibleWithoutCentralizedHelp) {
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 2, 3, 1, 2, 3};
  for (Knowledge knowledge : {Knowledge::kNone, Knowledge::kUpperBound}) {
    const auto result = attempt_static(
        g, inputs, sum_function(),
        make_attempt(CommModel::kOutdegreeAware, knowledge, 10, 25));
    EXPECT_FALSE(result.success) << to_string(knowledge);
    EXPECT_NE(result.mechanism.find("impossible"), std::string::npos);
  }
}

TEST(Table1, KnownSizeUnlocksTheSum) {
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 2, 3, 1, 2, 3};
  const auto result = attempt_static(
      g, inputs, sum_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kExactSize, 6, 25));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_EQ(result.final_error, 0.0);
}

TEST(Table1, UpperBoundDoesNotUnlockTheSumButKeepsFrequencies) {
  // Corollary 4.2: a bound on n leaves the class at frequency-based.
  const Digraph g = random_symmetric_connected(6, 2, 41);
  const std::vector<std::int64_t> inputs{4, 4, 8, 8, 4, 8};
  const auto freq_result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kUpperBound, 10,
                   30));
  EXPECT_TRUE(freq_result.success);
  const auto sum_result = attempt_static(
      g, inputs, sum_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kUpperBound, 10,
                   30));
  EXPECT_FALSE(sum_result.success);
}

TEST(Table1, OneLeaderUnlocksTheSum) {
  const Digraph g = bidirectional_ring(6);
  std::vector<std::int64_t> inputs;
  const std::vector<std::int64_t> values{1, 2, 3, 1, 2, 3};
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(encode_leader_input(values[i], i == 0));
  }
  const auto result = attempt_static(
      g, inputs, sum_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kLeaders, 1, 30));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_EQ(ground_truth(inputs, sum_function(), Knowledge::kLeaders), r(12));
}

TEST(Table1, MultipleLeadersAlsoWork) {
  const Digraph g = random_symmetric_connected(9, 3, 51);
  std::vector<std::int64_t> inputs;
  for (int i = 0; i < 9; ++i) {
    inputs.push_back(encode_leader_input(i % 3, i < 3));  // 3 leaders
  }
  const auto result = attempt_static(
      g, inputs, sum_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kLeaders, 3,
                   40));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table1, LeaderWithSimpleBroadcastStaysSetBased) {
  // Bottom-left cell of Table 1: even with a leader, simple broadcast
  // computes only set-based functions.
  const Digraph g = bidirectional_ring(6);
  std::vector<std::int64_t> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(encode_leader_input(i % 2, i == 0));
  }
  const auto result = attempt_static(
      g, inputs, average_function(),
      make_attempt(CommModel::kSimpleBroadcast, Knowledge::kLeaders, 1, 20));
  EXPECT_FALSE(result.success);
}

TEST(Table1, ValidatesNetworkClass) {
  Digraph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EXPECT_THROW(attempt_static(path, {1, 2, 3}, max_function(),
                              make_attempt(CommModel::kSimpleBroadcast,
                                           Knowledge::kNone, 0, 5)),
               std::invalid_argument);
  // Symmetric model demands a symmetric graph.
  EXPECT_THROW(attempt_static(directed_ring(4), {1, 2, 3, 4}, max_function(),
                              make_attempt(CommModel::kSymmetricBroadcast,
                                           Knowledge::kNone, 0, 5)),
               std::invalid_argument);
}

TEST(Table1, HelpThatContradictsTheNetworkIsRejected) {
  // Known n = 12 on a 6-agent ring would read the multiset of a 12-agent
  // network off the same frequency, and return its sum.
  const Digraph g = bidirectional_ring(6);
  const std::vector<std::int64_t> inputs{1, 2, 3, 1, 2, 3};
  EXPECT_THROW((void)attempt_static(
                   g, inputs, sum_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kExactSize, 12, 25)),
               std::invalid_argument);
  EXPECT_THROW((void)attempt_static(
                   g, inputs, average_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kUpperBound, 5, 25)),
               std::invalid_argument);
  // ℓ = 1 with no flagged input, and ℓ = 0 with none: no leader to pin.
  EXPECT_THROW((void)attempt_static(
                   g, inputs, sum_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kLeaders, 1, 25)),
               std::invalid_argument);
  EXPECT_THROW((void)attempt_static(
                   g, inputs, sum_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kLeaders, 0, 25)),
               std::invalid_argument);
}

TEST(Table1, WholeFrequencyBasedLibraryIsComputableWithDegrees) {
  // Not just the average: every frequency-based function in the library is
  // exactly computable once frequencies are (Theorem 4.1's "if" direction
  // is about the whole class).
  const Digraph g = random_symmetric_connected(6, 3, 61);
  const std::vector<std::int64_t> inputs{2, 2, 8, 8, 8, 5};
  for (const SymmetricFunction& f :
       {average_function(), median_function(), variance_function(),
        mode_frequency(), threshold_predicate(8, Rational(BigInt(1), BigInt(2)))}) {
    const auto result = attempt_static(
        g, inputs, f,
        make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kNone, 0, 30));
    EXPECT_TRUE(result.success) << f.name() << ": " << result.mechanism;
    EXPECT_EQ(result.final_error, 0.0) << f.name();
  }
}

TEST(Table1, MultisetOnlyFunctionsNeedHelpEverywhere) {
  const Digraph g = random_symmetric_connected(6, 3, 62);
  const std::vector<std::int64_t> inputs{1, 1, 2, 2, 3, 3};
  for (const SymmetricFunction& f : {sum_function(), sum_of_squares(),
                                     count_function()}) {
    const auto blocked = attempt_static(
        g, inputs, f,
        make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kNone, 0, 25));
    EXPECT_FALSE(blocked.success) << f.name();
    const auto unlocked = attempt_static(
        g, inputs, f,
        make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kExactSize, 6,
                     30));
    EXPECT_TRUE(unlocked.success) << f.name() << ": " << unlocked.mechanism;
  }
}

// --- Table 2 (dynamic) -------------------------------------------------------

TEST(Table2, GossipComputesSetBasedOnDynamicGraphs) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(6, 2, 3);
  const std::vector<std::int64_t> inputs{3, 1, 4, 1, 5, 9};
  const auto result = attempt_dynamic(
      schedule, inputs, min_function(),
      make_attempt(CommModel::kSimpleBroadcast, Knowledge::kNone, 0, 15));
  EXPECT_TRUE(result.success);
}

TEST(Table2, PushSumWithBoundComputesAverageExactly) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 8);
  const std::vector<std::int64_t> inputs{10, 10, 40, 40, 40};
  const auto result = attempt_dynamic(
      schedule, inputs, average_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kUpperBound, 8,
                   250));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_GT(result.stabilization_round, 0);
}

TEST(Table2, BoundOrSizeOutsideUint32IsRejected) {
  // A bound or n reaches the agents as a uint32 Q_N denominator: 2^32 + 6
  // must not pass for N = 6, nor -1 for N = 2^32 - 1.
  const std::vector<std::int64_t> inputs{1, 2, 1, 2, 1, 2};
  for (Knowledge knowledge : {Knowledge::kUpperBound, Knowledge::kExactSize}) {
    for (std::int64_t parameter : {(std::int64_t{1} << 32) + 6,
                                   std::int64_t{-1}}) {
      auto schedule =
          std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 8);
      EXPECT_THROW((void)attempt_dynamic(
                       schedule, inputs, average_function(),
                       make_attempt(CommModel::kOutdegreeAware, knowledge,
                                    parameter, 20)),
                   std::invalid_argument)
          << to_string(knowledge) << ", parameter " << parameter;
    }
  }
}

TEST(Table2, HelpThatContradictsTheNetworkIsRejected) {
  std::vector<std::int64_t> coded;
  for (int i = 0; i < 6; ++i) {
    coded.push_back(encode_leader_input(1 + i % 2, i == 0));
  }
  // ℓ = 2 with one flagged input doubles every multiplicity.
  EXPECT_THROW((void)attempt_dynamic(
                   std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 8),
                   coded, sum_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kLeaders, 2, 60)),
               std::invalid_argument);
  // A bound N = 3 for 6 agents: Q_3 has no 1/6, the frequency of 1 here.
  const std::vector<std::int64_t> inputs{1, 2, 2, 2, 2, 2};
  EXPECT_THROW((void)attempt_dynamic(
                   std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 8),
                   inputs, average_function(),
                   make_attempt(CommModel::kOutdegreeAware,
                                Knowledge::kUpperBound, 3, 60)),
               std::invalid_argument);
  EXPECT_THROW((void)attempt_dynamic(
                   std::make_shared<RandomSymmetricSchedule>(6, 3, 8), inputs,
                   average_function(),
                   make_attempt(CommModel::kSymmetricBroadcast,
                                Knowledge::kExactSize, 7, 60)),
               std::invalid_argument);
}

TEST(Table2, PushSumWithoutBoundOnlyApproximates) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 12);
  const std::vector<std::int64_t> inputs{0, 0, 30, 30, 30};
  const auto result = attempt_dynamic(
      schedule, inputs, average_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kNone, 0, 250));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_EQ(result.stabilization_round, -1);  // asymptotic only
  EXPECT_LE(result.final_error, 1e-3);
}

TEST(Table2, WithoutBoundNonContinuousFrequencyFunctionsFail) {
  // Φ_r^ω with rational r is frequency-based but NOT continuous in
  // frequency; without a bound the attempt must refuse (Cor. 5.5's limit).
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(4, 3, 2);
  const std::vector<std::int64_t> inputs{1, 1, 0, 0};
  SymmetricFunction non_continuous{"exact-half", FunctionClass::kFrequencyBased,
                                   [](std::span<const std::int64_t> v) {
                                     std::int64_t ones = 0;
                                     for (auto x : v) ones += (x == 1);
                                     return Rational(
                                         BigInt(2 * ones),
                                         BigInt(static_cast<std::int64_t>(
                                             v.size())));
                                   }};
  const auto result = attempt_dynamic(
      schedule, inputs, non_continuous,
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kNone, 0, 100));
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.mechanism.find("continuous"), std::string::npos);
}

TEST(Table2, PushSumWithExactSizeComputesSum) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 14);
  const std::vector<std::int64_t> inputs{1, 2, 3, 4, 5};
  const auto result = attempt_dynamic(
      schedule, inputs, sum_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kExactSize, 5, 250));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table2, PushSumLeaderVariantComputesSum) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(5, 3, 18);
  std::vector<std::int64_t> inputs;
  const std::vector<std::int64_t> values{7, 7, 2, 2, 2};
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(encode_leader_input(values[i], i == 2));
  }
  const auto result = attempt_dynamic(
      schedule, inputs, sum_function(),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kLeaders, 1, 300));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table2, MetropolisComputesAverageOnSymmetricDynamic) {
  auto schedule = std::make_shared<RandomSymmetricSchedule>(6, 3, 44);
  const std::vector<std::int64_t> inputs{0, 0, 0, 8, 8, 8};
  const auto result = attempt_dynamic(
      schedule, inputs, average_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kUpperBound, 10,
                   400));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table2, MetropolisLeaderCensusComputesSum) {
  auto schedule = std::make_shared<RandomSymmetricSchedule>(6, 3, 46);
  std::vector<std::int64_t> inputs;
  const std::vector<std::int64_t> values{1, 1, 1, 5, 5, 5};
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(encode_leader_input(values[i], i == 0 || i == 3));
  }
  const auto result = attempt_dynamic(
      schedule, inputs, sum_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kLeaders, 2,
                   500));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table2, OutputPortsMeaninglessOnDynamicNetworks) {
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(4, 2, 1);
  const auto result = attempt_dynamic(
      schedule, {1, 2, 1, 2}, average_function(),
      make_attempt(CommModel::kOutputPortAware, Knowledge::kNone, 0, 10));
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.mechanism.find("static"), std::string::npos);
}

TEST(Table2, ThresholdPredicateAwayFromThresholdApproximates) {
  // Φ_{1/2}^ω on an input with ν(ω) = 2/3, safely away from the threshold:
  // the approximate evaluator settles on 1 (Cor. 5.5 in practice).
  auto schedule = std::make_shared<RandomStronglyConnectedSchedule>(6, 3, 10);
  const std::vector<std::int64_t> inputs{1, 1, 1, 1, 0, 0};
  const auto result = attempt_dynamic(
      schedule, inputs, threshold_predicate(1, r(1, 2)),
      make_attempt(CommModel::kOutdegreeAware, Knowledge::kNone, 0, 250));
  EXPECT_TRUE(result.success) << result.mechanism;
}

TEST(Table2, HistoryTreesGiveExactFrequenciesWithNoHelp) {
  // The symmetric no-help cell: exact δ0 computation, no bound, no degrees
  // (the [26] cell of Table 2, via core/history_tree.hpp).
  auto schedule = std::make_shared<RandomSymmetricSchedule>(5, 3, 48);
  const std::vector<std::int64_t> inputs{10, 10, 10, 40, 40};
  const auto result = attempt_dynamic(
      schedule, inputs, average_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kNone, 0, 64));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_GT(result.stabilization_round, 0);  // exact, not just asymptotic
  EXPECT_NE(result.mechanism.find("history-tree"), std::string::npos);
}

TEST(Table2, HistoryTreesWithLeaderGiveExactMultiset) {
  auto schedule = std::make_shared<RandomSymmetricSchedule>(5, 3, 49);
  std::vector<std::int64_t> inputs;
  const std::vector<std::int64_t> values{3, 3, 7, 7, 7};
  for (std::size_t i = 0; i < values.size(); ++i) {
    inputs.push_back(encode_leader_input(values[i], i == 0));
  }
  const auto result = attempt_dynamic(
      schedule, inputs, sum_function(),
      make_attempt(CommModel::kSymmetricBroadcast, Knowledge::kLeaders, 1,
                   64));
  EXPECT_TRUE(result.success) << result.mechanism;
  EXPECT_GT(result.stabilization_round, 0);
}

}  // namespace
}  // namespace anonet
