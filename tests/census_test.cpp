// Tests for the census hand-off (core/census.hpp): multiset recovery with
// centralized help, Corollaries 4.3 (known n) and 4.4 / eq. (5) (leaders),
// Q_N rounding (Corollary 5.3), and the two exact mechanisms handing over
// one census.

#include "core/census.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "campaign/spec.hpp"
#include "core/freq_static.hpp"
#include "core/history_tree.hpp"
#include "core/minbase_agent.hpp"
#include "dynamics/schedules.hpp"
#include "runtime/executor.hpp"

namespace anonet {
namespace {

Rational r(std::int64_t num, std::int64_t den = 1) {
  return Rational(BigInt(num), BigInt(den));
}

TEST(Census, LeaderEncodingRoundTrip) {
  for (std::int64_t value : {-7LL, -1LL, 0LL, 1LL, 42LL}) {
    for (bool leader : {false, true}) {
      const std::int64_t coded = encode_leader_input(value, leader);
      EXPECT_EQ(decode_leader_value(coded), value) << value << " " << leader;
      EXPECT_EQ(decode_leader_flag(coded), leader) << value << " " << leader;
    }
  }
}

TEST(Census, LeaderEncodingIsInjective) {
  EXPECT_NE(encode_leader_input(3, true), encode_leader_input(3, false));
  EXPECT_NE(encode_leader_input(3, false), encode_leader_input(4, false));
}

TEST(Census, MultisetFromFrequency) {
  const Frequency nu({{1, r(1, 3)}, {2, r(2, 3)}});
  const auto multiset = multiset_from_frequency(nu, 6);
  ASSERT_TRUE(multiset.has_value());
  EXPECT_EQ(multiset->at(1), BigInt(2));
  EXPECT_EQ(multiset->at(2), BigInt(4));
}

TEST(Census, MultisetFromFrequencyRejectsNonIntegral) {
  const Frequency nu({{1, r(1, 3)}, {2, r(2, 3)}});
  EXPECT_FALSE(multiset_from_frequency(nu, 7).has_value());
  EXPECT_THROW(multiset_from_frequency(nu, 0), std::invalid_argument);
}

TEST(Census, FibreSizesWithOneLeader) {
  // eq. (5) with ℓ = 1: the leader class pins the scale to its own ratio.
  const std::vector<BigInt> ratios{BigInt(1), BigInt(2), BigInt(3)};
  const std::vector<bool> leader_class{true, false, false};
  const auto sizes = fibre_sizes_with_leaders(leader_class, ratios, 1);
  ASSERT_TRUE(sizes.has_value());
  EXPECT_EQ(*sizes, (std::vector<BigInt>{BigInt(1), BigInt(2), BigInt(3)}));
}

TEST(Census, FibreSizesWithMultipleLeaders) {
  // ℓ = 4 leaders spread over two classes with ratios 1 and 3 (sum 4):
  // every ratio is scaled by 4/4 = 1... then with ratios doubled the scale
  // halves.
  const std::vector<BigInt> ratios{BigInt(2), BigInt(6), BigInt(4)};
  const std::vector<bool> leader_class{true, true, false};
  const auto sizes = fibre_sizes_with_leaders(leader_class, ratios, 4);
  ASSERT_TRUE(sizes.has_value());
  EXPECT_EQ(*sizes, (std::vector<BigInt>{BigInt(1), BigInt(3), BigInt(2)}));
}

TEST(Census, FibreSizesWithLeadersRejectsNonDivisible) {
  const std::vector<BigInt> ratios{BigInt(2), BigInt(3)};
  const std::vector<bool> leader_class{true, false};
  EXPECT_FALSE(fibre_sizes_with_leaders(leader_class, ratios, 3).has_value());
}

TEST(Census, FibreSizesWithLeadersRequiresALeaderClass) {
  const std::vector<BigInt> ratios{BigInt(1), BigInt(1)};
  EXPECT_FALSE(
      fibre_sizes_with_leaders({false, false}, ratios, 1).has_value());
  EXPECT_THROW(fibre_sizes_with_leaders({true}, ratios, 1),
               std::invalid_argument);
  EXPECT_THROW(fibre_sizes_with_leaders({true, false}, ratios, 0),
               std::invalid_argument);
}

TEST(Census, MultisetWithLeadersCountsDecodedValues) {
  // Classes (3, leader), (3), (9) with sizes 1 : 2 : 3 up to a factor of 2:
  // one leader pins the factor, and the two classes of value 3 merge.
  const std::vector<std::int64_t> coded{encode_leader_input(3, true),
                                        encode_leader_input(3, false),
                                        encode_leader_input(9, false)};
  const ClassCensus census{coded, {BigInt(2), BigInt(4), BigInt(6)}};
  const auto multiset = multiset_with_leaders(census, 1);
  ASSERT_TRUE(multiset.has_value());
  EXPECT_EQ(*multiset, (std::map<std::int64_t, BigInt>{{3, BigInt(3)},
                                                       {9, BigInt(3)}}));
  // Eq. (5) is checked per class: 1 · 3 / 2 is not an integer.
  EXPECT_FALSE(
      multiset_with_leaders({coded, {BigInt(2), BigInt(3), BigInt(6)}}, 1)
          .has_value());
  // No leader class: nothing pins the factor.
  EXPECT_FALSE(multiset_with_leaders({{6, 18}, {BigInt(1), BigInt(2)}}, 1)
                   .has_value());
}

TEST(Census, RoundFrequencyLocksOntoQN) {
  const auto nu = round_frequency({{1, 0.3334}, {2, 0.6665}}, 6);
  ASSERT_TRUE(nu.has_value());
  EXPECT_EQ(*nu, Frequency({{1, r(1, 3)}, {2, r(2, 3)}}));
  // A value rounded to 0 leaves the support.
  EXPECT_EQ(round_frequency({{1, 1.01}, {2, 0.01}}, 6),
            Frequency({{1, r(1)}}));
  // Not a frequency function once rounded, or not finite.
  EXPECT_FALSE(round_frequency({{1, 0.5}, {2, 0.34}}, 6).has_value());
  EXPECT_FALSE(round_frequency({{1, -0.5}, {2, 1.5}}, 6).has_value());
  EXPECT_FALSE(round_frequency(
                   {{1, std::numeric_limits<double>::infinity()}}, 6)
                   .has_value());
  EXPECT_FALSE(round_frequency({}, 6).has_value());
}

TEST(Census, ExpandMultiset) {
  const auto flat =
      expand_multiset({5, 9}, {BigInt(2), BigInt(3)});
  EXPECT_EQ(flat, (std::vector<std::int64_t>{5, 5, 9, 9, 9}));
  EXPECT_THROW(expand_multiset({5}, {BigInt(1), BigInt(2)}),
               std::invalid_argument);
}

TEST(Census, SumRecoveryEndToEnd) {
  // Frequency (1/3, 2/3) on values (6, 3) with n = 6 gives multiset
  // {6, 6, 3, 3, 3, 3} and sum 24 — the paper's flagship "needs n" example.
  const Frequency nu({{6, r(1, 3)}, {3, r(2, 3)}});
  const auto multiset = multiset_from_frequency(nu, 6);
  ASSERT_TRUE(multiset.has_value());
  std::vector<std::int64_t> values;
  std::vector<BigInt> sizes;
  for (const auto& [value, count] : *multiset) {
    values.push_back(value);
    sizes.push_back(count);
  }
  const auto flat = expand_multiset(values, sizes);
  Rational total;
  for (std::int64_t v : flat) total += Rational(v);
  EXPECT_EQ(total, r(24));
}

// The first round of the final streak in which `exact` held (-1 if it does
// not hold at the last round).
struct Streak {
  int since = -1;
  void record(int round, bool exact) {
    if (!exact) {
      since = -1;
    } else if (since == -1) {
      since = round;
    }
  }
};

// The two exact mechanisms hand the output layer one census. On the three
// symmetric Table 1 panels, plain and with agent 0 leading, the minimum
// base (eq. (4) ratios) and the history tree run on one schedule; from the
// round both are exact on, every agent's census gives, through the shared
// functions, the true ν and the true multiset (known n for plain inputs,
// eq. (5) with one leader for coded ones), so the two agree.
TEST(Census, MinimumBaseAndHistoryTreeAgreeOnOneCensus) {
  constexpr CommModel kModel = CommModel::kSymmetricBroadcast;
  for (int variant = 0; variant < campaign::kStaticPanelCount; ++variant) {
    const campaign::StaticPanel panel =
        campaign::make_static_panel(kModel, variant);
    Digraph g = panel.graph;
    g.ensure_self_loops();
    const auto n = static_cast<std::int64_t>(panel.values.size());
    std::map<std::int64_t, BigInt> true_multiset;
    for (std::int64_t value : panel.values) true_multiset[value] += BigInt(1);
    for (bool leaders : {false, true}) {
      std::vector<std::int64_t> inputs;
      for (std::size_t i = 0; i < panel.values.size(); ++i) {
        inputs.push_back(leaders ? encode_leader_input(panel.values[i], i == 0)
                                 : panel.values[i]);
      }
      const Frequency true_nu = Frequency::of(inputs);
      // Whether a census gives the true ν and the true multiset.
      auto exact = [&](const std::optional<ClassCensus>& census) {
        if (!census.has_value()) return false;
        const Frequency nu =
            frequency_from_ratios(census->values, census->sizes);
        const auto multiset = leaders ? multiset_with_leaders(*census, 1)
                                      : multiset_from_frequency(nu, n);
        return nu == true_nu && multiset == true_multiset;
      };

      auto schedule = std::make_shared<StaticSchedule>(g);
      // One registry and codec per mechanism, shared by its agents.
      auto codec = std::make_shared<LabelCodec>();
      auto registry = std::make_shared<ViewRegistry>();
      auto history_codec = std::make_shared<LabelCodec>();
      auto history_registry = std::make_shared<ViewRegistry>();
      std::vector<MinBaseAgent> minbase_agents;
      std::vector<HistoryFrequencyAgent> history_agents;
      for (std::int64_t input : inputs) {
        minbase_agents.emplace_back(registry, codec, input, kModel);
        history_agents.emplace_back(history_registry, history_codec, input);
      }
      Executor<MinBaseAgent> minbase(schedule, std::move(minbase_agents),
                                     kModel);
      Executor<HistoryFrequencyAgent> history(
          schedule, std::move(history_agents), kModel);

      const int horizon = 8 * static_cast<int>(n) + 24;
      Streak minbase_exact;
      Streak history_exact;
      for (int round = 1; round <= horizon; ++round) {
        minbase.step();
        history.step();
        bool all_minbase = true;
        bool all_history = true;
        for (Vertex v = 0; v < static_cast<Vertex>(n); ++v) {
          all_minbase = all_minbase &&
                        exact(static_census(minbase.agent(v).candidate(),
                                            *codec, kModel));
          all_history = all_history && exact(history.agent(v).census());
        }
        minbase_exact.record(round, all_minbase);
        history_exact.record(round, all_history);
      }
      const std::string where = "panel " + std::to_string(variant) +
                                (leaders ? ", agent 0 leads" : ", plain");
      EXPECT_NE(minbase_exact.since, -1) << where;
      EXPECT_NE(history_exact.since, -1) << where;
    }
  }
}

}  // namespace
}  // namespace anonet
