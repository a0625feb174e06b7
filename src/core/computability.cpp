#include "core/computability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/census.hpp"
#include "core/freq_static.hpp"
#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/minbase_agent.hpp"
#include "core/pushsum.hpp"
#include "core/uniform_consensus.hpp"
#include "dynamics/schedules.hpp"
#include "graph/analysis.hpp"
#include "runtime/convergence.hpp"
#include "runtime/executor.hpp"
#include "wire/meter.hpp"

namespace anonet {

namespace {

std::vector<std::int64_t> decoded_inputs(
    const std::vector<std::int64_t>& inputs, Knowledge knowledge) {
  if (knowledge != Knowledge::kLeaders) return inputs;
  std::vector<std::int64_t> result;
  result.reserve(inputs.size());
  for (std::int64_t coded : inputs) {
    result.push_back(decode_leader_value(coded));
  }
  return result;
}

// Centralized help must describe the network it comes with: the output
// layer builds multisets from a known n or ℓ, so help that contradicts the
// inputs would compute f of another network (or expand a huge multiset).
void check_help(const char* entry, const std::vector<std::int64_t>& inputs,
                const Attempt& attempt) {
  const auto n = static_cast<std::int64_t>(inputs.size());
  const char* problem = nullptr;
  switch (attempt.knowledge) {
    case Knowledge::kNone:
      break;
    case Knowledge::kUpperBound:
      if (attempt.parameter < n) problem = "a bound N must be at least n";
      break;
    case Knowledge::kExactSize:
      if (attempt.parameter != n) problem = "a known n must be the input count";
      break;
    case Knowledge::kLeaders:
      if (attempt.parameter < 1 ||
          attempt.parameter != std::count_if(inputs.begin(), inputs.end(),
                                             decode_leader_flag)) {
        problem = "ℓ must be the number of leader-flagged inputs, at least 1";
      }
      break;
  }
  if (problem != nullptr) {
    throw std::invalid_argument(std::string(entry) + ": " + problem);
  }
}

AttemptResult failure(std::string reason) {
  AttemptResult result;
  result.mechanism = std::move(reason);
  return result;
}

// Arms the attempt's deadline and channel policy on `executor` and runs
// the whole horizon through the observation loop (runtime/convergence.hpp),
// so DeadlineExceeded and wire::BandwidthExceeded escape from here.
template <typename Alg, typename OutputFn>
AttemptResult run_attempt(Executor<Alg>& executor, const Attempt& attempt,
                          const Rational& truth, OutputFn output,
                          std::string mechanism) {
  executor.set_deadline(attempt.deadline_ms);
  executor.set_channel_policy(
      wire::channel_policy_from_bits(attempt.bandwidth_bits));
  AttemptResult result = observe(executor, attempt.rounds, truth,
                                 attempt.tolerance, output,
                                 StopRule::kHorizon);
  result.mechanism = std::move(mechanism);
  return result;
}

AttemptResult run_gossip(const DynamicGraphPtr& network,
                         const std::vector<std::int64_t>& inputs,
                         const SymmetricFunction& f, const Attempt& attempt,
                         const Rational& truth) {
  std::vector<SetGossipAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) agents.emplace_back(input);
  Executor<SetGossipAgent> executor(network, std::move(agents), attempt.model,
                                    attempt.seed);
  // Under leader coding the set of *values* is the decoded support: agents
  // strip the (commonly known) flag bit before applying f.
  const bool leader_coded = attempt.knowledge == Knowledge::kLeaders;
  return run_attempt(
      executor, attempt, truth,
      [&f, leader_coded](const SetGossipAgent& agent)
          -> std::optional<Rational> {
        if (!leader_coded) return agent.output(f);
        std::set<std::int64_t> decoded;
        for (std::int64_t coded : agent.known()) {
          decoded.insert(decode_leader_value(coded));
        }
        return f(std::vector<std::int64_t>(decoded.begin(), decoded.end()));
      },
      "gossip (set flooding)");
}

// --- the output layer --------------------------------------------------------

// f of the multiset with these multiplicities; nullopt when it is empty.
std::optional<Rational> apply_to_multiset(
    const SymmetricFunction& f,
    const std::map<std::int64_t, BigInt>& multiset) {
  std::vector<std::int64_t> values;
  std::vector<BigInt> counts;
  for (const auto& [value, count] : multiset) {
    values.push_back(value);
    counts.push_back(count);
  }
  const std::vector<std::int64_t> flat = expand_multiset(values, counts);
  if (flat.empty()) return std::nullopt;
  return f(flat);
}

// f(v) from an exact frequency: ν itself with no help or a bound on n, and
// with n known the multiset ν(ω)·n, checked per value (Cor. 4.3).
std::optional<Rational> output_from_frequency(
    const std::optional<Frequency>& nu, const SymmetricFunction& f,
    const Attempt& attempt) {
  if (!nu.has_value()) return std::nullopt;
  if (attempt.knowledge == Knowledge::kExactSize) {
    const auto multiset = multiset_from_frequency(*nu, attempt.parameter);
    if (!multiset.has_value()) return std::nullopt;
    return apply_to_multiset(f, *multiset);
  }
  if (f.declared_class() == FunctionClass::kMultisetBased) return std::nullopt;
  return f.eval_frequency(*nu);
}

// f(v) from an exact mechanism's census, at every knowledge level. Known n
// goes through ν and is checked per value; leaders fix the common factor by
// eq. (5), checked per class (Cor. 4.4).
std::optional<Rational> output_from_census(
    const std::optional<ClassCensus>& census, const SymmetricFunction& f,
    const Attempt& attempt) {
  if (!census.has_value()) return std::nullopt;
  if (attempt.knowledge == Knowledge::kLeaders) {
    const auto multiset = multiset_with_leaders(*census, attempt.parameter);
    if (!multiset.has_value()) return std::nullopt;
    return apply_to_multiset(f, *multiset);
  }
  return output_from_frequency(
      frequency_from_ratios(census->values, census->sizes), f, attempt);
}

// --- static attempts ---------------------------------------------------------

AttemptResult run_minbase_static(const Digraph& g,
                                 const std::vector<std::int64_t>& inputs,
                                 const SymmetricFunction& f,
                                 const Attempt& attempt,
                                 const Rational& truth) {
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<MinBaseAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input, attempt.model);
  }
  Executor<MinBaseAgent> executor(std::make_shared<StaticSchedule>(g),
                                  std::move(agents), attempt.model,
                                  attempt.seed);

  const std::string mechanism =
      std::string("minimum base + ") +
      (attempt.model == CommModel::kOutdegreeAware ? "fibre-equation kernel"
       : attempt.model == CommModel::kSymmetricBroadcast
           ? "eq. (4) ratio propagation"
           : "covering (eq. 3)") +
      (attempt.knowledge == Knowledge::kExactSize ? " + known n (Cor. 4.3)"
       : attempt.knowledge == Knowledge::kLeaders ? " + leaders (eq. 5)"
                                                  : "");
  return run_attempt(
      executor, attempt, truth,
      [&](const MinBaseAgent& agent) {
        return output_from_census(
            static_census(agent.candidate(), *codec, attempt.model), f,
            attempt);
      },
      mechanism);
}

// --- dynamic attempts --------------------------------------------------------

AttemptResult run_pushsum_dynamic(const DynamicGraphPtr& network,
                                  const std::vector<std::int64_t>& inputs,
                                  const SymmetricFunction& f,
                                  const Attempt& attempt,
                                  const Rational& truth) {
  std::vector<FrequencyPushSumAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) {
    if (attempt.knowledge == Knowledge::kLeaders) {
      agents.emplace_back(input, decode_leader_flag(input));
    } else {
      agents.emplace_back(input);
    }
  }
  // The model is structurally kOutdegreeAware on this path (attempt_dynamic
  // dispatches here for exactly that model); saying so with a ModelTag turns
  // the agent/model pairing check into a compile-time static_assert.
  Executor<FrequencyPushSumAgent> executor(network, std::move(agents),
                                           under<CommModel::kOutdegreeAware>,
                                           attempt.seed);

  switch (attempt.knowledge) {
    case Knowledge::kNone: {
      if (!f.continuous_in_frequency()) {
        return failure(
            "impossible without a bound on n unless f is continuous in "
            "frequency (Cor. 5.5)");
      }
      return run_attempt(
          executor, attempt, truth,
          [&f](const FrequencyPushSumAgent& agent) {
            return f.eval_approximate(agent.normalized_estimates());
          },
          "Push-Sum (Algorithm 1), approximate (Cor. 5.5)");
    }
    case Knowledge::kUpperBound:
    case Knowledge::kExactSize: {
      const auto bound = static_cast<std::uint32_t>(attempt.parameter);
      return run_attempt(
          executor, attempt, truth,
          [&](const FrequencyPushSumAgent& agent) {
            return output_from_frequency(agent.rounded_frequency(bound), f,
                                         attempt);
          },
          attempt.knowledge == Knowledge::kExactSize
              ? "Push-Sum + Q_N rounding + known n (Cor. 5.4)"
              : "Push-Sum + Q_N rounding (Cor. 5.3)");
    }
    case Knowledge::kLeaders: {
      const std::int64_t leaders = attempt.parameter;
      return run_attempt(
          executor, attempt, truth,
          [&](const FrequencyPushSumAgent& agent) -> std::optional<Rational> {
            // ℓ·x[ω] -> integer multiplicities (Section 5.5); accept once
            // every estimate is unambiguously close to an integer.
            std::map<std::int64_t, BigInt> multiset;
            for (const auto& [coded, estimate] :
                 agent.multiplicity_estimates(leaders)) {
              if (!std::isfinite(estimate)) return std::nullopt;
              const double rounded = std::round(estimate);
              if (std::abs(estimate - rounded) > 0.25 || rounded < 0.0) {
                return std::nullopt;
              }
              multiset[decode_leader_value(coded)] +=
                  BigInt(static_cast<std::int64_t>(rounded));
            }
            return apply_to_multiset(f, multiset);
          },
          "Push-Sum leader variant (Section 5.5)");
    }
  }
  return failure("unreachable");
}

// Bounded-knowledge symmetric cells: uniform-weight consensus with step 1/N
// is *degree-oblivious* — a genuine simple-broadcast sending function — so
// these cells run strictly inside the symmetric-communications model, with
// no outdegree-awareness substitution (cf. the paper's [11, 24] remark).
AttemptResult run_uniform_symmetric(const DynamicGraphPtr& network,
                                    const std::vector<std::int64_t>& inputs,
                                    const SymmetricFunction& f,
                                    const Attempt& attempt,
                                    const Rational& truth) {
  const auto bound = static_cast<std::uint32_t>(attempt.parameter);
  std::vector<FrequencyUniformAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) agents.emplace_back(input, bound);
  Executor<FrequencyUniformAgent> executor(
      network, std::move(agents), under<CommModel::kSymmetricBroadcast>,
      attempt.seed);
  return run_attempt(
      executor, attempt, truth,
      [&](const FrequencyUniformAgent& agent) {
        return output_from_frequency(agent.rounded_frequency(), f, attempt);
      },
      attempt.knowledge == Knowledge::kExactSize
          ? "uniform-weight consensus (degree-oblivious) + Q_N rounding + "
            "known n"
          : "uniform-weight consensus (degree-oblivious, after [11]) + Q_N "
            "rounding");
}

// No-help and leader cells of the symmetric column: history-tree classes
// (core/history_tree.hpp, after Di Luna & Viglietta [25, 26]) compute the
// class cardinalities exactly with no bound on n and no outdegree
// awareness. The 8n + 24 horizon, well past 2D + the solver window, is a
// coordinate of the recorded verdicts rather than a cost bound: changing it
// moves the rounds and messages these cells report, and can move their
// stabilization round.
AttemptResult run_history_symmetric(const DynamicGraphPtr& network,
                                    const std::vector<std::int64_t>& inputs,
                                    const SymmetricFunction& f,
                                    const Attempt& attempt,
                                    const Rational& truth) {
  auto registry = std::make_shared<ViewRegistry>();
  auto codec = std::make_shared<LabelCodec>();
  std::vector<HistoryFrequencyAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input);
  }
  Executor<HistoryFrequencyAgent> executor(
      network, std::move(agents), under<CommModel::kSymmetricBroadcast>,
      attempt.seed);
  Attempt capped = attempt;
  capped.rounds =
      std::min(attempt.rounds,
               8 * static_cast<int>(inputs.size()) + 24);

  return run_attempt(
      executor, capped, truth,
      [&](const HistoryFrequencyAgent& agent) {
        return output_from_census(agent.census(), f, attempt);
      },
      attempt.knowledge == Knowledge::kLeaders
          ? "history-tree classes + leaders (after Di Luna & Viglietta [25])"
          : "history-tree classes (after Di Luna & Viglietta [26]), exact, "
            "no bound needed");
}

}  // namespace

std::string_view to_string(Knowledge knowledge) {
  switch (knowledge) {
    case Knowledge::kNone:
      return "no centralized help";
    case Knowledge::kUpperBound:
      return "a bound over n is known";
    case Knowledge::kExactSize:
      return "n is known";
    case Knowledge::kLeaders:
      return "leader(s)";
  }
  return "unknown";
}

Rational ground_truth(const std::vector<std::int64_t>& inputs,
                      const SymmetricFunction& f, Knowledge knowledge) {
  return f(decoded_inputs(inputs, knowledge));
}

AttemptResult attempt_static(const Digraph& g,
                             const std::vector<std::int64_t>& inputs,
                             const SymmetricFunction& f,
                             const Attempt& attempt) {
  if (inputs.size() != static_cast<std::size_t>(g.vertex_count())) {
    throw std::invalid_argument("attempt_static: one input per vertex");
  }
  check_help("attempt_static", inputs, attempt);
  if (!is_strongly_connected(g)) {
    throw std::invalid_argument("attempt_static: graph must be strongly "
                                "connected (the class of Theorem 4.1)");
  }
  if (attempt.model == CommModel::kSymmetricBroadcast && !g.is_symmetric()) {
    throw std::invalid_argument(
        "attempt_static: symmetric model requires a symmetric graph");
  }
  Digraph prepared = g;
  prepared.ensure_self_loops();
  if (attempt.model == CommModel::kOutputPortAware) {
    prepared.assign_output_ports();
  }
  const Rational truth = ground_truth(inputs, f, attempt.knowledge);

  // Set-based functions: gossip computes them in every cell of Table 1.
  if (f.declared_class() == FunctionClass::kSetBased) {
    return run_gossip(std::make_shared<StaticSchedule>(prepared), inputs, f,
                      attempt, truth);
  }
  if (attempt.model == CommModel::kSimpleBroadcast) {
    return failure(
        "impossible: simple broadcast computes only set-based functions "
        "(Hendrickx et al.; Boldi & Vigna for known n)");
  }
  if (f.declared_class() == FunctionClass::kMultisetBased &&
      (attempt.knowledge == Knowledge::kNone ||
       attempt.knowledge == Knowledge::kUpperBound)) {
    return failure(
        "impossible: without n or a leader only frequency-based functions "
        "are computable (Theorem 4.1, Cor. 4.2)");
  }
  return run_minbase_static(prepared, inputs, f, attempt, truth);
}

AttemptResult attempt_dynamic(const DynamicGraphPtr& network,
                              const std::vector<std::int64_t>& inputs,
                              const SymmetricFunction& f,
                              const Attempt& attempt) {
  if (network == nullptr) {
    throw std::invalid_argument("attempt_dynamic: null network");
  }
  if (inputs.size() != static_cast<std::size_t>(network->vertex_count())) {
    throw std::invalid_argument("attempt_dynamic: one input per vertex");
  }
  // A bound or n reaches the agents as a uint32 Q_N denominator.
  if ((attempt.knowledge == Knowledge::kUpperBound ||
       attempt.knowledge == Knowledge::kExactSize) &&
      (attempt.parameter < 1 ||
       attempt.parameter > std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument(
        "attempt_dynamic: a bound or n must lie in [1, 2^32 - 1]");
  }
  check_help("attempt_dynamic", inputs, attempt);
  const Rational truth = ground_truth(inputs, f, attempt.knowledge);

  if (f.declared_class() == FunctionClass::kSetBased) {
    return run_gossip(network, inputs, f, attempt, truth);
  }
  if (attempt.model == CommModel::kSimpleBroadcast) {
    return failure(
        "impossible: simple broadcast computes only set-based functions "
        "(Hendrickx et al.)");
  }
  if (f.declared_class() == FunctionClass::kMultisetBased &&
      (attempt.knowledge == Knowledge::kNone ||
       attempt.knowledge == Knowledge::kUpperBound)) {
    return failure(
        "impossible: without n or a leader only frequency-based functions "
        "are computable (Cor. 5.3)");
  }
  if (attempt.model == CommModel::kOutputPortAware) {
    return failure(
        "output port awareness is only meaningful for static networks "
        "(Section 2.2)");
  }
  if (attempt.model == CommModel::kOutdegreeAware) {
    return run_pushsum_dynamic(network, inputs, f, attempt, truth);
  }
  if (attempt.knowledge == Knowledge::kUpperBound ||
      attempt.knowledge == Knowledge::kExactSize) {
    return run_uniform_symmetric(network, inputs, f, attempt, truth);
  }
  return run_history_symmetric(network, inputs, f, attempt, truth);
}

}  // namespace anonet
