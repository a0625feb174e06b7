#include "core/computability.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/census.hpp"
#include "core/freq_static.hpp"
#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/metropolis.hpp"
#include "core/minbase_agent.hpp"
#include "core/pushsum.hpp"
#include "core/uniform_consensus.hpp"
#include "dynamics/schedules.hpp"
#include "graph/analysis.hpp"
#include "runtime/executor.hpp"
#include "wire/codecs.hpp"
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

// Per-round agreement tracker for δ0 (exact, stable) computation.
class ExactnessTracker {
 public:
  explicit ExactnessTracker(Rational truth) : truth_(std::move(truth)) {}

  void observe(const std::vector<std::optional<Rational>>& outputs) {
    ++round_;
    const bool all_exact =
        std::all_of(outputs.begin(), outputs.end(), [&](const auto& out) {
          return out.has_value() && *out == truth_;
        });
    if (!all_exact) {
      stable_since_ = -1;
    } else if (stable_since_ == -1) {
      stable_since_ = round_;
    }
    last_outputs_ = outputs;
  }

  [[nodiscard]] int stable_since() const { return stable_since_; }

  [[nodiscard]] double final_error() const {
    double error = 0.0;
    for (const auto& out : last_outputs_) {
      if (!out.has_value()) return std::numeric_limits<double>::quiet_NaN();
      error = std::max(error,
                       std::abs(out->to_double() - truth_.to_double()));
    }
    return error;
  }

 private:
  Rational truth_;
  int round_ = 0;
  int stable_since_ = -1;
  std::vector<std::optional<Rational>> last_outputs_;
};

AttemptResult failure(std::string reason) {
  AttemptResult result;
  result.mechanism = std::move(reason);
  return result;
}

// Runs `executor` for attempt.rounds rounds, collecting per-agent exact
// outputs with `outputs_fn(agent)` after every round. An Attempt deadline
// and channel policy are armed on the executor, so DeadlineExceeded and
// wire::BandwidthExceeded escape from step() here.
template <typename Alg, typename OutputsFn>
AttemptResult run_exact(Executor<Alg>& executor, const Attempt& attempt,
                        const Rational& truth, OutputsFn outputs_fn,
                        std::string mechanism) {
  executor.set_deadline(attempt.deadline_ms);
  executor.set_channel_policy(
      wire::channel_policy_from_bits(attempt.bandwidth_bits));
  ExactnessTracker tracker(truth);
  std::vector<std::optional<Rational>> outputs(executor.agents().size());
  for (int r = 0; r < attempt.rounds; ++r) {
    executor.step();
    for (std::size_t i = 0; i < executor.agents().size(); ++i) {
      outputs[i] = outputs_fn(executor.agents()[i]);
    }
    tracker.observe(outputs);
  }
  AttemptResult result;
  result.stabilization_round = tracker.stable_since();
  result.success = result.stabilization_round != -1;
  result.final_error = tracker.final_error();
  result.mechanism = std::move(mechanism);
  result.rounds_run = executor.stats().rounds;
  result.messages_delivered = executor.stats().messages_delivered;
  result.payload_units = executor.stats().payload_units;
  if (attempt.bandwidth_bits != 0) {
    result.bits_total = executor.bandwidth_meter().total_bits_sent();
  }
  return result;
}

// Asymptotic (δ2) variant: judge only the final outputs.
template <typename Alg, typename OutputsFn>
AttemptResult run_approximate(Executor<Alg>& executor, const Attempt& attempt,
                              const Rational& truth, OutputsFn outputs_fn,
                              std::string mechanism) {
  executor.set_deadline(attempt.deadline_ms);
  executor.set_channel_policy(
      wire::channel_policy_from_bits(attempt.bandwidth_bits));
  executor.run(attempt.rounds);
  double error = 0.0;
  for (const Alg& agent : executor.agents()) {
    const double out = outputs_fn(agent);
    if (!std::isfinite(out)) {
      error = std::numeric_limits<double>::infinity();
      break;
    }
    error = std::max(error, std::abs(out - truth.to_double()));
  }
  AttemptResult result;
  result.success = error <= attempt.tolerance;
  result.final_error = error;
  result.mechanism = std::move(mechanism);
  result.rounds_run = executor.stats().rounds;
  result.messages_delivered = executor.stats().messages_delivered;
  result.payload_units = executor.stats().payload_units;
  if (attempt.bandwidth_bits != 0) {
    result.bits_total = executor.bandwidth_meter().total_bits_sent();
  }
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
  return run_exact(
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

// Turns a recovered frequency into the attempt's output value, applying the
// knowledge-specific multiset recovery when available.
std::optional<Rational> output_from_frequency(const Frequency& nu,
                                              const SymmetricFunction& f,
                                              const Attempt& attempt) {
  switch (attempt.knowledge) {
    case Knowledge::kNone:
    case Knowledge::kUpperBound: {
      if (f.declared_class() == FunctionClass::kMultisetBased) {
        return std::nullopt;
      }
      return f.eval_frequency(nu);
    }
    case Knowledge::kExactSize: {
      const auto multiset = multiset_from_frequency(nu, attempt.parameter);
      if (!multiset.has_value()) return std::nullopt;
      std::vector<std::int64_t> values;
      std::vector<BigInt> sizes;
      for (const auto& [value, count] : *multiset) {
        values.push_back(value);
        sizes.push_back(count);
      }
      const std::vector<std::int64_t> flat = expand_multiset(values, sizes);
      if (flat.empty()) return std::nullopt;
      return f(flat);
    }
    case Knowledge::kLeaders:
      // Handled by the dedicated leader paths.
      return std::nullopt;
  }
  return std::nullopt;
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

  auto leader_output =
      [&](const MinBaseAgent& agent) -> std::optional<Rational> {
    const ExtractedBase& candidate = agent.candidate();
    if (!candidate.plausible) return std::nullopt;
    const auto decoded = decode_base(candidate, *codec);
    if (!decoded.has_value()) return std::nullopt;
    std::optional<std::vector<BigInt>> ratios;
    switch (attempt.model) {
      case CommModel::kOutdegreeAware:
        if (decoded->outdegrees.empty()) return std::nullopt;
        ratios = fibre_ratios_outdegree(candidate.base, decoded->outdegrees);
        break;
      case CommModel::kSymmetricBroadcast:
        ratios = fibre_ratios_symmetric(candidate.base);
        break;
      case CommModel::kOutputPortAware:
        ratios = fibre_ratios_ports(candidate.base);
        break;
      case CommModel::kSimpleBroadcast:
        return std::nullopt;
    }
    if (!ratios.has_value()) return std::nullopt;
    std::vector<bool> leader_class(decoded->values.size(), false);
    std::vector<std::int64_t> true_values(decoded->values.size(), 0);
    for (std::size_t i = 0; i < decoded->values.size(); ++i) {
      leader_class[i] = decode_leader_flag(decoded->values[i]);
      true_values[i] = decode_leader_value(decoded->values[i]);
    }
    const auto sizes =
        fibre_sizes_with_leaders(leader_class, *ratios, attempt.parameter);
    if (!sizes.has_value()) return std::nullopt;
    const std::vector<std::int64_t> flat = expand_multiset(true_values, *sizes);
    if (flat.empty()) return std::nullopt;
    return f(flat);
  };

  auto frequency_output =
      [&](const MinBaseAgent& agent) -> std::optional<Rational> {
    const auto nu =
        static_frequency_estimate(agent.candidate(), *codec, attempt.model);
    if (!nu.has_value()) return std::nullopt;
    return output_from_frequency(*nu, f, attempt);
  };

  const std::string mechanism =
      std::string("minimum base + ") +
      (attempt.model == CommModel::kOutdegreeAware ? "fibre-equation kernel"
       : attempt.model == CommModel::kSymmetricBroadcast
           ? "eq. (4) ratio propagation"
           : "covering (eq. 3)") +
      (attempt.knowledge == Knowledge::kExactSize ? " + known n (Cor. 4.3)"
       : attempt.knowledge == Knowledge::kLeaders ? " + leaders (eq. 5)"
                                                  : "");
  if (attempt.knowledge == Knowledge::kLeaders) {
    return run_exact(executor, attempt, truth, leader_output, mechanism);
  }
  return run_exact(executor, attempt, truth, frequency_output, mechanism);
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
      return run_approximate(
          executor, attempt, truth,
          [&f](const FrequencyPushSumAgent& agent) {
            return f.eval_approximate(agent.normalized_estimates());
          },
          "Push-Sum (Algorithm 1), approximate (Cor. 5.5)");
    }
    case Knowledge::kUpperBound:
    case Knowledge::kExactSize: {
      const auto bound = static_cast<std::uint32_t>(attempt.parameter);
      return run_exact(
          executor, attempt, truth,
          [&](const FrequencyPushSumAgent& agent) -> std::optional<Rational> {
            const auto nu = agent.rounded_frequency(bound);
            if (!nu.has_value()) return std::nullopt;
            return output_from_frequency(*nu, f, attempt);
          },
          attempt.knowledge == Knowledge::kExactSize
              ? "Push-Sum + Q_N rounding + known n (Cor. 5.4)"
              : "Push-Sum + Q_N rounding (Cor. 5.3)");
    }
    case Knowledge::kLeaders: {
      const std::int64_t leaders = attempt.parameter;
      return run_exact(
          executor, attempt, truth,
          [&](const FrequencyPushSumAgent& agent) -> std::optional<Rational> {
            // ℓ·x[ω] -> integer multiplicities (Section 5.5); accept once
            // every estimate is unambiguously close to an integer.
            std::map<std::int64_t, std::int64_t> multiset;
            for (const auto& [coded, estimate] :
                 agent.multiplicity_estimates(leaders)) {
              if (!std::isfinite(estimate)) return std::nullopt;
              const double rounded = std::round(estimate);
              if (std::abs(estimate - rounded) > 0.25 || rounded < 0.0) {
                return std::nullopt;
              }
              multiset[decode_leader_value(coded)] +=
                  static_cast<std::int64_t>(rounded);
            }
            std::vector<std::int64_t> flat;
            for (const auto& [value, count] : multiset) {
              for (std::int64_t k = 0; k < count; ++k) flat.push_back(value);
            }
            if (flat.empty()) return std::nullopt;
            return f(flat);
          },
          "Push-Sum leader variant (Section 5.5)");
    }
  }
  return failure("unreachable");
}

AttemptResult run_history_symmetric(const DynamicGraphPtr& network,
                                    const std::vector<std::int64_t>& inputs,
                                    const SymmetricFunction& f,
                                    const Attempt& attempt,
                                    const Rational& truth);

// Asserts bidirectionality of every round graph: the symmetric-communications
// network class of Section 2.1 as a checked wrapper.
class SymmetricCheckedSchedule final : public DynamicGraph {
 public:
  explicit SymmetricCheckedSchedule(DynamicGraphPtr inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] Vertex vertex_count() const override {
    return inner_->vertex_count();
  }
  [[nodiscard]] Digraph at(int t) const override {
    Digraph g = inner_->at(t);
    if (!g.is_symmetric()) {
      throw std::logic_error(
          "Metropolis attempt: round graph is not symmetric");
    }
    return g;
  }

 private:
  DynamicGraphPtr inner_;
};

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
  return run_exact(
      executor, attempt, truth,
      [&](const FrequencyUniformAgent& agent) -> std::optional<Rational> {
        const auto nu = agent.rounded_frequency();
        if (!nu.has_value()) return std::nullopt;
        return output_from_frequency(*nu, f, attempt);
      },
      attempt.knowledge == Knowledge::kExactSize
          ? "uniform-weight consensus (degree-oblivious) + Q_N rounding + "
            "known n"
          : "uniform-weight consensus (degree-oblivious, after [11]) + Q_N "
            "rounding");
}

AttemptResult run_metropolis_dynamic(const DynamicGraphPtr& network,
                                     const std::vector<std::int64_t>& inputs,
                                     const SymmetricFunction& f,
                                     const Attempt& attempt,
                                     const Rational& truth) {
  if (attempt.knowledge == Knowledge::kUpperBound ||
      attempt.knowledge == Knowledge::kExactSize) {
    return run_uniform_symmetric(network, inputs, f, attempt, truth);
  }
  if (attempt.knowledge == Knowledge::kNone ||
      attempt.knowledge == Knowledge::kLeaders) {
    return run_history_symmetric(network, inputs, f, attempt, truth);
  }
  std::vector<FrequencyMetropolisAgent> agents;
  agents.reserve(inputs.size());
  for (std::int64_t input : inputs) agents.emplace_back(input);
  // Metropolis weights need round degrees, which the paper provides through
  // outdegree awareness on a symmetric network (Section 5); we therefore run
  // the executor in the outdegree-aware model but *verify* the schedule stays
  // symmetric, matching the paper's setting.
  Executor<FrequencyMetropolisAgent> executor(
      std::make_shared<SymmetricCheckedSchedule>(network), std::move(agents),
      under<CommModel::kOutdegreeAware>, attempt.seed);

  switch (attempt.knowledge) {
    case Knowledge::kNone:
      // Handled before the Metropolis executor is built (history-tree
      // classes; see run_history_symmetric).
      return failure("unreachable: symmetric no-help handled elsewhere");
    case Knowledge::kUpperBound:
    case Knowledge::kExactSize:
      // Handled before the Metropolis executor is built (degree-oblivious
      // uniform-weight consensus; see run_uniform_symmetric).
      return failure("unreachable: bounded symmetric handled elsewhere");
    case Knowledge::kLeaders:
      // Handled by run_history_symmetric.
      return failure("unreachable: symmetric leaders handled elsewhere");
  }
  return failure("unreachable");
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

  if (attempt.knowledge == Knowledge::kLeaders) {
    const std::int64_t leaders = attempt.parameter;
    return run_exact(
        executor, capped, truth,
        [&](const HistoryFrequencyAgent& agent) -> std::optional<Rational> {
          const auto multiset = agent.multiset_estimate(leaders);
          if (!multiset.has_value()) return std::nullopt;
          std::vector<std::int64_t> values;
          std::vector<BigInt> sizes;
          for (const auto& [value, count] : *multiset) {
            values.push_back(value);
            sizes.push_back(count);
          }
          const auto flat = expand_multiset(values, sizes);
          if (flat.empty()) return std::nullopt;
          return f(flat);
        },
        "history-tree classes + leaders (after Di Luna & Viglietta [25])");
  }
  return run_exact(
      executor, capped, truth,
      [&](const HistoryFrequencyAgent& agent) -> std::optional<Rational> {
        const auto nu = agent.frequency_estimate();
        if (!nu.has_value()) return std::nullopt;
        return output_from_frequency(*nu, f, attempt);
      },
      "history-tree classes (after Di Luna & Viglietta [26]), exact, no "
      "bound needed");
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
  return run_metropolis_dynamic(network, inputs, f, attempt, truth);
}

}  // namespace anonet
