#pragma once

// Convergence for the two metrics the paper distinguishes (Section 2.3):
// the discrete metric δ0 — outputs must eventually *be* the value
// (finite-time computation) — and the Euclidean metric δ2 — outputs need
// only converge (asymptotic computation). `observe` is the one loop that
// runs an executor and judges its outputs in either sense.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/executor.hpp"
#include "support/rational.hpp"

namespace anonet {

// max_i |outputs[i] - target| — the δ2 distance to the goal configuration.
// +inf when any output is non-finite, so a NaN estimate never passes.
[[nodiscard]] double max_abs_error(std::span<const double> outputs,
                                   double target);

// max - min; convergence of the spread to 0 is agreement.
[[nodiscard]] double spread(std::span<const double> outputs);

template <typename T>
[[nodiscard]] bool all_equal_to(std::span<const T> outputs, const T& target) {
  return std::all_of(outputs.begin(), outputs.end(),
                     [&](const T& x) { return x == target; });
}

// What a run computed: the verdict of `observe` plus the name the caller
// gives the algorithm (core/computability.hpp returns it from attempt_*).
struct AttemptResult {
  bool success = false;
  // First round from which every agent's output was exactly f(v) and stayed
  // so (δ0 stabilization); -1 for asymptotic-only or failed attempts.
  int stabilization_round = -1;
  // Sup-distance of the final outputs from f(v): NaN when some δ0 output is
  // missing, +inf when some δ2 estimate is non-finite.
  double final_error = std::numeric_limits<double>::quiet_NaN();
  std::string mechanism;  // algorithm (or impossibility reason) used
  // Executor accounting for the attempt (campaign metrics): rounds actually
  // run and messages delivered. Both zero when the attempt was rejected
  // before running.
  std::int64_t rounds_run = 0;
  std::int64_t messages_delivered = 0;
  // Measured wire bits sent over the whole attempt (canonical MessageTraits
  // sizes, each message counted once per out-edge); -1 when the channel was
  // off (bandwidth_bits == 0) or the attempt never ran.
  std::int64_t bits_total = -1;
};

enum class StopRule {
  kHorizon,       // run every round of the horizon
  kFirstSuccess,  // stop after the first round whose outputs succeed
};

// The observation loop. Steps `executor`, which the caller has configured
// (deadline, channel policy, perturbations), for up to `rounds` rounds.
// After every round it evaluates `output(agent)` for every agent in agent
// order and judges the outputs against `truth`:
//  - δ0, when `output` returns std::optional<Rational>: a round succeeds
//    when every agent outputs exactly `truth`. `stabilization_round` is the
//    first round of the final run of successful rounds, so `success` means
//    exact and stable at the last round. `final_error` is the sup-distance
//    of the last outputs, NaN when some agent has no output. The output
//    may also be an indicator judged against `truth` = 1: 1 when the
//    agent's state is correct, nullopt when it is not.
//  - δ2, when `output` returns double: a round succeeds when its
//    max_abs_error is within `tolerance`; `final_error` is that error at
//    the last round (+inf before any round ran).
// DeadlineExceeded and wire::BandwidthExceeded escape from step() here.
// The mechanism is left empty for the caller to name.
template <typename Alg, typename OutputFn>
AttemptResult observe(Executor<Alg>& executor, int rounds,
                      const Rational& truth, double tolerance,
                      OutputFn output, StopRule stop) {
  using Output = std::invoke_result_t<OutputFn&, const Alg&>;
  constexpr bool kExact = std::is_same_v<Output, std::optional<Rational>>;
  static_assert(kExact || std::is_same_v<Output, double>,
                "observe: the output function returns "
                "std::optional<Rational> (δ0) or double (δ2)");
  const std::vector<Alg>& agents = executor.agents();
  std::vector<Output> outputs(agents.size());
  AttemptResult result;
  if constexpr (!kExact) {
    result.final_error = std::numeric_limits<double>::infinity();
  }
  for (int t = 1; t <= rounds; ++t) {
    executor.step();
    for (std::size_t i = 0; i < agents.size(); ++i) {
      outputs[i] = output(agents[i]);
    }
    if constexpr (kExact) {
      if (!all_equal_to<Output>(outputs, truth)) {
        result.stabilization_round = -1;
      } else if (result.stabilization_round == -1) {
        result.stabilization_round = t;
      }
      result.success = result.stabilization_round != -1;
    } else {
      result.final_error = max_abs_error(outputs, truth.to_double());
      result.success = result.final_error <= tolerance;
    }
    if (stop == StopRule::kFirstSuccess && result.success) break;
  }
  if constexpr (kExact) {
    std::vector<double> values;
    for (const Output& out : outputs) {
      if (!out.has_value()) break;
      values.push_back(out->to_double());
    }
    if (values.size() == outputs.size()) {
      result.final_error = max_abs_error(values, truth.to_double());
    }
  }
  result.rounds_run = executor.stats().rounds;
  result.messages_delivered = executor.stats().messages_delivered;
  if (executor.channel_policy().mode != wire::ChannelMode::kUnbounded) {
    result.bits_total = executor.bandwidth_meter().total_bits_sent();
  }
  return result;
}

}  // namespace anonet
