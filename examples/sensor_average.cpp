// Sensor-network averaging over an unreliable wireless mesh.
//
// The motivating scenario of the paper's introduction: identical, anonymous
// temperature sensors whose radio links come and go (a dynamic symmetric
// network), which must all converge to the fleet-average temperature. Runs
// Metropolis averaging (Section 5), shows asymptotic convergence, then uses
// a deployment-time bound N on the fleet size to lock the exact average in
// finite time via Q_N rounding (Corollary 5.3's trick).
//
// Build & run:  ./examples/sensor_average

#include <cstdio>
#include <optional>
#include <random>

#include "core/metropolis.hpp"
#include "dynamics/connectivity.hpp"
#include "dynamics/schedules.hpp"
#include "runtime/convergence.hpp"
#include "runtime/executor.hpp"

using namespace anonet;

int main() {
  constexpr Vertex kSensors = 12;
  constexpr std::uint32_t kFleetBound = 16;  // deployment-time upper bound

  // Integer temperature readings in tenths of a degree.
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<std::int64_t> reading(180, 260);
  std::vector<std::int64_t> readings;
  double truth = 0.0;
  for (Vertex v = 0; v < kSensors; ++v) {
    readings.push_back(reading(rng));
    truth += static_cast<double>(readings.back());
  }
  truth /= kSensors;
  std::printf("fleet of %d anonymous sensors, true average %.3f (x0.1 C)\n",
              kSensors, truth);

  // Every round an independent random connected symmetric mesh — links flap
  // but the dynamic diameter stays finite (certified below).
  auto mesh = std::make_shared<RandomSymmetricSchedule>(kSensors, 6, 99);
  std::printf("mesh dynamic diameter over first 20 rounds: %d\n\n",
              dynamic_diameter(*mesh, 20, kSensors));

  std::vector<MetropolisAgent> scalar_agents;
  for (std::int64_t r : readings) {
    scalar_agents.emplace_back(static_cast<double>(r));
  }
  // `under<...>` fixes the model at compile time: a capability the agent
  // declares but the model hides would fail the build, not the run.
  Executor<MetropolisAgent> exec(mesh, std::move(scalar_agents),
                                 under<CommModel::kOutdegreeAware>);

  std::printf("%8s  %14s\n", "round", "max |x - avg|");
  for (int checkpoint = 0; checkpoint <= 5; ++checkpoint) {
    std::vector<double> outputs;
    for (Vertex v = 0; v < kSensors; ++v) {
      outputs.push_back(exec.agent(v).output());
    }
    std::printf("%8d  %14.6g\n", exec.round(), max_abs_error(outputs, truth));
    exec.run(40);
  }

  // Exact finite-time variant: per-value indicator averaging + rounding.
  std::vector<FrequencyMetropolisAgent> freq_agents;
  for (std::int64_t r : readings) freq_agents.emplace_back(r);
  Executor<FrequencyMetropolisAgent> exact_exec(
      mesh, std::move(freq_agents), under<CommModel::kOutdegreeAware>);
  // Each sensor scores 1 once its rounded frequency vector is the exact
  // distribution; the first round in which all of them do is the lock.
  const Frequency truth_freq = Frequency::of(readings);
  const int locked_round =
      observe(exact_exec, 2000, Rational(1), 0.0,
              [&](const FrequencyMetropolisAgent& agent)
                  -> std::optional<Rational> {
                const auto rounded = agent.rounded_frequency(kFleetBound);
                if (rounded.has_value() && *rounded == truth_freq) {
                  return Rational(1);
                }
                return std::nullopt;
              },
              StopRule::kFirstSuccess)
          .stabilization_round;
  std::printf(
      "\nwith the fleet bound N = %u, every sensor's Q_N-rounded frequency\n"
      "vector locked onto the exact distribution at round %d — from there\n"
      "the exact average %s is computed in finite time.\n",
      kFleetBound, locked_round,
      average_function().eval_frequency(truth_freq).to_string().c_str());
  return 0;
}
