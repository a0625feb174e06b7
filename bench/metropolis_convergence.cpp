// Experiment F3 — Section 5: Metropolis averaging on symmetric networks.
// The paper cites a quadratic convergence rate for networks strongly
// connected in every round [10]. We measure rounds-to-ε against n and
// report the growth ratio (should be polynomial, ~n^2, not exponential).
//
// Ablation A3 — what outdegree awareness is worth on symmetric networks.
// Section 5 contrasts Metropolis (needs the endpoint degrees) with
// degree-oblivious variants [11, 24] "but its temporal complexity is in
// O(n^4)". The uniform step 1/N (core/uniform_consensus.hpp) stands in for
// the degree-oblivious family on the same rings; a second sweep shows the
// extra cost of a loose bound N, which Metropolis by construction does not
// pay.
//
// Exits non-zero when a run hits its round cap.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/metropolis.hpp"
#include "core/uniform_consensus.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/convergence.hpp"

using namespace anonet;

namespace {

constexpr double kEps = 1e-6;
constexpr int kCap = 200000;

bool all_reached = true;

// Rounds until every output is within kEps of 1/n, from worst-case
// concentrated mass (1 on agent 0, 0 elsewhere); -1 when the cap is hit.
template <typename Agent, typename Make>
int rounds_to_eps(DynamicGraphPtr schedule, CommModel model, Make make) {
  const Vertex n = schedule->vertex_count();
  std::vector<Agent> agents;
  for (Vertex v = 0; v < n; ++v) agents.push_back(make(v == 0 ? 1.0 : 0.0));
  Executor<Agent> exec(std::move(schedule), std::move(agents), model);
  const bool reached =
      observe(exec, kCap, Rational(1, n), kEps,
              [](const Agent& agent) { return agent.output(); },
              StopRule::kFirstSuccess)
          .success;
  all_reached = all_reached && reached;
  return reached ? exec.round() : -1;
}

int metropolis_rounds(DynamicGraphPtr schedule) {
  return rounds_to_eps<MetropolisAgent>(
      std::move(schedule), CommModel::kOutdegreeAware,
      [](double mass) { return MetropolisAgent(mass); });
}

int uniform_ring_rounds(Vertex n, std::uint32_t bound) {
  return rounds_to_eps<UniformWeightAgent>(
      std::make_shared<StaticSchedule>(bidirectional_ring(n)),
      CommModel::kSymmetricBroadcast,
      [bound](double mass) { return UniformWeightAgent(mass, bound); });
}

}  // namespace

int main() {
  std::printf(
      "F3 — Metropolis averaging: rounds to eps vs n (symmetric networks), "
      "and A3 — the degree-oblivious uniform step on the same rings\n\n");
  std::printf("%6s | %18s %14s | %18s %14s | %16s | %7s\n", "n",
              "static ring", "/(n^2)", "dynamic random", "/(n^2)",
              "uniform (N = n)", "ratio");
  constexpr Vertex kSweepN = 8;
  int sweep_metropolis = -1;
  for (Vertex n : {4, 6, 8, 12, 16, 24}) {
    const int static_rounds = metropolis_rounds(
        std::make_shared<StaticSchedule>(bidirectional_ring(n)));
    const int dynamic_rounds =
        metropolis_rounds(std::make_shared<RandomSymmetricSchedule>(
            n, 2, static_cast<std::uint64_t>(n)));
    const int uniform = uniform_ring_rounds(n, static_cast<std::uint32_t>(n));
    if (n == kSweepN) sweep_metropolis = static_rounds;
    const double n2 = static_cast<double>(n) * n;
    std::printf("%6d | %18d %14.2f | %18d %14.2f | %16d | %6.1fx\n", n,
                static_rounds, static_rounds / n2, dynamic_rounds,
                dynamic_rounds / n2, uniform,
                static_cast<double>(uniform) / static_rounds);
  }
  std::printf(
      "\nShape: the /(n^2) column stays within a constant band on rings "
      "(quadratic convergence, [10]); the richly connected dynamic schedule "
      "converges faster; the oblivious step needs several times the "
      "Metropolis rounds, a gap that widens with n.\n");

  std::printf(
      "\nA loose bound makes the oblivious step slower still — Metropolis "
      "does not care about N at all (8-ring):\n\n");
  std::printf("%14s | %10s %10s %10s %10s\n", "", "N=n", "N=2n", "N=4n",
              "N=8n");
  std::printf("%14s |", "uniform");
  for (int multiplier : {1, 2, 4, 8}) {
    std::printf(" %10d",
                uniform_ring_rounds(
                    kSweepN, static_cast<std::uint32_t>(multiplier * kSweepN)));
  }
  std::printf("\n%14s | %10d %10s %10s %10s\n", "Metropolis",
              sweep_metropolis, "(same)", "(same)", "(same)");
  std::printf(
      "\nKnowing your audience buys speed: same model class, same inputs, "
      "but the degree-aware weights converge several times faster, and a "
      "loose bound costs the oblivious algorithm linearly in N — the price "
      "of anonymity-without-audience-knowledge is time, not computability "
      "(given the bound N).\n");
  if (!all_reached) std::printf("ROUND CAP %d HIT — see above.\n", kCap);
  return all_reached ? 0 : 1;
}
