#include "campaign/cost_model.hpp"

#include <algorithm>

namespace anonet::campaign {

double static_estimate(const Cell& cell) {
  // Skipped rows are rendered, not simulated: negligible but nonzero.
  if (!cell.admissible) return 1e-3;

  const auto n = static_cast<double>(std::max(cell.n(), 1));

  // Per-round delivered-edge volume by schedule family (self-loops plus the
  // family's characteristic edge count; constants mirror the generators).
  double edges = n;
  switch (cell.schedule) {
    case ScheduleKind::kStaticPanel:
    case ScheduleKind::kRandomStronglyConnected:
      edges = 4.0 * n;  // out-degree-3 random graphs + self-loops
      break;
    case ScheduleKind::kRandomSymmetric:
      edges = 7.0 * n;  // both directions of ~3n edges + self-loops
      break;
    case ScheduleKind::kSpooner:
      edges = 3.0 * n;  // symmetric star bowl + self-loops
      break;
    case ScheduleKind::kUnionRing:
    case ScheduleKind::kRandomMatching:
      edges = 2.0 * n;  // sparse partial matchings + self-loops
      break;
    case ScheduleKind::kTokenRing:
      edges = n + 1.0;  // one ring edge per round
      break;
    case ScheduleKind::kGrowingGap:
      // Ring on the rare connected rounds, self-loops otherwise; the mean
      // delivered volume is dominated by the idle rounds.
      edges = 2.0 * n;
      break;
    case ScheduleKind::kPreferentialChurn:
    case ScheduleKind::kGeometricChurn:
      // Sparse symmetric backbones (~2 undirected edges per vertex) thinned
      // by ~25% churn per epoch, plus self-loops.
      edges = 3.0 * n;
      break;
  }

  // Mechanism multiplier: what one round *does* with a delivery. The auto
  // agent's non-set cells run minimum-base, history-tree or Q_N-rounding
  // machinery (superlinear); explicit estimators and gossip are linear in
  // deliveries.
  double multiplier = 1.0;
  if (cell.agent == AgentKind::kAuto && cell.function != FunctionKind::kMax) {
    multiplier = n;
  }

  // Metering encodes (or at least sizes) every message once per out-edge —
  // a constant-factor tax on the delivery volume, not a new asymptotic term.
  const double channel = cell.bandwidth_bits != 0 ? 1.5 : 1.0;

  return static_cast<double>(std::max(cell.rounds, 1)) * edges * multiplier *
         channel * 1e-4;
}

std::vector<std::size_t> cost_descending_order(const std::vector<Cell>& cells) {
  std::vector<double> costs;
  costs.reserve(cells.size());
  for (const Cell& cell : cells) costs.push_back(static_estimate(cell));
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // stable_sort on strictly-greater cost keeps equal-cost cells in index
  // order — the tie-break that makes the work order reproducible.
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

}  // namespace anonet::campaign
