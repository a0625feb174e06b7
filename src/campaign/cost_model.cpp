#include "campaign/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "campaign/metrics.hpp"

namespace anonet::campaign {

std::string_view slug(ShardBy mode) {
  switch (mode) {
    case ShardBy::kIndex: return "index";
    case ShardBy::kCost: return "cost";
  }
  return "?";
}

ShardBy parse_shard_by(std::string_view text) {
  if (text == "index") return ShardBy::kIndex;
  if (text == "cost") return ShardBy::kCost;
  throw std::invalid_argument("parse_shard_by: unknown mode '" +
                              std::string(text) +
                              "' (expected index or cost)");
}

CostModel CostModel::from_timings_file(const std::string& path) {
  CostModel model;
  if (path.empty()) return model;
  for (const CellRecord& record : MetricsSink::read_file(path)) {
    if (record.wall_ms >= 0.0) model.set_measured(record.key, record.wall_ms);
  }
  return model;
}

void CostModel::set_measured(const std::string& key, double wall_ms) {
  if (wall_ms < 0.0) return;
  measured_[key] = wall_ms;
}

double CostModel::cost(const Cell& cell) const {
  if (!measured_.empty()) {
    const auto it = measured_.find(cell.key());
    if (it != measured_.end()) return it->second;
  }
  return static_estimate(cell);
}

double CostModel::static_estimate(const Cell& cell) {
  // Skipped rows are rendered, not simulated: negligible but nonzero so
  // LPT still spreads long runs of them across shards.
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
  // agent's symmetric no-help/leader cells run the history-tree exact solve,
  // whose system has at most n unknowns (the deepest window level's
  // classes); the n * n factor overstates that and is a known-stale
  // estimate until it is refit against measured --timings. Its other
  // non-set cells run minimum-base or Q_N-rounding machinery (superlinear);
  // explicit estimators and gossip are linear in deliveries.
  double multiplier = 1.0;
  if (cell.agent == AgentKind::kAuto && cell.function != FunctionKind::kMax) {
    const bool history_tree =
        cell.model == CommModel::kSymmetricBroadcast &&
        (cell.knowledge == Knowledge::kNone ||
         cell.knowledge == Knowledge::kLeaders);
    multiplier = history_tree ? n * n : n;
  }

  // Metering encodes (or at least sizes) every message once per out-edge —
  // a constant-factor tax on the delivery volume, not a new asymptotic term.
  const double channel = cell.bandwidth_bits != 0 ? 1.5 : 1.0;

  return static_cast<double>(std::max(cell.rounds, 1)) * edges * multiplier *
         channel * 1e-4;
}

std::vector<std::size_t> cost_descending_order(const std::vector<Cell>& cells,
                                               const CostModel& model) {
  std::vector<double> costs;
  costs.reserve(cells.size());
  for (const Cell& cell : cells) costs.push_back(model.cost(cell));
  std::vector<std::size_t> order(cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // stable_sort on strictly-greater cost keeps equal-cost cells in index
  // order — the tie-break that makes the schedule reproducible.
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

std::vector<int> assign_shards_by_cost(const std::vector<Cell>& cells,
                                       const CostModel& model, int shards) {
  if (shards < 1) {
    throw std::invalid_argument("assign_shards_by_cost: shards must be >= 1");
  }
  std::vector<int> assignment(cells.size(), 0);
  if (shards == 1 || cells.empty()) return assignment;
  std::vector<double> load(static_cast<std::size_t>(shards), 0.0);
  for (std::size_t pos : cost_descending_order(cells, model)) {
    int lightest = 0;
    for (int s = 1; s < shards; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(lightest)]) {
        lightest = s;
      }
    }
    assignment[pos] = lightest;
    load[static_cast<std::size_t>(lightest)] += model.cost(cells[pos]);
  }
  return assignment;
}

}  // namespace anonet::campaign
