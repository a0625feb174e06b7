#pragma once

// The campaign work order (docs/campaign.md).
//
// Cell wall costs in a heterogeneous grid vary by orders of magnitude — a
// large-n Push-Sum cell near Theorem 5.2's O(n^{2D}·D·log 1/ε) worst case,
// or a history-tree cell with its per-round exact solve, dwarfs a skipped
// row or a small gossip cell. The CostModel estimates per-cell wall cost —
// preferring *measured* wall_ms from a previous run's timings JSONL,
// falling back to a deterministic static estimate from the cell's
// coordinates — and campaign::start_campaign sorts the pending cells by it,
// most expensive first, so the longest cell starts first and cannot
// serialize a worker's tail. Both campaign executors (the in-process
// Runner and the socket coordinator) consume that one order front to back.
// Where a cell runs never depends on it: a shard is `index % shards`, and
// the canonical (cell-index-sorted) output file is byte-identical whatever
// the order.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/spec.hpp"

namespace anonet::campaign {

class CostModel {
 public:
  // An empty model: every cell costs its static estimate.
  CostModel() = default;

  // Loads per-cell wall_ms measurements from a timings JSONL written by a
  // previous `--timings` run. Records without wall_ms are ignored; a
  // missing or empty file yields an empty model (static estimates only),
  // so cold-starting a campaign needs no special casing.
  [[nodiscard]] static CostModel from_timings_file(const std::string& path);

  [[nodiscard]] std::size_t measured_count() const {
    return measured_.size();
  }

  // Estimated wall cost for a cell, on the wall_ms scale: the measured
  // value when the cell's key is known, else static_estimate(). Only the
  // *relative* magnitudes matter for the work order.
  [[nodiscard]] double cost(const Cell& cell) const;

  // Deterministic fallback estimate from the cell's coordinates: round
  // budget x per-round edge volume for the schedule family x a mechanism
  // multiplier (history-tree and minimum-base cells pay a superlinear
  // per-round solve). Inadmissible cells are recorded without running and
  // cost (almost) nothing.
  [[nodiscard]] static double static_estimate(const Cell& cell);

 private:
  std::unordered_map<std::string, double> measured_;
};

// Positions into `cells` sorted by descending cost (ties broken by
// ascending position): the work order start_campaign hands both executors.
[[nodiscard]] std::vector<std::size_t> cost_descending_order(
    const std::vector<Cell>& cells, const CostModel& model);

}  // namespace anonet::campaign
