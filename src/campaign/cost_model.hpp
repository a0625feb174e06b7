#pragma once

// The campaign work order (docs/campaign.md).
//
// Cell wall costs in a heterogeneous grid vary by orders of magnitude — a
// large-n Push-Sum cell near Theorem 5.2's O(n^{2D}·D·log 1/ε) worst case,
// or a history-tree cell with its per-round exact solve, dwarfs a skipped
// row or a small gossip cell. static_estimate() ranks cells by a
// deterministic estimate from their coordinates, and
// campaign::start_campaign sorts the pending cells by it, most expensive
// first, so the longest cell starts first and cannot serialize a worker's
// tail. Both campaign executors (the in-process Runner and the socket
// coordinator) consume that one order front to back. Where a cell runs
// never depends on it: a shard is `index % shards`, and the canonical
// (cell-index-sorted) output file is byte-identical whatever the order.

#include <cstddef>
#include <vector>

#include "campaign/spec.hpp"

namespace anonet::campaign {

// Estimated wall cost of a cell: round budget x per-round edge volume for
// the schedule family x a mechanism multiplier (history-tree and
// minimum-base cells pay a superlinear per-round solve). Inadmissible cells
// are recorded without running and cost (almost) nothing. Only the
// *relative* magnitudes matter.
[[nodiscard]] double static_estimate(const Cell& cell);

// Positions into `cells` sorted by descending static_estimate (ties broken
// by ascending position): the work order start_campaign hands both
// executors.
[[nodiscard]] std::vector<std::size_t> cost_descending_order(
    const std::vector<Cell>& cells);

}  // namespace anonet::campaign
