#pragma once

// Campaign-cell helpers of the benchmark: verdict checks against the
// committed references, and re-execution of single cells outside the
// Runner so the traced run can split observe time from executor time.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/metrics.hpp"
#include "campaign/spec.hpp"
#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "runtime/executor.hpp"
#include "trace.hpp"

namespace perfbench {

// The canonical verdict fields of a record: key, verdict, success, exact,
// stabilization round. wall_ms and payload are left out on purpose.
[[nodiscard]] std::string verdict_fields(const anonet::campaign::CellRecord& r);

struct CampaignCheck {
  std::int64_t failed = 0;
  bool table1_matches = false;
  bool table2_matches = false;
};

// Checks one pass of a campaign workload. A cell is wrong when its verdict
// is "failed" or "timeout", when it succeeded against a failure prediction,
// when it sits in a table entry that differs from the paper (tables only),
// or when its verdict fields differ from the committed reference. Counts
// go into `tally`.
CampaignCheck check_campaign(
    const std::vector<anonet::campaign::CellRecord>& records,
    const References& refs, const std::string& workload, bool tables,
    Tally& tally);

// "<workload> <key> <digest>" per cell plus "<workload> all <digest>".
[[nodiscard]] std::vector<std::string> campaign_reference_lines(
    const std::vector<anonet::campaign::CellRecord>& records,
    const std::string& workload);

// Observe-step samples: one entry per output call.
struct ObserveSamples {
  std::vector<double> call_ms;
  std::int64_t useful = 0;
  double total_s = 0.0;
};

// Messages collected from finished re-executions, for codec timing.
struct WireSamples {
  std::vector<anonet::SetGossipAgent::Message> gossip;
  std::vector<anonet::FrequencyPushSumAgent::Message> pushsum;
  std::vector<anonet::FrequencyMetropolisAgent::Message> metropolis;
  std::vector<anonet::HistoryFrequencyAgent::Message> history;
};

// Outcome of re-executing one cell outside the Runner.
struct Reexec {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  int stabilization_round = -1;  // history cells only
  double wall_s = 0.0;
  anonet::PhaseTimings timings;
  std::size_t registry_nodes = 0;  // history cells only
};

// Cells whose observe loop the benchmark mirrors: the history-tree cells
// of the tables grid, and the explicit gossip / Push-Sum / Metropolis
// cells of the scenario grids.
[[nodiscard]] bool is_history_cell(const anonet::campaign::Cell& cell);
[[nodiscard]] bool is_explicit_cell(const anonet::campaign::Cell& cell);

// Re-executes a history or explicit cell with spans around every
// Executor::step and every observe call. Estimator and history output
// calls go into `observe`; gossip outputs are not observe work.
[[nodiscard]] Reexec reexec_cell(const anonet::campaign::Cell& cell,
                                 ObserveSamples& observe, WireSamples& wire);

// The drift guard: a re-execution must reproduce its record's rounds and
// messages (and, for history cells, the stabilization round). A mismatch is
// recorded as a failure in `tally`.
void guard_drift(const anonet::campaign::CellRecord& record,
                 const Reexec& reexec, Tally& tally);

// view(t) for t = 1..rounds on a fresh schedule instance of the cell.
struct ViewProbe {
  double seconds = 0.0;
  std::int64_t rounds = 0;
  std::int64_t edges = 0;
};
void probe_views(const anonet::campaign::Cell& cell, std::int64_t rounds,
                 ViewProbe& probe);

// One timed observe call, with a span in the core layer.
template <typename Fn>
auto observe_call(const char* name, ObserveSamples& observe, Fn&& fn) {
  const Span span("core", name);
  const auto start = Clock::now();
  auto value = fn();
  const double s = seconds_since(start);
  observe.call_ms.push_back(s * 1e3);
  observe.total_s += s;
  return value;
}

// Encode / decode ns per message for every sampled type, as
// wire.encode_ns_per_msg.<type> / wire.decode_ns_per_msg.<type>, and over
// the whole sampled mix as wire.encode_ns_per_msg / wire.decode_ns_per_msg.
void time_codecs(const WireSamples& samples, Metrics& layers);

// Reports the observe metrics (core.observe_*) from `observe`, with
// `cell_s` as the base of core.observe_share.
void report_observe(const ObserveSamples& observe, double cell_s,
                    Metrics& layers);

}  // namespace perfbench
