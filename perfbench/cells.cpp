#include "cells.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/census.hpp"
#include "core/computability.hpp"
#include "dynamics/adversarial.hpp"
#include "dynamics/perturbation.hpp"
#include "dynamics/schedules.hpp"
#include "trace.hpp"
#include "wire/codecs.hpp"
#include "wire/meter.hpp"

namespace perfbench {

using anonet::campaign::AgentKind;
using anonet::campaign::Cell;
using anonet::campaign::CellRecord;
using anonet::campaign::FaultsKind;
using anonet::campaign::ScheduleKind;
using anonet::campaign::StartsKind;

namespace {

// The Runner's private cell set-up, mirrored: schedule factory parameters
// and perturbation constants (campaign/runner.cpp). guard_drift catches any
// divergence from the Runner's own runs.
constexpr int kSpoonerPeriod = 5;
constexpr int kUnionRingParts = 3;
constexpr int kStaggerStride = 2;
constexpr int kStragglerWake = 25;
constexpr int kCrashRound = 1;
constexpr double kDropRate = 0.30;
constexpr std::size_t kMaxWireSamples = 4096;

anonet::DynamicGraphPtr make_cell_schedule(const Cell& cell) {
  const auto n = static_cast<anonet::Vertex>(cell.n());
  switch (cell.schedule) {
    case ScheduleKind::kStaticPanel:
      return std::make_shared<anonet::StaticSchedule>(
          anonet::campaign::make_static_panel(cell.model, cell.variant).graph);
    case ScheduleKind::kRandomStronglyConnected:
      return std::make_shared<anonet::RandomStronglyConnectedSchedule>(
          n, 3, cell.seed);
    case ScheduleKind::kRandomSymmetric:
      return std::make_shared<anonet::RandomSymmetricSchedule>(n, 3,
                                                               cell.seed);
    case ScheduleKind::kRandomMatching:
      return std::make_shared<anonet::RandomMatchingSchedule>(n, cell.seed);
    case ScheduleKind::kTokenRing:
      return std::make_shared<anonet::TokenRingSchedule>(n);
    case ScheduleKind::kSpooner:
      return std::make_shared<anonet::SpoonerSchedule>(n, kSpoonerPeriod);
    case ScheduleKind::kUnionRing:
      return std::make_shared<anonet::UnionRingSchedule>(n, kUnionRingParts);
    case ScheduleKind::kGrowingGap:
      return std::make_shared<anonet::GrowingGapRingSchedule>(n);
    case ScheduleKind::kPreferentialChurn:
      return anonet::preferential_churn_schedule(n, cell.seed);
    case ScheduleKind::kGeometricChurn:
      return anonet::geometric_churn_schedule(n, cell.seed);
  }
  throw std::invalid_argument("perfbench: unknown schedule kind");
}

template <typename Agent>
void configure_cell(anonet::Executor<Agent>& executor, const Cell& cell) {
  executor.set_deadline(cell.timeout_ms);
  executor.set_channel_policy(
      anonet::wire::channel_policy_from_bits(cell.bandwidth_bits));
  const auto n = static_cast<anonet::Vertex>(cell.n());
  switch (cell.starts) {
    case StartsKind::kSynchronous:
      break;
    case StartsKind::kStaggered:
      executor.set_start_schedule(
          anonet::StartSchedule::staggered(n, kStaggerStride));
      break;
    case StartsKind::kStraggler:
      executor.set_start_schedule(
          anonet::StartSchedule::straggler(n, kStragglerWake));
      break;
  }
  if (cell.faults == FaultsKind::kNone) return;
  anonet::FaultPlan plan;
  if (cell.faults == FaultsKind::kCrash ||
      cell.faults == FaultsKind::kCrashDrop) {
    plan = anonet::FaultPlan::crash_first_agent(n, kCrashRound);
  }
  if (cell.faults == FaultsKind::kDrop ||
      cell.faults == FaultsKind::kCrashDrop) {
    plan.drop_rate = kDropRate;
    plan.drop_seed = cell.seed ^ 0x9e3779b97f4a7c15ull;
  }
  executor.set_fault_plan(std::move(plan));
}

template <typename Message>
void keep_sample(std::vector<Message>& samples, Message message) {
  if (samples.size() < kMaxWireSamples) samples.push_back(std::move(message));
}

template <typename Agent>
void finish(const anonet::Executor<Agent>& executor, Reexec& out) {
  out.rounds = executor.stats().rounds;
  out.messages = executor.stats().messages_delivered;
  out.timings = executor.stats().timings;
}

void step(auto& executor) {
  const Span span("runtime", "Executor::step");
  executor.step();
}

// Mirrors computability.cpp's run_history_symmetric under run_exact.
void run_history(const Cell& cell, ObserveSamples& observe, WireSamples& wire,
                 Reexec& out) {
  const bool leaders = cell.knowledge == anonet::Knowledge::kLeaders;
  std::vector<std::int64_t> inputs;
  for (std::size_t i = 0; i < cell.inputs.size(); ++i) {
    inputs.push_back(leaders
                         ? anonet::encode_leader_input(cell.inputs[i], i == 0)
                         : cell.inputs[i]);
  }
  auto registry = std::make_shared<anonet::ViewRegistry>();
  auto codec = std::make_shared<anonet::LabelCodec>();
  std::vector<anonet::HistoryFrequencyAgent> agents;
  for (const std::int64_t input : inputs) {
    agents.emplace_back(registry, codec, input);
  }
  anonet::Executor<anonet::HistoryFrequencyAgent> executor(
      make_cell_schedule(cell), std::move(agents),
      anonet::under<anonet::CommModel::kSymmetricBroadcast>, cell.seed);
  executor.set_deadline(cell.timeout_ms);
  const anonet::SymmetricFunction f =
      anonet::campaign::make_function(cell.function);
  const anonet::Rational truth =
      anonet::ground_truth(inputs, f, cell.knowledge);
  const int rounds = std::min(cell.rounds, 8 * cell.n() + 24);
  int stable_since = -1;
  for (int r = 1; r <= rounds; ++r) {
    step(executor);
    bool all_exact = true;
    for (const anonet::HistoryFrequencyAgent& agent : executor.agents()) {
      std::optional<anonet::Rational> output;
      if (leaders) {
        const auto multiset = observe_call(
            "HistoryFrequencyAgent::multiset_estimate", observe,
            [&] { return agent.multiset_estimate(1); });
        if (multiset.has_value()) {
          ++observe.useful;
          std::vector<std::int64_t> values;
          std::vector<anonet::BigInt> sizes;
          for (const auto& [value, count] : *multiset) {
            values.push_back(value);
            sizes.push_back(count);
          }
          const auto flat = anonet::expand_multiset(values, sizes);
          if (!flat.empty()) output = f(flat);
        }
      } else {
        const auto nu = observe_call(
            "HistoryFrequencyAgent::frequency_estimate", observe,
            [&] { return agent.frequency_estimate(); });
        if (nu.has_value()) {
          ++observe.useful;
          output = f.eval_frequency(*nu);
        }
      }
      all_exact = all_exact && output.has_value() && *output == truth;
    }
    if (!all_exact) {
      stable_since = -1;
    } else if (stable_since == -1) {
      stable_since = r;
    }
  }
  finish(executor, out);
  out.stabilization_round = stable_since;
  out.registry_nodes = registry->size();
  for (const auto& agent : executor.agents()) {
    keep_sample(wire.history, agent.send(0, 0));
  }
}

// Mirrors runner.cpp's run_gossip.
void run_gossip(const Cell& cell, WireSamples& wire, Reexec& out) {
  std::vector<anonet::SetGossipAgent> agents;
  for (const std::int64_t input : cell.inputs) agents.emplace_back(input);
  anonet::Executor<anonet::SetGossipAgent> executor(
      make_cell_schedule(cell), std::move(agents), cell.model, cell.seed);
  configure_cell(executor, cell);
  const anonet::SymmetricFunction f =
      anonet::campaign::make_function(cell.function);
  const anonet::Rational truth =
      anonet::ground_truth(cell.inputs, f, anonet::Knowledge::kNone);
  for (int t = 1; t <= cell.rounds; ++t) {
    step(executor);
    bool all_exact = true;
    for (const anonet::SetGossipAgent& agent : executor.agents()) {
      if (agent.output(f) != truth) {
        all_exact = false;
        break;
      }
    }
    if (all_exact) break;
  }
  finish(executor, out);
  for (const auto& agent : executor.agents()) {
    keep_sample(wire.gossip, agent.send(0, 0));
  }
}

// Mirrors runner.cpp's run_frequency_estimator: the estimator error loop.
template <typename Agent, typename EstimateFn>
void run_estimator(const Cell& cell, ObserveSamples& observe,
                   std::vector<typename Agent::Message>& samples,
                   const char* name, EstimateFn&& estimate, Reexec& out) {
  std::vector<Agent> agents;
  for (const std::int64_t input : cell.inputs) agents.emplace_back(input);
  anonet::Executor<Agent> executor(make_cell_schedule(cell),
                                   std::move(agents), cell.model, cell.seed);
  configure_cell(executor, cell);
  const anonet::SymmetricFunction f =
      anonet::campaign::make_function(cell.function);
  const double truth =
      anonet::ground_truth(cell.inputs, f, anonet::Knowledge::kNone)
          .to_double();
  for (int t = 1; t <= cell.rounds; ++t) {
    step(executor);
    double error = 0.0;
    for (const Agent& agent : executor.agents()) {
      const double value = observe_call(
          name, observe, [&] { return f.eval_approximate(estimate(agent)); });
      if (std::isfinite(value)) ++observe.useful;
      error = std::max(error, std::abs(value - truth));
    }
    if (error <= cell.tolerance) break;
  }
  finish(executor, out);
  for (const auto& agent : executor.agents()) {
    keep_sample(samples, agent.send(3, 0));
  }
}

// Encode (or decode) every sample repeatedly for at least 20 ms; returns
// ns per message. `sink` keeps the results observable.
template <typename Fn>
double ns_per_message(std::size_t count, std::int64_t& sink, Fn&& one) {
  std::int64_t done = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t i = 0; i < count; ++i) sink += one(i);
    done += static_cast<std::int64_t>(count);
  } while (seconds_since(start) < 0.02);
  return seconds_since(start) * 1e9 / static_cast<double>(done);
}

// Codec totals across message types, for the workload's message mix.
struct CodecTotals {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::size_t messages = 0;
};

template <typename Msg>
void time_codec(const char* type, const std::vector<Msg>& samples,
                Metrics& layers, CodecTotals& totals) {
  if (samples.empty()) return;
  std::int64_t bits = 0;
  double encode = 0.0;
  {
    const Span span("wire", "wire::encode");
    encode = ns_per_message(samples.size(), bits, [&](std::size_t i) {
      anonet::wire::BitWriter writer;
      anonet::wire::encode(samples[i], writer);
      return writer.bit_size();
    });
  }
  std::vector<anonet::wire::BitWriter> encoded(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    anonet::wire::encode(samples[i], encoded[i]);
  }
  double decode = 0.0;
  {
    const Span span("wire", "wire::decode");
    decode = ns_per_message(encoded.size(), bits, [&](std::size_t i) {
      anonet::wire::BitReader reader(encoded[i]);
      return anonet::wire::encoded_bits(anonet::wire::decode<Msg>(reader));
    });
  }
  if (bits <= 0) throw std::logic_error("perfbench: empty codec samples");
  layers.set(std::string("wire.encode_ns_per_msg.") + type, encode, "ns");
  layers.set(std::string("wire.decode_ns_per_msg.") + type, decode, "ns");
  const auto n = static_cast<double>(samples.size());
  totals.encode_ns += encode * n;
  totals.decode_ns += decode * n;
  totals.messages += samples.size();
}

}  // namespace

std::string verdict_fields(const CellRecord& r) {
  return r.key + "|" + r.verdict + "|" + (r.success ? "1" : "0") + "|" +
         (r.exact ? "1" : "0") + "|" + std::to_string(r.stabilization_round);
}

CampaignCheck check_campaign(const std::vector<CellRecord>& records,
                             const References& refs,
                             const std::string& workload, bool tables,
                             Tally& tally) {
  CampaignCheck check;
  std::vector<bool> wrong(records.size(), false);
  std::vector<std::string> why(records.size());
  const auto mark = [&](std::size_t i, const std::string& reason) {
    if (!wrong[i]) why[i] = reason;
    wrong[i] = true;
  };
  std::uint64_t all = fnv1a("");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CellRecord& r = records[i];
    const std::string fields = verdict_fields(r);
    all = fnv1a(fields + "\n", all);
    if (r.verdict == "failed" || r.verdict == "timeout") {
      mark(i, "verdict " + r.verdict + ": " + r.reason);
    }
    if (r.predicted && r.verdict == "ok") mark(i, "prediction mismatch");
    const std::string expected = refs.find(workload, r.key);
    if (expected.empty()) {
      mark(i, "no reference");
    } else if (expected != hex64(fnv1a(fields))) {
      mark(i, "verdict fields differ from the reference: " + fields);
    }
  }
  if (tables) {
    for (const std::string suite : {"table1", "table2"}) {
      const anonet::campaign::TableComparison table =
          anonet::campaign::compare_table(records, suite);
      (suite == "table1" ? check.table1_matches : check.table2_matches) =
          table.all_match;
      if (table.all_match) continue;
      bool located = false;
      for (std::size_t row = 0; row < table.rows.size(); ++row) {
        for (std::size_t col = 0; col < table.cols.size(); ++col) {
          const std::string& got = table.measured[row][col];
          const bool bad = table.open[row][col]
                               ? got != "skipped"
                               : got != table.paper[row][col];
          if (!bad) continue;
          for (std::size_t i = 0; i < records.size(); ++i) {
            if (records[i].suite == suite &&
                records[i].knowledge ==
                    anonet::campaign::slug(table.rows[row]) &&
                records[i].model == anonet::campaign::slug(table.cols[col])) {
              mark(i, suite + " entry differs from the paper");
              located = true;
            }
          }
        }
      }
      if (!located) tally.fail(suite + " does not match the paper");
    }
  }
  const std::string expected_all = refs.find(workload, "all");
  if (expected_all != hex64(all)) {
    tally.fail(workload + " verdict digest " + hex64(all) +
               " differs from the reference " +
               (expected_all.empty() ? "(none)" : expected_all));
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!wrong[i]) continue;
    ++check.failed;
    tally.fail(records[i].key + ": " + why[i]);
  }
  tally.attempted += static_cast<std::int64_t>(records.size());
  return check;
}

std::vector<std::string> campaign_reference_lines(
    const std::vector<CellRecord>& records, const std::string& workload) {
  std::vector<std::string> lines;
  std::uint64_t all = fnv1a("");
  for (const CellRecord& r : records) {
    const std::string fields = verdict_fields(r);
    all = fnv1a(fields + "\n", all);
    lines.push_back(workload + " " + r.key + " " + hex64(fnv1a(fields)));
  }
  lines.push_back(workload + " all " + hex64(all));
  return lines;
}

bool is_history_cell(const Cell& cell) {
  // computability.cpp sends these to run_history_symmetric: auto agent on a
  // dynamic symmetric schedule, no help or leaders, a non-set function, and
  // not a multiset function without leaders.
  using anonet::campaign::FunctionKind;
  return cell.admissible && cell.agent == AgentKind::kAuto &&
         cell.schedule != ScheduleKind::kStaticPanel &&
         cell.model == anonet::CommModel::kSymmetricBroadcast &&
         cell.function != FunctionKind::kMax &&
         (cell.knowledge == anonet::Knowledge::kLeaders ||
          (cell.knowledge == anonet::Knowledge::kNone &&
           cell.function == FunctionKind::kAverage));
}

bool is_explicit_cell(const Cell& cell) {
  return cell.admissible && cell.agent != AgentKind::kAuto;
}

Reexec reexec_cell(const Cell& cell, ObserveSamples& observe,
                   WireSamples& wire) {
  if (!is_history_cell(cell) && !is_explicit_cell(cell)) {
    throw std::logic_error("perfbench: reexec_cell needs a history or "
                           "explicit cell, got " + cell.key());
  }
  Reexec out;
  const auto start = Clock::now();
  // Exceptions map to rounds and messages exactly as Runner::run_cell
  // records them.
  try {
    if (is_history_cell(cell)) {
      run_history(cell, observe, wire, out);
    } else {
      switch (cell.agent) {
        case AgentKind::kSetGossip:
          run_gossip(cell, wire, out);
          break;
        case AgentKind::kFrequencyPushSum:
          run_estimator<anonet::FrequencyPushSumAgent>(
              cell, observe, wire.pushsum,
              "FrequencyPushSumAgent::normalized_estimates",
              [](const anonet::FrequencyPushSumAgent& agent) {
                return agent.normalized_estimates();
              },
              out);
          break;
        case AgentKind::kMetropolis:
          run_estimator<anonet::FrequencyMetropolisAgent>(
              cell, observe, wire.metropolis,
              "FrequencyMetropolisAgent::estimates",
              [](const anonet::FrequencyMetropolisAgent& agent) {
                return agent.estimates();
              },
              out);
          break;
        case AgentKind::kAuto:
          break;
      }
    }
  } catch (const anonet::DeadlineExceeded& e) {
    out.rounds = e.rounds_run();
    out.messages = 0;
  } catch (const anonet::wire::BandwidthExceeded& e) {
    out.rounds = e.rounds_run();
    out.messages = 0;
  } catch (const std::exception&) {
    out.rounds = 0;
    out.messages = 0;
  }
  out.wall_s = seconds_since(start);
  return out;
}

void guard_drift(const CellRecord& record, const Reexec& reexec,
                 Tally& tally) {
  const bool history = reexec.registry_nodes > 0;
  if (record.rounds == reexec.rounds && record.messages == reexec.messages &&
      (!history || record.stabilization_round == reexec.stabilization_round)) {
    return;
  }
  const auto stabilization = [history](int round) {
    return history ? ", stabilization " + std::to_string(round)
                   : std::string();
  };
  tally.fail("drift guard: re-executed " + record.key + " gave rounds " +
             std::to_string(reexec.rounds) + ", messages " +
             std::to_string(reexec.messages) +
             stabilization(reexec.stabilization_round) +
             "; the record has rounds " + std::to_string(record.rounds) +
             ", messages " + std::to_string(record.messages) +
             stabilization(record.stabilization_round));
}

void probe_views(const Cell& cell, std::int64_t rounds, ViewProbe& probe) {
  const anonet::DynamicGraphPtr schedule = make_cell_schedule(cell);
  const Span span("dynamics", "DynamicGraph::view");
  const auto start = Clock::now();
  for (std::int64_t t = 1; t <= rounds; ++t) {
    const anonet::RoundGraphRef ref = schedule->view(static_cast<int>(t));
    probe.edges += ref.get().edge_count();
  }
  probe.seconds += seconds_since(start);
  probe.rounds += rounds;
}

void time_codecs(const WireSamples& samples, Metrics& layers) {
  CodecTotals totals;
  time_codec("gossip", samples.gossip, layers, totals);
  time_codec("pushsum", samples.pushsum, layers, totals);
  time_codec("metropolis", samples.metropolis, layers, totals);
  time_codec("history", samples.history, layers, totals);
  if (totals.messages == 0) throw std::logic_error("perfbench: no messages");
  const auto n = static_cast<double>(totals.messages);
  layers.set("wire.encode_ns_per_msg", totals.encode_ns / n, "ns");
  layers.set("wire.decode_ns_per_msg", totals.decode_ns / n, "ns");
}

void report_observe(const ObserveSamples& observe, double cell_s,
                    Metrics& layers) {
  const auto calls = static_cast<double>(observe.call_ms.size());
  const double tail = tail_percentile(observe.call_ms.size());
  layers.set("core.observe_s", observe.total_s, "s");
  layers.set("core.observe_calls", calls, "count");
  layers.set("core.observe_ms_p50", median(observe.call_ms), "ms");
  layers.set("core.observe_ms_tail", percentile(observe.call_ms, tail), "ms");
  layers.set("core.observe_tail_pct", tail, "pct");
  layers.set("core.observe_useful_frac",
             calls > 0 ? static_cast<double>(observe.useful) / calls : 0.0,
             "ratio");
  layers.set("core.observe_share", cell_s > 0 ? observe.total_s / cell_s : 0.0,
             "ratio");
}

}  // namespace perfbench
