#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "campaign/cost_model.hpp"
#include "core/census.hpp"
#include "core/gossip.hpp"
#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "dynamics/adversarial.hpp"
#include "dynamics/perturbation.hpp"
#include "dynamics/schedules.hpp"
#include "runtime/convergence.hpp"
#include "runtime/executor.hpp"
#include "support/thread_pool.hpp"
#include "wire/meter.hpp"

namespace anonet::campaign {

namespace {

// Fixed adversary parameters: the spooner releases its bridge every 5th
// round (dynamic diameter ~ period + 2), the union ring splits the ring
// over 3 phases (no round connected, union over any 3 rounds is the ring).
constexpr int kSpoonerPeriod = 5;
constexpr int kUnionRingParts = 3;

DynamicGraphPtr make_cell_schedule(const Cell& cell) {
  const auto n = static_cast<Vertex>(cell.n());
  switch (cell.schedule) {
    case ScheduleKind::kStaticPanel:
      return std::make_shared<StaticSchedule>(
          make_static_panel(cell.model, cell.variant).graph);
    case ScheduleKind::kRandomStronglyConnected:
      return std::make_shared<RandomStronglyConnectedSchedule>(n, 3,
                                                               cell.seed);
    case ScheduleKind::kRandomSymmetric:
      return std::make_shared<RandomSymmetricSchedule>(n, 3, cell.seed);
    case ScheduleKind::kRandomMatching:
      return std::make_shared<RandomMatchingSchedule>(n, cell.seed);
    case ScheduleKind::kTokenRing:
      return std::make_shared<TokenRingSchedule>(n);
    case ScheduleKind::kSpooner:
      return std::make_shared<SpoonerSchedule>(n, kSpoonerPeriod);
    case ScheduleKind::kUnionRing:
      return std::make_shared<UnionRingSchedule>(n, kUnionRingParts);
    case ScheduleKind::kGrowingGap:
      return std::make_shared<GrowingGapRingSchedule>(n);
    case ScheduleKind::kPreferentialChurn:
      return preferential_churn_schedule(n, cell.seed);
    case ScheduleKind::kGeometricChurn:
      return geometric_churn_schedule(n, cell.seed);
  }
  throw std::invalid_argument("make_cell_schedule: unknown schedule kind");
}

// Perturbation coordinates -> executor configuration. The parameters are
// fixed per kind (stride-2 staggering, a round-25 straggler, an immediate
// crash of agent 0, 30% drops) so a cell's key fully determines its run.
constexpr int kStaggerStride = 2;
constexpr int kStragglerWake = 25;
constexpr int kCrashRound = 1;
constexpr double kDropRate = 0.30;

template <typename Agent>
void configure_perturbations(Executor<Agent>& executor, const Cell& cell) {
  const auto n = static_cast<Vertex>(cell.n());
  switch (cell.starts) {
    case StartsKind::kSynchronous:
      break;
    case StartsKind::kStaggered:
      executor.set_start_schedule(StartSchedule::staggered(n, kStaggerStride));
      break;
    case StartsKind::kStraggler:
      executor.set_start_schedule(StartSchedule::straggler(n, kStragglerWake));
      break;
  }
  if (cell.faults == FaultsKind::kNone) return;
  FaultPlan plan;
  if (cell.faults == FaultsKind::kCrash ||
      cell.faults == FaultsKind::kCrashDrop) {
    plan = FaultPlan::crash_first_agent(n, kCrashRound);
  }
  if (cell.faults == FaultsKind::kDrop ||
      cell.faults == FaultsKind::kCrashDrop) {
    // The drop lottery gets its own stream, decorrelated from the graph and
    // shuffle streams that also key off cell.seed.
    plan.drop_rate = kDropRate;
    plan.drop_seed = cell.seed ^ 0x9e3779b97f4a7c15ull;
  }
  executor.set_fault_plan(std::move(plan));
}

// The computability-harness path (AgentKind::kAuto): the harness picks the
// paper's algorithm for the (model, knowledge, function) cell and runs its
// whole horizon.
AttemptResult run_auto(const Cell& cell, const SymmetricFunction& f) {
  Attempt attempt;
  attempt.model = cell.model;
  attempt.knowledge = cell.knowledge;
  attempt.rounds = cell.rounds;
  attempt.tolerance = cell.tolerance;
  attempt.seed = cell.seed;
  attempt.deadline_ms = cell.timeout_ms;
  attempt.bandwidth_bits = cell.bandwidth_bits;
  std::vector<std::int64_t> inputs = cell.inputs;
  const int n = cell.n();
  switch (cell.knowledge) {
    case Knowledge::kNone:
      break;
    case Knowledge::kUpperBound:
      attempt.parameter = 2 * n;
      break;
    case Knowledge::kExactSize:
      attempt.parameter = n;
      break;
    case Knowledge::kLeaders:
      attempt.parameter = 1;
      inputs.clear();
      for (std::size_t i = 0; i < cell.inputs.size(); ++i) {
        inputs.push_back(encode_leader_input(cell.inputs[i], i == 0));
      }
      break;
  }
  return cell.schedule == ScheduleKind::kStaticPanel
             ? attempt_static(make_static_panel(cell.model, cell.variant).graph,
                              inputs, f, attempt)
             : attempt_dynamic(make_cell_schedule(cell), inputs, f, attempt);
}

// An explicit agent kind on the cell's schedule and perturbations, observed
// until its first successful round: gossip known sets only grow, so the
// first all-exact round is permanent, and an estimator within tolerance is
// the verdict asked for.
template <typename Agent, typename OutputFn>
AttemptResult run_explicit(const Cell& cell, const SymmetricFunction& f,
                           OutputFn output, const char* mechanism) {
  std::vector<Agent> agents;
  agents.reserve(cell.inputs.size());
  for (std::int64_t input : cell.inputs) agents.emplace_back(input);
  Executor<Agent> executor(make_cell_schedule(cell), std::move(agents),
                           cell.model, cell.seed);
  executor.set_deadline(cell.timeout_ms);
  executor.set_channel_policy(
      wire::channel_policy_from_bits(cell.bandwidth_bits));
  configure_perturbations(executor, cell);
  const Rational truth = ground_truth(cell.inputs, f, Knowledge::kNone);
  AttemptResult result = observe(executor, cell.rounds, truth, cell.tolerance,
                                 output, StopRule::kFirstSuccess);
  result.mechanism = mechanism;
  return result;
}

AttemptResult run_agent(const Cell& cell) {
  const SymmetricFunction f = make_function(cell.function);
  switch (cell.agent) {
    case AgentKind::kAuto:
      return run_auto(cell, f);
    case AgentKind::kSetGossip:
      return run_explicit<SetGossipAgent>(
          cell, f,
          [&f](const SetGossipAgent& agent) -> std::optional<Rational> {
            return agent.output(f);
          },
          "set gossip (flooding)");
    case AgentKind::kFrequencyPushSum:
      return run_explicit<FrequencyPushSumAgent>(
          cell, f,
          [&f](const FrequencyPushSumAgent& agent) {
            return f.eval_approximate(agent.normalized_estimates());
          },
          "per-value Push-Sum (Algorithm 1)");
    case AgentKind::kMetropolis:
      return run_explicit<FrequencyMetropolisAgent>(
          cell, f,
          [&f](const FrequencyMetropolisAgent& agent) {
            return f.eval_approximate(agent.estimates());
          },
          "Metropolis indicator averaging");
  }
  throw std::invalid_argument("run_agent: unknown agent kind");
}

// Resume reuse policy. Most verdicts are pure functions of the cell's
// coordinates, so a matching key is enough to reuse the record. "timeout" is
// not: it only says the cell exceeded the *recorded* budget, so a resumed
// run with a larger (or unlimited) budget must re-attempt the cell instead
// of pinning the old verdict forever.
bool reusable_on_resume(const CellRecord& record, const Cell& cell) {
  if (record.verdict != "timeout") return true;
  // A timeout is only conclusive for budgets no larger than the one that
  // produced it. Records predating the deadline_ms field (<= 0) carry no
  // budget to compare against, so they are re-attempted too — the cheap
  // direction of the ambiguity.
  return record.deadline_ms > 0.0 && cell.timeout_ms > 0.0 &&
         cell.timeout_ms <= record.deadline_ms;
}

}  // namespace

void apply_cell_overrides(std::vector<Cell>& cells, double cell_timeout_ms,
                          std::int64_t bandwidth_bits) {
  check_bandwidth_override(bandwidth_bits);
  if (cell_timeout_ms > 0.0) {
    for (Cell& cell : cells) {
      if (cell.timeout_ms <= 0.0) cell.timeout_ms = cell_timeout_ms;
    }
  }
  if (bandwidth_bits != 0) {
    for (Cell& cell : cells) {
      if (cell.bandwidth_bits == 0) cell.bandwidth_bits = bandwidth_bits;
    }
  }
}

void check_bandwidth_override(std::int64_t bandwidth_bits) {
  if (bandwidth_bits < -1) {
    throw std::invalid_argument(
        "campaign bandwidth " + std::to_string(bandwidth_bits) +
        " (expected 0 = unbounded, -1 = metered, or a positive per-message "
        "bit budget)");
  }
}

void check_shard(const RunnerOptions& options) {
  if (options.shards < 1) {
    throw std::invalid_argument("campaign: shards must be >= 1");
  }
  if (options.shard_index < 0 || options.shard_index >= options.shards) {
    throw std::invalid_argument("campaign: shard index out of [0, shards)");
  }
}

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {
  check_shard(options_);
  if (options_.threads < 1) options_.threads = 1;
}

CellRecord Runner::run_cell(const Cell& cell, bool record_wall_time) {
  CellRecord record;
  record.cell = cell.index;
  record.key = cell.key();
  record.suite = cell.suite;
  record.agent = slug(cell.agent);
  record.model = slug(cell.model);
  record.knowledge = slug(cell.knowledge);
  record.function = slug(cell.function);
  record.schedule = slug(cell.schedule);
  record.variant = cell.variant;
  record.n = cell.n();
  record.seed = cell.seed;
  record.bandwidth_bits = cell.bandwidth_bits;
  record.starts = std::string(slug(cell.starts));
  record.faults = std::string(slug(cell.faults));

  if (!cell.admissible) {
    record.verdict = "skipped";
    record.reason = cell.skip_reason;
    record.mechanism = "(not run)";
    return record;
  }

  // Prediction gate: a perturbed cell whose perturbations exceed the agent's
  // FaultTolerance claim is *expected* to break. Its non-success verdicts
  // are downgraded to "expected_failure" below; an unexpected success keeps
  // verdict "ok" with predicted=true so the CLI can flag the mismatch.
  const std::string predicted = predict_failure(cell);
  record.predicted = !predicted.empty();

  const auto started = std::chrono::steady_clock::now();
  try {
    const AttemptResult result = run_agent(cell);
    record.success = result.success;
    record.exact = result.success && result.stabilization_round >= 0;
    record.stabilization_round = result.stabilization_round;
    record.error = result.final_error;
    record.rounds = result.rounds_run;
    record.messages = result.messages_delivered;
    record.bits = result.bits_total;
    record.mechanism = result.mechanism;
    record.verdict = "ok";
    if (record.predicted && !record.success) {
      // The breakdown the FaultTolerance table predicted: not a bug, the
      // measured confirmation of an out-of-claim perturbation.
      record.verdict = "expected_failure";
      record.reason = predicted;
    }
  } catch (const DeadlineExceeded& e) {
    record.verdict = "timeout";
    record.reason = e.what();
    record.rounds = e.rounds_run();
    record.deadline_ms = cell.timeout_ms;
    if (record.predicted) {
      // A crash/drop-stalled cell can burn its whole deadline instead of
      // finishing unsuccessfully; that is still the predicted breakdown.
      record.verdict = "expected_failure";
      record.reason = predicted + "; " + e.what();
    }
  } catch (const wire::BandwidthExceeded& e) {
    // A model verdict, not a crash: the algorithm's messages do not fit
    // the declared channel. Distinct from "failed" so aggregations can
    // separate "impossible at this bandwidth" from "broken".
    record.verdict = "bandwidth_exceeded";
    record.reason = e.what();
    record.rounds = e.rounds_run();
  } catch (const std::exception& e) {
    record.verdict = "failed";
    record.reason = e.what();
  }
  if (record_wall_time) {
    record.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started)
                         .count();
  }
  return record;
}

CampaignRun start_campaign(const Grid& grid, const RunnerOptions& options) {
  std::vector<Cell> cells = grid.expand();
  apply_cell_overrides(cells, options.cell_timeout_ms, options.bandwidth_bits);

  CampaignRun run;
  std::vector<Cell> mine;
  for (const Cell& cell : cells) {
    if (cell.index % options.shards == options.shard_index) {
      mine.push_back(cell);
    }
  }

  // Resume: reuse any complete record whose key matches one of this shard's
  // cells (keys are pure coordinates, so a changed grid simply misses).
  // Records belonging to *other* shards are preserved verbatim, which lets
  // several shards target the same output file in turn — after the last
  // shard the file equals a single-shard run byte for byte.
  // The first usable line of each key claims it; a claimed key of this
  // shard is a finished cell.
  std::unordered_set<std::string> claimed;
  bool had_output = false;
  if (!options.out_path.empty() && options.resume) {
    std::unordered_map<std::string, const Cell*> wanted;
    for (const Cell& cell : mine) wanted.emplace(cell.key(), &cell);
    for (CellRecord& record : MetricsSink::read_file(options.out_path)) {
      had_output = true;
      const auto it = wanted.find(record.key);
      // Dropping a non-reusable record re-queues the cell unless a later
      // line finished it (a larger budget's run killed before its
      // canonical rewrite), so the record must not claim the key.
      if (it != wanted.end() && !reusable_on_resume(record, *it->second)) {
        continue;
      }
      if (!claimed.insert(record.key).second) continue;
      if (it == wanted.end()) {
        run.foreign.push_back(std::move(record));
        continue;
      }
      record.cell = it->second->index;  // re-anchor to current expansion order
      run.kept.push_back(std::move(record));
    }
  }

  // Work order: most expensive first by static estimate.
  for (std::size_t pos : cost_descending_order(mine)) {
    Cell& cell = mine[pos];
    if (claimed.count(cell.key()) == 0) run.pending.push_back(std::move(cell));
  }

  if (!options.out_path.empty()) {
    run.sink = std::make_unique<MetricsSink>(
        options.out_path, options.include_timings,
        /*append=*/options.resume && had_output);
  }
  return run;
}

std::vector<CellRecord> finish_campaign(CampaignRun run,
                                        std::vector<CellRecord> fresh,
                                        const RunnerOptions& options) {
  std::vector<CellRecord> all = std::move(run.kept);
  all.insert(all.end(), std::make_move_iterator(fresh.begin()),
             std::make_move_iterator(fresh.end()));
  std::stable_sort(all.begin(), all.end(), canonical_order);
  if (run.sink != nullptr) {
    run.sink->close();
    std::vector<CellRecord> file_records = all;
    file_records.insert(file_records.end(),
                        std::make_move_iterator(run.foreign.begin()),
                        std::make_move_iterator(run.foreign.end()));
    MetricsSink::write_canonical(options.out_path, std::move(file_records),
                                 options.include_timings);
  }
  return all;
}

std::vector<CellRecord> Runner::run(const Grid& grid) const {
  CampaignRun run = start_campaign(grid, options_);

  // Work stealing: workers claim cells one block at a time in
  // start_campaign's work order, so the most expensive cell starts first
  // and a slow cell pins at most the worker that claimed it.
  const std::vector<Cell>& pending = run.pending;
  std::vector<CellRecord> fresh(pending.size());
  MetricsSink* const sink = run.sink.get();
  const bool timings = options_.include_timings;
  ThreadPool pool(options_.threads);
  pool.parallel_blocks(
      static_cast<std::int64_t>(pending.size()), 1,
      [&](std::int64_t begin, std::int64_t end, std::int64_t /*block*/) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto slot = static_cast<std::size_t>(i);
          fresh[slot] = run_cell(pending[slot], timings);
          if (sink != nullptr) {
            sink->append(fresh[slot]);
          }
        }
      });
  return finish_campaign(std::move(run), std::move(fresh), options_);
}

}  // namespace anonet::campaign
