#include "campaign/spec.hpp"

#include <stdexcept>

#include "core/gossip.hpp"
#include "core/metropolis.hpp"
#include "core/pushsum.hpp"
#include "graph/generators.hpp"
#include "runtime/capabilities.hpp"
#include "support/counter_rng.hpp"

namespace anonet::campaign {

namespace {

// The capability set the cell's algorithm declares. kAuto delegates to the
// computability harness, which dispatches a legal algorithm per cell, so it
// behaves as model-polymorphic here.
ModelCapabilities kind_capabilities(AgentKind kind) {
  switch (kind) {
    case AgentKind::kAuto:
      return ModelCapabilities::kModelPolymorphic;
    case AgentKind::kSetGossip:
      return agent_capabilities<SetGossipAgent>();
    case AgentKind::kFrequencyPushSum:
      return agent_capabilities<FrequencyPushSumAgent>();
    case AgentKind::kMetropolis:
      return agent_capabilities<FrequencyMetropolisAgent>();
  }
  throw std::invalid_argument("kind_capabilities: unknown agent kind");
}

// Whether every round graph the cell will see is bidirectional. The static
// panels are symmetric exactly for the symmetric-broadcast model (the other
// panels include genuinely directed graphs).
bool cell_symmetric(ScheduleKind schedule, CommModel model) {
  if (schedule == ScheduleKind::kStaticPanel) {
    return model == CommModel::kSymmetricBroadcast;
  }
  return schedule_symmetric(schedule);
}

// First-failure admissibility diagnosis; empty string = admissible.
std::string diagnose(const Spec& spec, const Cell& cell) {
  for (const OpenCell& open : spec.open_cells) {
    if (open.model == cell.model && open.knowledge == cell.knowledge) {
      return "open in the paper (Table 2 '?' cell): not measured";
    }
  }
  const ModelCapabilities caps = kind_capabilities(cell.agent);
  if (!model_provides(cell.model, caps)) {
    return describe_model_mismatch(cell.model, caps);
  }
  const bool symmetric = cell_symmetric(cell.schedule, cell.model);
  if (has_capability(caps, ModelCapabilities::kSymmetricOnly) && !symmetric) {
    return std::string("agent declares kSymmetricOnly, but schedule '") +
           std::string(slug(cell.schedule)) +
           "' produces asymmetric round graphs";
  }
  if (cell.model == CommModel::kSymmetricBroadcast && !symmetric) {
    return std::string(
               "kSymmetricBroadcast requires bidirectional round graphs; "
               "schedule '") +
           std::string(slug(cell.schedule)) + "' is not symmetric";
  }
  if (cell.model == CommModel::kOutputPortAware &&
      schedule_dynamic(cell.schedule)) {
    return std::string(
               "output-port awareness requires a static output-port "
               "labelling; schedule '") +
           std::string(slug(cell.schedule)) + "' is dynamic";
  }
  if (cell.agent == AgentKind::kSetGossip &&
      cell.function != FunctionKind::kMax) {
    return std::string("SetGossipAgent computes set-based functions only; '") +
           std::string(slug(cell.function)) + "' is outside its class";
  }
  if ((cell.agent == AgentKind::kFrequencyPushSum ||
       cell.agent == AgentKind::kMetropolis) &&
      cell.function != FunctionKind::kAverage) {
    return std::string("frequency estimators compute functions continuous "
                       "in frequency; campaign pins them to 'average', not '") +
           std::string(slug(cell.function)) + "'";
  }
  if (cell.agent == AgentKind::kAuto &&
      (cell.starts != StartsKind::kSynchronous ||
       cell.faults != FaultsKind::kNone || schedule_churn(cell.schedule))) {
    return "the computability harness dispatches algorithms proved for the "
           "clean synchronous model; perturbed cells must pin an explicit "
           "agent whose FaultTolerance claim the prediction table can gate";
  }
  return {};
}

// The declared robustness claim behind an AgentKind (the FaultTolerance
// analogue of kind_capabilities). kAuto claims nothing — but perturbed
// kAuto cells are inadmissible anyway (see diagnose).
FaultTolerance kind_fault_tolerance(AgentKind kind) {
  switch (kind) {
    case AgentKind::kAuto:
      return FaultTolerance::kNone;
    case AgentKind::kSetGossip:
      return agent_fault_tolerance<SetGossipAgent>();
    case AgentKind::kFrequencyPushSum:
      return agent_fault_tolerance<FrequencyPushSumAgent>();
    case AgentKind::kMetropolis:
      return agent_fault_tolerance<FrequencyMetropolisAgent>();
  }
  throw std::invalid_argument("kind_fault_tolerance: unknown agent kind");
}

}  // namespace

std::string_view slug(AgentKind kind) {
  switch (kind) {
    case AgentKind::kAuto: return "auto";
    case AgentKind::kSetGossip: return "set-gossip";
    case AgentKind::kFrequencyPushSum: return "freq-pushsum";
    case AgentKind::kMetropolis: return "metropolis";
  }
  return "?";
}

std::string_view slug(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kStaticPanel: return "static-panel";
    case ScheduleKind::kRandomStronglyConnected: return "random-strong";
    case ScheduleKind::kRandomSymmetric: return "random-symmetric";
    case ScheduleKind::kRandomMatching: return "random-matching";
    case ScheduleKind::kTokenRing: return "token-ring";
    case ScheduleKind::kSpooner: return "spooner";
    case ScheduleKind::kUnionRing: return "union-ring";
    case ScheduleKind::kGrowingGap: return "growing-gap";
    case ScheduleKind::kPreferentialChurn: return "pref-churn";
    case ScheduleKind::kGeometricChurn: return "geo-churn";
  }
  return "?";
}

std::string_view slug(StartsKind kind) {
  switch (kind) {
    case StartsKind::kSynchronous: return "sync";
    case StartsKind::kStaggered: return "staggered";
    case StartsKind::kStraggler: return "straggler";
  }
  return "?";
}

std::string_view slug(FaultsKind kind) {
  switch (kind) {
    case FaultsKind::kNone: return "none";
    case FaultsKind::kCrash: return "crash";
    case FaultsKind::kDrop: return "drop";
    case FaultsKind::kCrashDrop: return "crash-drop";
  }
  return "?";
}

std::string_view slug(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kMax: return "max";
    case FunctionKind::kAverage: return "average";
    case FunctionKind::kSum: return "sum";
  }
  return "?";
}

std::string_view slug(CommModel model) {
  switch (model) {
    case CommModel::kSimpleBroadcast: return "simple-broadcast";
    case CommModel::kOutdegreeAware: return "outdegree-aware";
    case CommModel::kSymmetricBroadcast: return "symmetric-broadcast";
    case CommModel::kOutputPortAware: return "output-port-aware";
  }
  return "?";
}

std::string_view slug(Knowledge knowledge) {
  switch (knowledge) {
    case Knowledge::kNone: return "none";
    case Knowledge::kUpperBound: return "upper-bound";
    case Knowledge::kExactSize: return "exact-size";
    case Knowledge::kLeaders: return "leaders";
  }
  return "?";
}

SymmetricFunction make_function(FunctionKind kind) {
  switch (kind) {
    case FunctionKind::kMax: return max_function();
    case FunctionKind::kAverage: return average_function();
    case FunctionKind::kSum: return sum_function();
  }
  throw std::invalid_argument("make_function: unknown function kind");
}

bool schedule_symmetric(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kRandomSymmetric:
    case ScheduleKind::kRandomMatching:
    case ScheduleKind::kSpooner:
    case ScheduleKind::kUnionRing:
    case ScheduleKind::kGrowingGap:
    // The churn overlays filter a symmetric base graph by membership, which
    // removes both orientations of a pair together: still symmetric.
    case ScheduleKind::kPreferentialChurn:
    case ScheduleKind::kGeometricChurn:
      return true;
    case ScheduleKind::kStaticPanel:
    case ScheduleKind::kRandomStronglyConnected:
    case ScheduleKind::kTokenRing:
      return false;
  }
  return false;
}

bool schedule_dynamic(ScheduleKind kind) {
  return kind != ScheduleKind::kStaticPanel;
}

bool schedule_churn(ScheduleKind kind) {
  return kind == ScheduleKind::kPreferentialChurn ||
         kind == ScheduleKind::kGeometricChurn;
}

std::string predict_failure(const Cell& cell) {
  const FaultTolerance claimed = kind_fault_tolerance(cell.agent);
  std::string reasons;
  const auto unclaimed = [&](FaultTolerance bit, const char* what) {
    if (tolerates(claimed, bit)) return;
    if (!reasons.empty()) reasons += "; ";
    reasons += what;
  };
  if (cell.starts != StartsKind::kSynchronous) {
    unclaimed(FaultTolerance::kAsyncStart,
              "asynchronous starts outside the agent's tolerance claim");
  }
  if (cell.faults == FaultsKind::kCrash || cell.faults == FaultsKind::kCrashDrop) {
    unclaimed(FaultTolerance::kCrashStop,
              "crash-stop outside the agent's tolerance claim");
  }
  if (cell.faults == FaultsKind::kDrop || cell.faults == FaultsKind::kCrashDrop) {
    unclaimed(FaultTolerance::kMessageDrop,
              "message drops outside the agent's tolerance claim");
  }
  if (schedule_churn(cell.schedule)) {
    unclaimed(FaultTolerance::kChurn,
              "membership churn outside the agent's tolerance claim");
  }
  return reasons;
}

std::string Cell::key() const {
  std::string out = suite;
  out += '/';
  out += slug(agent);
  out += '/';
  out += slug(model);
  out += '/';
  out += slug(knowledge);
  out += '/';
  out += slug(function);
  out += '/';
  out += slug(schedule);
  out += "/n" + std::to_string(n());
  out += "/v" + std::to_string(variant);
  out += "/s" + std::to_string(seed);
  // The defaults (channel off, synchronous starts, no faults) stay out of
  // the key so pre-perturbation campaign outputs resume cleanly against
  // re-expanded grids.
  if (bandwidth_bits != 0) out += "/b" + std::to_string(bandwidth_bits);
  if (starts != StartsKind::kSynchronous) {
    out += "/w" + std::string(slug(starts));
  }
  if (faults != FaultsKind::kNone) out += "/f" + std::string(slug(faults));
  return out;
}

StaticPanel make_static_panel(CommModel model, int variant) {
  if (variant < 0 || variant >= kStaticPanelCount) {
    throw std::invalid_argument("make_static_panel: variant out of range");
  }
  // Graphs with genuinely collapsible symmetry (lifts) plus irregular
  // graphs, symmetric where the model demands it.
  if (model == CommModel::kSymmetricBroadcast) {
    switch (variant) {
      case 0: return {bidirectional_ring(6), {1, 2, 1, 2, 1, 2}};
      case 1:
        return {random_symmetric_connected(8, 4, 11),
                {4, 4, 4, 9, 9, 9, 4, 9}};
      default: return {torus(2, 4), {0, 1, 0, 1, 0, 1, 0, 1}};
    }
  }
  switch (variant) {
    case 0: return {bidirectional_ring(6), {1, 2, 1, 2, 1, 2}};
    case 1:
      return {random_strongly_connected(7, 6, 3), {5, 5, 5, 2, 2, 2, 5}};
    default: {
      const LiftedGraph lift =
          random_lift(random_strongly_connected(3, 3, 8), {3, 3, 3}, 2);
      std::vector<std::int64_t> values;
      values.reserve(lift.projection.size());
      for (Vertex v : lift.projection) values.push_back(v == 0 ? 7 : 3);
      return {lift.graph, std::move(values)};
    }
  }
}

std::vector<std::int64_t> table2_inputs(int variant) {
  switch (variant) {
    case 0: return {1, 2, 1, 2, 1, 2};
    case 1: return {4, 4, 9, 9, 9, 4};
    case 2: return {0, 0, 0, 0, 5, 5};
    default:
      throw std::invalid_argument("table2_inputs: variant out of range");
  }
}

std::vector<std::int64_t> derived_inputs(int n, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("derived_inputs: n > 0");
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1) +
        0x2545f4914f6cdd1dull * static_cast<std::uint64_t>(n);
    out.push_back(static_cast<std::int64_t>(splitmix64(z) % 10));
  }
  return out;
}

std::vector<Cell> Grid::expand() const {
  std::vector<Cell> cells;
  int index = 0;
  for (const Spec& spec : specs_) {
    if (spec.suite.empty() || spec.agents.empty() || spec.models.empty() ||
        spec.knowledges.empty() || spec.functions.empty() ||
        spec.schedules.empty() || spec.seeds.empty() ||
        spec.bandwidths.empty() || spec.starts.empty() ||
        spec.faults.empty() || spec.variants < 1) {
      throw std::invalid_argument("Grid::expand: spec block '" + spec.suite +
                                  "' has an empty axis");
    }
    for (const std::int64_t bandwidth : spec.bandwidths) {
      if (bandwidth < -1) {
        throw std::invalid_argument(
            "Grid::expand: spec block '" + spec.suite +
            "' has bandwidth " + std::to_string(bandwidth) +
            " (expected 0 = unbounded, -1 = metered, or a positive "
            "per-message bit budget)");
      }
    }
    if (spec.input_source == InputSource::kDerived && spec.sizes.empty()) {
      throw std::invalid_argument("Grid::expand: derived-input block '" +
                                  spec.suite + "' needs a sizes axis");
    }
    // kPanel/kFixedSets carry their own sizes; loop a placeholder.
    const std::vector<int> sizes =
        spec.input_source == InputSource::kDerived ? spec.sizes
                                                   : std::vector<int>{0};
    for (AgentKind agent : spec.agents) {
      for (Knowledge knowledge : spec.knowledges) {
        for (CommModel model : spec.models) {
          for (FunctionKind function : spec.functions) {
            for (ScheduleKind schedule : spec.schedules) {
              for (int size : sizes) {
                for (int variant = 0; variant < spec.variants; ++variant) {
                  for (std::uint64_t seed : spec.seeds) {
                    // Innermost by design: with the {0} / {kSynchronous} /
                    // {kNone} defaults these loops degenerate and the cell
                    // order (hence every index) matches pre-bandwidth and
                    // pre-perturbation expansions exactly.
                    for (std::int64_t bandwidth : spec.bandwidths) {
                      for (StartsKind starts : spec.starts) {
                        for (FaultsKind faults : spec.faults) {
                          Cell cell;
                          cell.index = index++;
                          cell.suite = spec.suite;
                          cell.agent = agent;
                          cell.model = model;
                          cell.knowledge = knowledge;
                          cell.function = function;
                          cell.schedule = schedule;
                          cell.variant = variant;
                          cell.tolerance = spec.tolerance;
                          cell.bandwidth_bits = bandwidth;
                          cell.starts = starts;
                          cell.faults = faults;
                          switch (spec.input_source) {
                            case InputSource::kPanel:
                              cell.inputs =
                                  make_static_panel(model, variant).values;
                              cell.seed = seed;
                              break;
                            case InputSource::kFixedSets:
                              cell.inputs = table2_inputs(variant);
                              // The input sets are seeded consecutively
                              // from the base seed.
                              cell.seed =
                                  seed + static_cast<std::uint64_t>(variant);
                              break;
                            case InputSource::kDerived:
                              cell.inputs = derived_inputs(size, seed);
                              cell.seed = seed;
                              break;
                          }
                          // rounds == 0 requests the Table 1 horizon 3n + 10.
                          cell.rounds = spec.rounds > 0 ? spec.rounds
                                                        : 3 * cell.n() + 10;
                          cell.skip_reason = diagnose(spec, cell);
                          cell.admissible = cell.skip_reason.empty();
                          cells.push_back(std::move(cell));
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

Grid Grid::preset(const std::string& name) {
  Grid grid;
  const auto add_table1 = [&grid] {
    Spec spec;
    spec.suite = "table1";
    spec.agents = {AgentKind::kAuto};
    spec.models = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
                   CommModel::kSymmetricBroadcast,
                   CommModel::kOutputPortAware};
    spec.knowledges = {Knowledge::kNone, Knowledge::kUpperBound,
                       Knowledge::kExactSize, Knowledge::kLeaders};
    spec.functions = {FunctionKind::kMax, FunctionKind::kAverage,
                      FunctionKind::kSum};
    spec.schedules = {ScheduleKind::kStaticPanel};
    spec.input_source = InputSource::kPanel;
    spec.variants = kStaticPanelCount;
    spec.seeds = {1};
    spec.rounds = 0;  // the Table 1 horizon, 3n + 10 per panel
    spec.tolerance = 1e-4;
    grid.add(std::move(spec));
  };
  // Table 2's dynamic cells: the three fixed input sets, seeded 17, 18, 19.
  const auto table2_spec = [](std::string suite) {
    Spec spec;
    spec.suite = std::move(suite);
    spec.agents = {AgentKind::kAuto};
    spec.knowledges = {Knowledge::kNone, Knowledge::kUpperBound,
                       Knowledge::kExactSize, Knowledge::kLeaders};
    spec.functions = {FunctionKind::kMax, FunctionKind::kAverage,
                      FunctionKind::kSum};
    spec.schedules = {ScheduleKind::kRandomStronglyConnected};
    spec.input_source = InputSource::kFixedSets;
    spec.variants = kTable2InputSets;
    spec.seeds = {17};
    spec.rounds = 400;
    spec.tolerance = 1e-3;
    return spec;
  };
  const auto add_table2 = [&grid, &table2_spec] {
    Spec directed = table2_spec("table2");
    directed.models = {CommModel::kSimpleBroadcast,
                       CommModel::kOutdegreeAware};
    directed.open_cells = {
        {CommModel::kOutdegreeAware, Knowledge::kNone},
        {CommModel::kOutdegreeAware, Knowledge::kLeaders},
    };
    grid.add(std::move(directed));

    Spec symmetric = table2_spec("table2");
    symmetric.models = {CommModel::kSymmetricBroadcast};
    symmetric.schedules = {ScheduleKind::kRandomSymmetric};
    grid.add(std::move(symmetric));
  };
  // Measures exactly the cells `tables` records as open, at the same
  // coordinates, in a suite of their own so the `tables` bytes stay put.
  const auto add_open = [&grid, &table2_spec] {
    Spec open = table2_spec("open");
    open.models = {CommModel::kOutdegreeAware};
    open.knowledges = {Knowledge::kNone, Knowledge::kLeaders};
    grid.add(std::move(open));
  };
  const auto add_adversarial = [&grid] {
    Spec base;
    base.suite = "adversarial";
    base.knowledges = {Knowledge::kNone};
    base.input_source = InputSource::kDerived;
    base.sizes = {6, 9};
    base.seeds = {1, 2};
    base.rounds = 800;
    base.tolerance = 1e-3;

    // Gossip everywhere the models allow — token ring under the symmetric
    // model lands as a recorded skip, not a throw.
    Spec gossip = base;
    gossip.agents = {AgentKind::kSetGossip};
    gossip.models = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware,
                     CommModel::kSymmetricBroadcast};
    gossip.functions = {FunctionKind::kMax};
    gossip.schedules = {ScheduleKind::kSpooner, ScheduleKind::kUnionRing,
                        ScheduleKind::kTokenRing,
                        ScheduleKind::kRandomMatching,
                        ScheduleKind::kGrowingGap};
    grid.add(std::move(gossip));

    // Push-Sum under simple broadcast is the canonical forbidden pairing:
    // those cells come back skipped with the Table 1 diagnosis.
    Spec pushsum = base;
    pushsum.agents = {AgentKind::kFrequencyPushSum};
    pushsum.models = {CommModel::kSimpleBroadcast,
                      CommModel::kOutdegreeAware};
    pushsum.functions = {FunctionKind::kAverage};
    pushsum.schedules = {ScheduleKind::kSpooner, ScheduleKind::kUnionRing,
                         ScheduleKind::kRandomMatching,
                         ScheduleKind::kGrowingGap};
    grid.add(std::move(pushsum));

    Spec metropolis = base;
    metropolis.agents = {AgentKind::kMetropolis};
    metropolis.models = {CommModel::kOutdegreeAware,
                         CommModel::kSymmetricBroadcast};
    metropolis.functions = {FunctionKind::kAverage};
    metropolis.schedules = {ScheduleKind::kSpooner, ScheduleKind::kUnionRing,
                            ScheduleKind::kRandomMatching,
                            ScheduleKind::kTokenRing,
                            ScheduleKind::kGrowingGap};
    grid.add(std::move(metropolis));
  };
  // Bandwidth regimes of the explicit estimators: every cell runs three
  // times — metered (bits observed, nothing enforced), under a tight
  // 128-bit channel (frequency Push-Sum's first map entry alone exceeds
  // it, so those cells surface as bandwidth_exceeded), and under a loose
  // 8192-bit channel that nothing here reaches.
  const auto add_bandwidth = [&grid] {
    Spec base;
    base.suite = "bandwidth";
    base.knowledges = {Knowledge::kNone};
    base.input_source = InputSource::kDerived;
    base.sizes = {6, 9};
    base.seeds = {1};
    base.rounds = 150;
    base.tolerance = 1e-3;
    base.bandwidths = {-1, 128, 8192};

    Spec gossip = base;
    gossip.agents = {AgentKind::kSetGossip};
    gossip.models = {CommModel::kSimpleBroadcast};
    gossip.functions = {FunctionKind::kMax};
    gossip.schedules = {ScheduleKind::kRandomStronglyConnected};
    grid.add(std::move(gossip));

    Spec pushsum = base;
    pushsum.agents = {AgentKind::kFrequencyPushSum};
    pushsum.models = {CommModel::kOutdegreeAware};
    pushsum.functions = {FunctionKind::kAverage};
    pushsum.schedules = {ScheduleKind::kRandomStronglyConnected};
    grid.add(std::move(pushsum));
  };

  // The scenario zoo: every explicit agent crossed with asynchronous
  // starts, churn overlays, and crash/drop fault plans, restricted per
  // agent to the perturbations worth asking about. Cells whose
  // perturbation set exceeds the agent's FaultTolerance claim are
  // *predicted* to fail and must — the campaign CLI treats a successful
  // predicted cell as a prediction mismatch. No timeouts here: verdicts
  // must be a pure function of the grid for byte-identical output.
  const auto add_faults = [&grid] {
    Spec base;
    base.suite = "faults";
    base.knowledges = {Knowledge::kNone};
    base.input_source = InputSource::kDerived;
    base.sizes = {8};
    base.seeds = {1, 2};
    base.rounds = 800;
    base.tolerance = 1e-3;

    // Gossip survives everything but crash-stop: the crash cells are the
    // predicted failures (a crashed agent's known-set freezes).
    Spec gossip = base;
    gossip.agents = {AgentKind::kSetGossip};
    gossip.models = {CommModel::kSimpleBroadcast};
    gossip.functions = {FunctionKind::kMax};
    gossip.schedules = {ScheduleKind::kRandomSymmetric,
                        ScheduleKind::kPreferentialChurn,
                        ScheduleKind::kGeometricChurn};
    gossip.starts = {StartsKind::kSynchronous, StartsKind::kStaggered,
                     StartsKind::kStraggler};
    gossip.faults = {FaultsKind::kNone, FaultsKind::kCrash, FaultsKind::kDrop};
    grid.add(std::move(gossip));

    // Push-Sum claims churn only: the staggered and drop cells leak or
    // destroy mass and are predicted to fail.
    Spec pushsum = base;
    pushsum.agents = {AgentKind::kFrequencyPushSum};
    pushsum.models = {CommModel::kOutdegreeAware};
    pushsum.functions = {FunctionKind::kAverage};
    pushsum.schedules = {ScheduleKind::kRandomStronglyConnected,
                         ScheduleKind::kPreferentialChurn,
                         ScheduleKind::kGeometricChurn};
    pushsum.starts = {StartsKind::kSynchronous, StartsKind::kStaggered};
    pushsum.faults = {FaultsKind::kNone, FaultsKind::kDrop};
    grid.add(std::move(pushsum));

    // Metropolis claims async starts and churn (symmetric omission), not
    // drops or crashes (one-sided loss breaks pairwise cancellation).
    Spec metropolis = base;
    metropolis.agents = {AgentKind::kMetropolis};
    metropolis.models = {CommModel::kOutdegreeAware};
    metropolis.functions = {FunctionKind::kAverage};
    metropolis.schedules = {ScheduleKind::kRandomSymmetric,
                            ScheduleKind::kPreferentialChurn,
                            ScheduleKind::kGeometricChurn};
    metropolis.starts = {StartsKind::kSynchronous, StartsKind::kStraggler};
    metropolis.faults = {FaultsKind::kNone, FaultsKind::kDrop,
                         FaultsKind::kCrash};
    grid.add(std::move(metropolis));
  };

  if (name == "table1") {
    add_table1();
  } else if (name == "table2") {
    add_table2();
  } else if (name == "tables") {
    add_table1();
    add_table2();
  } else if (name == "open") {
    add_open();
  } else if (name == "adversarial") {
    add_adversarial();
  } else if (name == "bandwidth") {
    add_bandwidth();
  } else if (name == "faults") {
    add_faults();
  } else if (name == "smoke") {
    Spec spec;
    spec.suite = "smoke";
    spec.agents = {AgentKind::kAuto};
    spec.models = {CommModel::kSimpleBroadcast, CommModel::kOutdegreeAware};
    spec.knowledges = {Knowledge::kNone, Knowledge::kExactSize};
    spec.functions = {FunctionKind::kMax, FunctionKind::kAverage};
    spec.schedules = {ScheduleKind::kRandomStronglyConnected};
    spec.input_source = InputSource::kDerived;
    spec.sizes = {5};
    spec.seeds = {3};
    spec.rounds = 150;
    spec.tolerance = 1e-3;
    grid.add(std::move(spec));
  } else {
    throw std::invalid_argument("Grid::preset: unknown grid '" + name +
                                "' (expected one of: table1, table2, tables, "
                                "open, adversarial, bandwidth, faults, "
                                "smoke)");
  }
  return grid;
}

std::vector<std::string> Grid::preset_names() {
  return {"table1",      "table2",    "tables", "open",
          "adversarial", "bandwidth", "faults", "smoke"};
}

}  // namespace anonet::campaign
