#pragma once

// Declarative simulation campaigns (docs/campaign.md).
//
// A campaign is a list of Spec blocks, each a cross-product of agent kind x
// communication model x centralized help x target function x schedule family
// x network size x seed. Grid::expand() flattens the blocks into a single
// deterministic cell list: the same grid always yields the same cells in the
// same order with the same indices, which is what makes sharding (cell index
// mod shard count) and resume (skip keys already present in the output file)
// coherent across processes and machines.
//
// Expansion is total: pairings forbidden by Table 1 — an outdegree-consuming
// agent under simple broadcast, a kSymmetricOnly agent on an asymmetric
// schedule, output-port awareness on a dynamic network — are not errors but
// *rows*. They come back as inadmissible cells carrying the same diagnosis
// string the Executor would throw (runtime/capabilities.hpp), and the runner
// records them as verdict "skipped" so a campaign's output enumerates the
// whole grid, including the cells the paper rules out. Cells the paper
// leaves open (the two "?" entries of Table 2) are likewise skipped, by
// Spec::open_cells.

#include <cstdint>
#include <string>
#include <vector>

#include "core/computability.hpp"
#include "graph/digraph.hpp"
#include "runtime/comm_model.hpp"

namespace anonet::campaign {

// Which algorithm runs in a cell. kAuto delegates to the computability
// harness (core/computability.hpp), which picks the paper's algorithm for
// the (model, knowledge, function) cell — this is what the tables presets
// use. The explicit kinds pin one algorithm so adversarial campaigns can
// stress it outside its comfort zone.
enum class AgentKind {
  kAuto,
  kSetGossip,        // flooding; set-based functions, any model
  kFrequencyPushSum, // Algorithm 1; needs outdegree awareness
  kMetropolis,       // indicator averaging; needs degrees + symmetric rounds
};

enum class ScheduleKind {
  kStaticPanel,             // Table 1 panel graph (static network)
  kRandomStronglyConnected, // fresh random strongly connected graph per round
  kRandomSymmetric,         // fresh random symmetric connected graph per round
  kRandomMatching,          // random partial matching (population-protocol)
  kTokenRing,               // one ring edge per round
  kSpooner,                 // bounded-D information-delay adversary
  kUnionRing,               // ring split into phases; no round is connected
  kGrowingGap,              // ring on power-of-two rounds only; unbounded D
  kPreferentialChurn,       // preferential-attachment overlay + epoch churn
  kGeometricChurn,          // random-geometric overlay + epoch churn
};

// Asynchronous-start axis: which executor StartSchedule the cell installs
// (dynamics/perturbation.hpp). Concrete wake rounds are derived from n in
// the runner; the kind is the grid coordinate.
enum class StartsKind {
  kSynchronous, // everyone awake from round 1 (the default; out of the key)
  kStaggered,   // agent v wakes at round 1 + 2v
  kStraggler,   // all awake at 1 except the last agent (late by ~25 rounds)
};

// Fault-injection axis: which executor FaultPlan the cell installs.
enum class FaultsKind {
  kNone,      // clean run (the default; out of the key)
  kCrash,     // agent 0 crash-stops at round 1
  kDrop,      // 30% iid per-(round, edge) message loss
  kCrashDrop, // both
};

// One representative function per class of Section 2.3: the strongest
// class compare_table (campaign/metrics.hpp) credits a cell with.
enum class FunctionKind {
  kMax,     // set-based
  kAverage, // frequency-based
  kSum,     // multiset-based
};

// The names Cell::key() spells each coordinate with: distinct within each
// enum, so distinct cells get distinct keys.
[[nodiscard]] std::string_view slug(AgentKind kind);
[[nodiscard]] std::string_view slug(ScheduleKind kind);
[[nodiscard]] std::string_view slug(FunctionKind kind);
[[nodiscard]] std::string_view slug(CommModel model);
[[nodiscard]] std::string_view slug(Knowledge knowledge);
[[nodiscard]] std::string_view slug(StartsKind kind);
[[nodiscard]] std::string_view slug(FaultsKind kind);

// The SymmetricFunction behind a FunctionKind (functions/functions.hpp).
[[nodiscard]] SymmetricFunction make_function(FunctionKind kind);

// True when every round graph of the schedule family is bidirectional —
// the admissibility requirement of kSymmetricBroadcast and kSymmetricOnly.
// kStaticPanel is symmetric exactly when the panel is the symmetric one,
// so it is handled separately (see Cell::admissible computation).
[[nodiscard]] bool schedule_symmetric(ScheduleKind kind);

// True for schedule families that materialize a changing graph (everything
// but kStaticPanel). kOutputPortAware cells on these are inadmissible: a
// port labelling is only meaningful for a static network.
[[nodiscard]] bool schedule_dynamic(ScheduleKind kind);

// True for the churn families (membership join/leave): a perturbation in
// its own right, entering the failure-prediction table as FaultTolerance::
// kChurn even though it rides on the schedule axis.
[[nodiscard]] bool schedule_churn(ScheduleKind kind);

// One fully-specified simulation: everything the runner needs to rebuild
// the network, construct the agents, and judge the outcome.
struct Cell {
  int index = -1;           // position in Grid::expand() order (stable ID)
  std::string suite;        // Spec block name ("table1", "adversarial", ...)
  AgentKind agent = AgentKind::kAuto;
  CommModel model = CommModel::kSimpleBroadcast;
  Knowledge knowledge = Knowledge::kNone;
  FunctionKind function = FunctionKind::kMax;
  ScheduleKind schedule = ScheduleKind::kRandomStronglyConnected;
  int variant = 0;          // panel / input-set index within the suite
  std::vector<std::int64_t> inputs;  // raw inputs (leader coding applied later)
  int rounds = 400;         // round budget
  double tolerance = 1e-3;  // asymptotic (δ2) acceptance threshold
  std::uint64_t seed = 1;   // schedule + executor shuffle seed
  // Wall-clock deadline for the cell (<= 0: none). Execution policy, not a
  // coordinate: it is excluded from key(), so resuming with a different
  // deadline still reuses finished records. When the deadline trips, the
  // runner records verdict "timeout" instead of pinning a worker.
  double timeout_ms = 0.0;
  // Channel policy coordinate (wire/meter.hpp): 0 = unbounded (default,
  // the channel off), -1 = metered (bits accounted, nothing enforced),
  // B > 0 = bounded to B bits per message. Unlike timeout_ms this IS a
  // coordinate — a bounded cell answers a different question than an
  // unbounded one — so non-zero values join key(); the default stays out
  // of the key, keeping pre-bandwidth campaign outputs resumable.
  std::int64_t bandwidth_bits = 0;
  // Perturbation coordinates (dynamics/perturbation.hpp): which start
  // schedule and fault plan the runner installs. Both are coordinates — a
  // faulted cell answers a different question — and both defaults stay out
  // of key(), keeping pre-perturbation campaign outputs resumable.
  StartsKind starts = StartsKind::kSynchronous;
  FaultsKind faults = FaultsKind::kNone;

  bool admissible = true;   // false => the runner records "skipped"
  std::string skip_reason;  // diagnosis for inadmissible cells

  [[nodiscard]] int n() const { return static_cast<int>(inputs.size()); }

  // Stable identity used for resume:
  //   suite/agent/model/knowledge/function/schedule/n6/v0/s17
  // with "/b<bits>" appended only when bandwidth_bits != 0, "/w<starts>"
  // only when starts != kSynchronous, and "/f<faults>" only when
  // faults != kNone.
  // A cell's key is a pure function of its coordinates (never of results),
  // so a half-written campaign can be matched against a re-expansion.
  [[nodiscard]] std::string key() const;
};

// The robustness prediction table (runtime/capabilities.hpp): the reasons
// theory predicts this cell to fail — perturbations the cell applies
// (starts axis, faults axis, churn schedule) that its agent's declared
// FaultTolerance does not claim to survive. Empty = predicted to succeed.
// The runner rewrites a predicted cell's negative verdict to
// "expected_failure"; a predicted cell that *succeeds* is a prediction
// mismatch the campaign CLI fails on.
[[nodiscard]] std::string predict_failure(const Cell& cell);

// Where a Spec block's input vectors come from.
enum class InputSource {
  kPanel,     // Table 1 static panels: inputs + graph from (model, variant)
  kFixedSets, // Table 2's three fixed input multisets, variant selects one
  kDerived,   // pseudo-random values derived from (n, seed), variant unused
};

// A (model, knowledge) pairing the paper leaves open; expansion marks every
// matching cell of the block as skipped instead of measuring it.
struct OpenCell {
  CommModel model;
  Knowledge knowledge;
};

// One cross-product block. Empty axis vectors are invalid (expand throws):
// a block states every axis explicitly.
struct Spec {
  std::string suite;
  std::vector<AgentKind> agents;
  std::vector<CommModel> models;
  std::vector<Knowledge> knowledges;
  std::vector<FunctionKind> functions;
  std::vector<ScheduleKind> schedules;
  InputSource input_source = InputSource::kDerived;
  std::vector<int> sizes;             // n axis (kDerived only; else ignored)
  std::vector<std::uint64_t> seeds;   // seed axis (kPanel/kFixedSets: offset)
  int variants = 1;                   // panel / input-set count
  int rounds = 400;
  double tolerance = 1e-3;
  // Bandwidth axis (Cell::bandwidth_bits semantics). The {0} default keeps
  // the channel off and — because the bandwidth loop is innermost — leaves
  // the cell list of every pre-bandwidth grid unchanged, index for index.
  std::vector<std::int64_t> bandwidths = {0};
  // Perturbation axes (Cell::starts / Cell::faults semantics). Like the
  // bandwidth axis, the defaults degenerate their (innermost) loops so
  // pre-perturbation grids keep their cell order and indices.
  std::vector<StartsKind> starts = {StartsKind::kSynchronous};
  std::vector<FaultsKind> faults = {FaultsKind::kNone};
  std::vector<OpenCell> open_cells;
};

// The Table 1 panel for (model, variant): one of the three graphs + input
// vectors every table1 cell runs on (symmetric models get symmetric
// graphs). variant in [0, 3).
struct StaticPanel {
  Digraph graph;
  std::vector<std::int64_t> values;
};
[[nodiscard]] StaticPanel make_static_panel(CommModel model, int variant);
inline constexpr int kStaticPanelCount = 3;

// Table 2's three fixed input multisets. variant in [0, 3).
[[nodiscard]] std::vector<std::int64_t> table2_inputs(int variant);
inline constexpr int kTable2InputSets = 3;

// Deterministic pseudo-random inputs for kDerived blocks: n values in
// [0, 10) mixed from (n, seed, index).
[[nodiscard]] std::vector<std::int64_t> derived_inputs(int n,
                                                       std::uint64_t seed);

class Grid {
 public:
  Grid() = default;

  void add(Spec spec) { specs_.push_back(std::move(spec)); }
  [[nodiscard]] const std::vector<Spec>& specs() const { return specs_; }

  // Deterministic flattening: blocks in insertion order; within a block the
  // loop nest is agent (outer) > knowledge > model > function > schedule >
  // size > variant > seed > bandwidth > starts > faults (inner). Fills
  // index, inputs, admissibility.
  [[nodiscard]] std::vector<Cell> expand() const;

  // Named grids: "table1", "table2", "tables" (both), "open" (the cells of
  // Table 2's two '?' entries, which "tables" records as skipped, measured
  // at the same coordinates), "adversarial" (explicit agents on the
  // worst-case schedules), "bandwidth" (explicit
  // estimators under metered and bounded channels), "faults" (the scenario
  // zoo: async starts x churn overlays x crash/drop, with theory-predicted
  // breakdowns), "smoke" (a fast sub-minute subset). Throws
  // std::invalid_argument on unknown names.
  [[nodiscard]] static Grid preset(const std::string& name);
  [[nodiscard]] static std::vector<std::string> preset_names();

 private:
  std::vector<Spec> specs_;
};

}  // namespace anonet::campaign
