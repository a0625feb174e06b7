#pragma once

// High-level "can this network class compute f?" harness.
//
// This is the executable form of Tables 1 and 2: pick a communication model,
// a level of centralized help, a network (static graph or dynamic schedule)
// and a target function, and `attempt_*` selects the paper's algorithm for
// that cell, runs it, and reports whether the outputs reached f(v) — exactly
// (δ0, with the stabilization round) or asymptotically (δ2, with the final
// sup-error). Cells the paper proves impossible return success = false with
// the reason; bench/lifting_obstruction demonstrates *why* they fail.

#include <cstdint>
#include <string>
#include <vector>

#include "dynamics/dynamic_graph.hpp"
#include "functions/functions.hpp"
#include "graph/digraph.hpp"
#include "runtime/comm_model.hpp"
#include "runtime/convergence.hpp"

namespace anonet {

enum class Knowledge {
  kNone,       // no centralized help
  kUpperBound, // a bound N >= n is known (parameter = N)
  kExactSize,  // n is known (parameter = n)
  kLeaders,    // parameter = ℓ; inputs must be encode_leader_input()-coded
};

[[nodiscard]] std::string_view to_string(Knowledge knowledge);

struct Attempt {
  CommModel model = CommModel::kSimpleBroadcast;
  Knowledge knowledge = Knowledge::kNone;
  std::int64_t parameter = 0;  // N, n, or ℓ depending on `knowledge`
  int rounds = 50;             // simulation horizon
  double tolerance = 1e-4;     // δ2 acceptance for asymptotic computation
  std::uint64_t seed = 1;      // executor shuffle seed
  // Cooperative wall-clock budget for the attempt (<= 0: unlimited). When
  // the budget elapses, the executor throws DeadlineExceeded between rounds
  // and the exception propagates out of attempt_* — callers that want a
  // distinguishable timeout verdict (the campaign runner) catch it there.
  double deadline_ms = 0.0;
  // Channel policy (wire/meter.hpp): 0 = unbounded, -1 = metered, B > 0 =
  // bounded to B bits per message. Under a bounded channel an over-budget
  // message makes the executor throw wire::BandwidthExceeded between the
  // send phase and delivery; as with the deadline, the campaign runner
  // catches it for a distinguishable "bandwidth_exceeded" verdict.
  std::int64_t bandwidth_bits = 0;
};

// Both entry points throw std::invalid_argument when the help contradicts
// the inputs: a bound below n, a known n other than the input count, or ℓ
// other than the number of leader-flagged inputs (or below 1).

// Static strongly connected networks (Theorem 4.1, Corollaries 4.2-4.4).
// For kOutputPortAware the graph's ports are assigned automatically when
// absent. For kLeaders, code the inputs with encode_leader_input().
[[nodiscard]] AttemptResult attempt_static(
    const Digraph& g, const std::vector<std::int64_t>& inputs,
    const SymmetricFunction& f, const Attempt& attempt);

// Dynamic networks with finite dynamic diameter (Section 5): Push-Sum for
// outdegree awareness; under symmetric communications, degree-oblivious
// uniform-weight consensus when a bound on n or n itself is known and
// history-tree classes otherwise; gossip for set-based functions everywhere.
// Throws std::invalid_argument when a bound or n (the parameter under
// kUpperBound or kExactSize) lies outside [1, 2^32 - 1].
[[nodiscard]] AttemptResult attempt_dynamic(
    const DynamicGraphPtr& network, const std::vector<std::int64_t>& inputs,
    const SymmetricFunction& f, const Attempt& attempt);

// Ground truth f(v) with leader coding stripped when applicable.
[[nodiscard]] Rational ground_truth(const std::vector<std::int64_t>& inputs,
                                    const SymmetricFunction& f,
                                    Knowledge knowledge);

}  // namespace anonet
