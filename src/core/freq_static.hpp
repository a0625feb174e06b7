#pragma once

// The three static frequency computations of Theorem 4.1 (Sections 4.2-4.3).
//
// All three start from the (distributively computed) minimum base and
// recover the fibre cardinalities up to a common positive factor:
//   - outdegree awareness: solve the homogeneous fibre-equation system
//     M z = 0 (eq. 1), whose kernel the paper proves one-dimensional with a
//     positive generator via the à-la-Perron-Frobenius argument;
//   - symmetric communications: propagate the pairwise ratios of eq. (4)
//     d_{i,j} |φ⁻¹(j)| = d_{j,i} |φ⁻¹(i)| along a spanning tree;
//   - output port awareness: fibrations are coverings, so all fibres have
//     the same cardinality (eq. 3) and no system needs solving.
// The ratios, paired with the base's input values, are the ClassCensus
// (core/census.hpp) that the output layer turns into f(v).
//
// These functions accept *candidate* bases (possibly wrong in early rounds)
// and return nullopt when the candidate cannot support a consistent
// solution; from round n + D onwards they succeed and are exact.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/census.hpp"
#include "graph/digraph.hpp"
#include "linalg/matrix.hpp"
#include "runtime/comm_model.hpp"
#include "support/bigint.hpp"
#include "views/base_extraction.hpp"
#include "views/label_codec.hpp"

namespace anonet {

// The Section 4.2 matrix: M_{i,j} = d_{i,j} (i != j), M_{i,i} = d_{i,i} - b_i
// where d_{i,j} counts base edges i -> j and b_i is the common outdegree of
// the fibre over i.
[[nodiscard]] RationalMatrix fibre_matrix(const Digraph& base,
                                          const std::vector<int>& outdegrees);

// Outdegree awareness: the positive coprime generator of ker M, i.e. the
// fibre cardinalities up to a common factor (eq. 2).
[[nodiscard]] std::optional<std::vector<BigInt>> fibre_ratios_outdegree(
    const Digraph& base, const std::vector<int>& base_outdegrees);

// Symmetric communications: ratios from eq. (4). Verifies consistency of
// every support edge (a failed check flags a bogus candidate base).
[[nodiscard]] std::optional<std::vector<BigInt>> fibre_ratios_symmetric(
    const Digraph& base);

// Output port awareness: all-ones (eq. 3).
[[nodiscard]] std::vector<BigInt> fibre_ratios_ports(const Digraph& base);

// End-to-end, per model: decode the candidate's labels with `codec` and
// apply the model's ratio rule — the one switch over the three rules.
// nullopt for kSimpleBroadcast (Theorem 4.1's negative side — no rule
// exists) or when the candidate is inconsistent.
[[nodiscard]] std::optional<ClassCensus> static_census(
    const ExtractedBase& candidate, const LabelCodec& codec, CommModel model);

}  // namespace anonet
