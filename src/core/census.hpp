#pragma once

// The census: the one hand-off from what an exact mechanism recovers to f(v).
//
// Both exact mechanisms recover class cardinalities up to a common positive
// factor — the fibre ratios of eqs. (1), (3) and (4) on static networks
// (core/freq_static.hpp), the history-tree classes of [25, 26] on dynamic
// symmetric ones (core/history_tree.hpp) — and hand them over as a
// ClassCensus. That alone gives the frequency ν; centralized help fixes the
// factor and so gives the multiset [ω1, ..., ωn], hence any multiset-based
// function (e.g. the sum):
//   - Corollary 4.3: with n known, multiplicities are ν(ω) · n;
//   - Corollary 4.4 / eq. (5): with ℓ leaders (ℓ known to all), the leader
//     classes pin the common factor: |φ⁻¹(i)| = ℓ z_i / Σ_{j∈L} z_j.
// The asymptotic mechanisms hand over real frequency estimates instead,
// which Q_N rounding (Corollary 5.3) makes exact.
//
// Leaders are modeled as a flag on the input: an agent's value for labelling
// purposes is the pair (ω, is_leader), which is how "one or several agents
// are distinguished as leaders" breaks anonymity in the paper. The flag is
// packed into the int64 input (LSB) so every algorithm layer is unchanged.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "functions/functions.hpp"
#include "support/bigint.hpp"

namespace anonet {

// --- leader encoding ---------------------------------------------------------

[[nodiscard]] constexpr std::int64_t encode_leader_input(std::int64_t value,
                                                         bool is_leader) {
  return value * 2 + (is_leader ? 1 : 0);
}
[[nodiscard]] constexpr std::int64_t decode_leader_value(std::int64_t coded) {
  // Floor division keeps negatives correct: encode(-3, 1) = -5 -> -3.
  return coded >= 0 ? coded / 2 : (coded - 1) / 2;
}
[[nodiscard]] constexpr bool decode_leader_flag(std::int64_t coded) {
  return (coded % 2 + 2) % 2 == 1;
}

// --- the hand-off ------------------------------------------------------------

// One entry per class (a fibre of the minimum base, or a deepest-level
// history-tree class): the class's input value — encode_leader_input()-coded
// under leaders — and its size, up to a factor common to all classes.
struct ClassCensus {
  std::vector<std::int64_t> values;
  std::vector<BigInt> sizes;  // positive
};

// ν_v from class values and sizes: ν(ω) = Σ_{i: w_i = ω} z_i / Σ_i z_i.
[[nodiscard]] Frequency frequency_from_ratios(
    const std::vector<std::int64_t>& base_values,
    const std::vector<BigInt>& ratios);

// Eq. (5): exact fibre cardinalities from ratios plus leader classes.
// `is_leader_class[i]` marks base vertices whose fibre consists of leaders;
// nullopt when ℓ Σ... does not divide evenly (bogus candidate) or when no
// leader class exists.
[[nodiscard]] std::optional<std::vector<BigInt>> fibre_sizes_with_leaders(
    const std::vector<bool>& is_leader_class,
    const std::vector<BigInt>& ratios, std::int64_t leader_count);

// Corollary 4.4 on a census of leader-coded values: eq. (5), checked per
// class, then the multiplicity of every decoded value; nullopt as for
// fibre_sizes_with_leaders.
[[nodiscard]] std::optional<std::map<std::int64_t, BigInt>>
multiset_with_leaders(const ClassCensus& census, std::int64_t leader_count);

// Corollary 4.3: multiplicities ν(ω)·n, checked per value; nullopt if any
// is not an integer (bogus frequency estimate for this n).
[[nodiscard]] std::optional<std::map<std::int64_t, BigInt>>
multiset_from_frequency(const Frequency& nu, std::int64_t n);

// Corollary 5.3: every estimate rounded to the nearest element of Q_N
// (support/farey.hpp); nullopt unless the rounded values are finite,
// non-negative and form a frequency function.
[[nodiscard]] std::optional<Frequency> round_frequency(
    const std::map<std::int64_t, double>& estimates, std::uint32_t bound_on_n);

// Expands per-class (value, cardinality) into a flat multiset vector usable
// by SymmetricFunction. Throws if a cardinality does not fit an int.
[[nodiscard]] std::vector<std::int64_t> expand_multiset(
    const std::vector<std::int64_t>& class_values,
    const std::vector<BigInt>& class_sizes);

}  // namespace anonet
