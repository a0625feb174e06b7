#include "core/census.hpp"

#include <cmath>
#include <stdexcept>

#include "support/farey.hpp"

namespace anonet {

Frequency frequency_from_ratios(const std::vector<std::int64_t>& base_values,
                                const std::vector<BigInt>& ratios) {
  if (base_values.size() != ratios.size() || base_values.empty()) {
    throw std::invalid_argument("frequency_from_ratios: size mismatch");
  }
  BigInt total(0);
  for (const BigInt& z : ratios) {
    if (z.signum() <= 0) {
      throw std::invalid_argument("frequency_from_ratios: ratios must be > 0");
    }
    total += z;
  }
  std::map<std::int64_t, BigInt> weight;
  for (std::size_t i = 0; i < base_values.size(); ++i) {
    auto [it, inserted] = weight.emplace(base_values[i], ratios[i]);
    if (!inserted) it->second += ratios[i];
  }
  std::map<std::int64_t, Rational> entries;
  for (auto& [value, w] : weight) {
    entries.emplace(value, Rational(w, total));
  }
  return Frequency(std::move(entries));
}

std::optional<std::vector<BigInt>> fibre_sizes_with_leaders(
    const std::vector<bool>& is_leader_class,
    const std::vector<BigInt>& ratios, std::int64_t leader_count) {
  if (is_leader_class.size() != ratios.size()) {
    throw std::invalid_argument("fibre_sizes_with_leaders: size mismatch");
  }
  if (leader_count <= 0) {
    throw std::invalid_argument("fibre_sizes_with_leaders: need >= 1 leader");
  }
  BigInt leader_ratio_sum(0);
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    if (is_leader_class[i]) leader_ratio_sum += ratios[i];
  }
  if (leader_ratio_sum.is_zero()) return std::nullopt;
  std::vector<BigInt> sizes;
  sizes.reserve(ratios.size());
  for (const BigInt& z : ratios) {
    const BigInt numerator = BigInt(leader_count) * z;
    if (!(numerator % leader_ratio_sum).is_zero()) return std::nullopt;
    sizes.push_back(numerator / leader_ratio_sum);
  }
  return sizes;
}

std::optional<std::map<std::int64_t, BigInt>> multiset_with_leaders(
    const ClassCensus& census, std::int64_t leader_count) {
  std::vector<bool> leader_class;
  leader_class.reserve(census.values.size());
  for (std::int64_t coded : census.values) {
    leader_class.push_back(decode_leader_flag(coded));
  }
  const auto sizes =
      fibre_sizes_with_leaders(leader_class, census.sizes, leader_count);
  if (!sizes.has_value()) return std::nullopt;
  std::map<std::int64_t, BigInt> multiset;
  for (std::size_t i = 0; i < census.values.size(); ++i) {
    multiset[decode_leader_value(census.values[i])] += (*sizes)[i];
  }
  return multiset;
}

std::optional<std::map<std::int64_t, BigInt>> multiset_from_frequency(
    const Frequency& nu, std::int64_t n) {
  if (n <= 0) throw std::invalid_argument("multiset_from_frequency: n <= 0");
  std::map<std::int64_t, BigInt> result;
  for (const auto& [value, freq] : nu.entries()) {
    const BigInt numerator = freq.numerator() * BigInt(n);
    if (!(numerator % freq.denominator()).is_zero()) return std::nullopt;
    result.emplace(value, numerator / freq.denominator());
  }
  return result;
}

std::optional<Frequency> round_frequency(
    const std::map<std::int64_t, double>& estimates,
    std::uint32_t bound_on_n) {
  std::map<std::int64_t, Rational> entries;
  Rational total;
  for (const auto& [value, x] : estimates) {
    if (!std::isfinite(x)) return std::nullopt;
    const Rational rounded = nearest_rational(x, bound_on_n);
    if (rounded.signum() < 0) return std::nullopt;
    if (rounded.signum() > 0) entries.emplace(value, rounded);
    total += rounded;
  }
  if (total != Rational(1) || entries.empty()) return std::nullopt;
  return Frequency(std::move(entries));
}

std::vector<std::int64_t> expand_multiset(
    const std::vector<std::int64_t>& class_values,
    const std::vector<BigInt>& class_sizes) {
  if (class_values.size() != class_sizes.size()) {
    throw std::invalid_argument("expand_multiset: size mismatch");
  }
  std::vector<std::int64_t> result;
  for (std::size_t i = 0; i < class_values.size(); ++i) {
    const std::int64_t count = class_sizes[i].to_int64();
    if (count < 0) throw std::invalid_argument("expand_multiset: negative");
    for (std::int64_t k = 0; k < count; ++k) {
      result.push_back(class_values[i]);
    }
  }
  return result;
}

}  // namespace anonet
