#pragma once

// What the two campaign tools (anonet_campaign, anonet_node) share: the
// strict number parser for their options, which examples/explore reads its
// numbers with too, and the report of a finished run's verdict.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "campaign/metrics.hpp"

namespace anonet::tools {

// The whole argument must be one number that T holds. Trailing characters,
// overflow (ERANGE), values outside T and non-finite doubles are rejected,
// never truncated or wrapped.
template <typename T>
[[nodiscard]] bool parse_number(const char* text, T& out) {
  static_assert(std::is_same_v<T, double> ||
                    (std::is_integral_v<T> &&
                     (std::is_signed_v<T> || sizeof(T) < sizeof(long long))),
                "parse_number reads doubles and integers that long long holds");
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_same_v<T, double>) {
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value)) {
      return false;
    }
    out = value;
  } else {
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        value < static_cast<long long>(std::numeric_limits<T>::min()) ||
        value > static_cast<long long>(std::numeric_limits<T>::max())) {
      return false;
    }
    out = static_cast<T>(value);
  }
  return true;
}

// Reports campaign::judge_run's verdict: the keys of predicted breakdowns
// that succeeded (stderr), each table suite's comparison unless `quiet`,
// and the paper line when the tables gate the run.
inline void print_verdict(const campaign::RunVerdict& verdict,
                          const char* tool, bool quiet) {
  for (const std::string& key : verdict.predicted_successes) {
    std::fprintf(stderr, "%s: predicted breakdown succeeded: %s\n", tool,
                 key.c_str());
  }
  if (!quiet) {
    for (const campaign::TableComparison& table : verdict.tables) {
      std::printf("\n%s", campaign::render_table(table).c_str());
    }
  }
  if (verdict.tables_gate) {
    std::printf("\n%s\n", verdict.tables_match
                              ? "All non-open cells match the paper; open "
                                "'?' cells recorded as skipped."
                              : "MISMATCH against the paper's tables — see "
                                "above.");
  }
}

}  // namespace anonet::tools
