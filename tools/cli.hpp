#pragma once

// The strict number parser the command-line programs (tools/anonet_campaign,
// examples/explore) read their options with.

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

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

}  // namespace anonet::tools
