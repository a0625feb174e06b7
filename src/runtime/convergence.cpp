#include "runtime/convergence.hpp"

namespace anonet {

double max_abs_error(std::span<const double> outputs, double target) {
  double result = 0.0;
  for (double x : outputs) {
    if (!std::isfinite(x)) return std::numeric_limits<double>::infinity();
    result = std::max(result, std::abs(x - target));
  }
  return result;
}

double spread(std::span<const double> outputs) {
  if (outputs.empty()) return 0.0;
  const auto [min_it, max_it] =
      std::minmax_element(outputs.begin(), outputs.end());
  return *max_it - *min_it;
}

}  // namespace anonet
