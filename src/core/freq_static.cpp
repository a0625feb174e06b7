#include "core/freq_static.hpp"

#include <deque>
#include <stdexcept>

#include "graph/analysis.hpp"
#include "linalg/kernel.hpp"

namespace anonet {

RationalMatrix fibre_matrix(const Digraph& base,
                            const std::vector<int>& outdegrees) {
  const auto m = static_cast<std::size_t>(base.vertex_count());
  if (outdegrees.size() != m) {
    throw std::invalid_argument("fibre_matrix: outdegree size mismatch");
  }
  RationalMatrix matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      matrix.at(i, j) = Rational(base.edge_multiplicity(
          static_cast<Vertex>(i), static_cast<Vertex>(j)));
    }
    matrix.at(i, i) -= Rational(outdegrees[i]);
  }
  return matrix;
}

std::optional<std::vector<BigInt>> fibre_ratios_outdegree(
    const Digraph& base, const std::vector<int>& base_outdegrees) {
  return positive_coprime_kernel_vector(fibre_matrix(base, base_outdegrees));
}

std::optional<std::vector<BigInt>> fibre_ratios_symmetric(const Digraph& base) {
  const Vertex m = base.vertex_count();
  if (m == 0) return std::nullopt;
  // z_j / z_i = d_{j,i} / d_{i,j} (eq. 4); propagate from vertex 0 by BFS
  // over the support, then check every support edge for consistency.
  std::vector<Rational> z(static_cast<std::size_t>(m));
  std::vector<bool> assigned(static_cast<std::size_t>(m), false);
  z[0] = Rational(1);
  assigned[0] = true;
  std::deque<Vertex> queue{0};
  while (!queue.empty()) {
    const Vertex i = queue.front();
    queue.pop_front();
    for (EdgeId id : base.out_edges(i)) {
      const Vertex j = base.edge(id).target;
      if (assigned[static_cast<std::size_t>(j)]) continue;
      const int d_ij = base.edge_multiplicity(i, j);
      const int d_ji = base.edge_multiplicity(j, i);
      if (d_ji == 0) return std::nullopt;  // asymmetric support: bad base
      z[static_cast<std::size_t>(j)] = z[static_cast<std::size_t>(i)] *
                                       Rational(BigInt(d_ji), BigInt(d_ij));
      assigned[static_cast<std::size_t>(j)] = true;
      queue.push_back(j);
    }
  }
  for (Vertex v = 0; v < m; ++v) {
    if (!assigned[static_cast<std::size_t>(v)]) return std::nullopt;
  }
  for (Vertex i = 0; i < m; ++i) {
    for (EdgeId id : base.out_edges(i)) {
      const Vertex j = base.edge(id).target;
      const int d_ij = base.edge_multiplicity(i, j);
      const int d_ji = base.edge_multiplicity(j, i);
      if (d_ji == 0) return std::nullopt;
      if (z[static_cast<std::size_t>(j)] * Rational(d_ij) !=
          z[static_cast<std::size_t>(i)] * Rational(d_ji)) {
        return std::nullopt;  // eq. (4) violated: candidate base is bogus
      }
    }
  }
  return coprime_integer_vector(z);
}

std::vector<BigInt> fibre_ratios_ports(const Digraph& base) {
  return std::vector<BigInt>(static_cast<std::size_t>(base.vertex_count()),
                             BigInt(1));
}

namespace {

// A candidate's labels decoded into input values and, when the labels carry
// them, outdegrees; nullopt for a garbage label or mixed label kinds.
struct DecodedBase {
  std::vector<std::int64_t> values;
  std::vector<int> outdegrees;  // empty unless labels carry outdegrees
};

std::optional<DecodedBase> decode_base(const ExtractedBase& candidate,
                                       const LabelCodec& codec) {
  DecodedBase decoded;
  decoded.values.reserve(candidate.values.size());
  bool any_outdegree = false;
  for (int label : candidate.values) {
    try {
      decoded.values.push_back(codec.value_of(label));
      if (codec.has_outdegree(label)) {
        any_outdegree = true;
        decoded.outdegrees.push_back(codec.outdegree_of(label));
      }
    } catch (const std::out_of_range&) {
      return std::nullopt;  // garbage label (e.g. injected corruption)
    }
  }
  if (any_outdegree && decoded.outdegrees.size() != decoded.values.size()) {
    return std::nullopt;  // mixed label kinds: corrupted candidate
  }
  return decoded;
}

}  // namespace

std::optional<ClassCensus> static_census(const ExtractedBase& candidate,
                                         const LabelCodec& codec,
                                         CommModel model) {
  if (!candidate.plausible) return std::nullopt;
  std::optional<DecodedBase> decoded = decode_base(candidate, codec);
  if (!decoded.has_value()) return std::nullopt;

  std::optional<std::vector<BigInt>> ratios;
  switch (model) {
    case CommModel::kSimpleBroadcast:
      // Theorem 4.1 / Hendrickx et al.: frequencies are not recoverable.
      return std::nullopt;
    case CommModel::kOutdegreeAware:
      if (decoded->outdegrees.empty()) return std::nullopt;
      ratios = fibre_ratios_outdegree(candidate.base, decoded->outdegrees);
      break;
    case CommModel::kSymmetricBroadcast:
      ratios = fibre_ratios_symmetric(candidate.base);
      break;
    case CommModel::kOutputPortAware:
      ratios = fibre_ratios_ports(candidate.base);
      break;
  }
  if (!ratios.has_value()) return std::nullopt;
  return ClassCensus{std::move(decoded->values), std::move(*ratios)};
}

}  // namespace anonet
