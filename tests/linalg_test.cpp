// Tests for exact matrices and kernels — the machinery behind the Section
// 4.2 fibre-equation solve — and for the spectral argument behind it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/freq_static.hpp"
#include "fibration/minimum_base.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "linalg/kernel.hpp"
#include "linalg/matrix.hpp"

namespace anonet {
namespace {

Rational r(std::int64_t num, std::int64_t den = 1) {
  return Rational(BigInt(num), BigInt(den));
}

TEST(Matrix, Multiplication) {
  const RationalMatrix a{{r(1), r(2)}, {r(3), r(4)}};
  const RationalMatrix b{{r(0), r(1)}, {r(1), r(0)}};
  const RationalMatrix product = a * b;
  EXPECT_EQ(product.at(0, 0), r(2));
  EXPECT_EQ(product.at(0, 1), r(1));
  EXPECT_EQ(product.at(1, 0), r(4));
  EXPECT_EQ(product.at(1, 1), r(3));
}

TEST(Matrix, IdentityAndApply) {
  const RationalMatrix id = RationalMatrix::identity(3);
  const std::vector<Rational> v{r(1), r(2), r(3)};
  EXPECT_EQ(id.apply(v), v);
  EXPECT_THROW(id.apply({r(1)}), std::invalid_argument);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((RationalMatrix{{r(1), r(2)}, {r(3)}}), std::invalid_argument);
}

TEST(Kernel, RankOfSingularMatrix) {
  const RationalMatrix m{{r(1), r(2)}, {r(2), r(4)}};
  EXPECT_EQ(rank(m), 1u);
  EXPECT_EQ(rank(RationalMatrix::identity(4)), 4u);
}

TEST(Kernel, KernelBasisSpansTheKernel) {
  const RationalMatrix m{{r(1), r(2), r(3)}, {r(2), r(4), r(6)}};
  const auto basis = kernel_basis(m);
  ASSERT_EQ(basis.size(), 2u);
  for (const auto& vec : basis) {
    for (const Rational& entry : m.apply(vec)) {
      EXPECT_EQ(entry, r(0));
    }
  }
}

TEST(Kernel, InjectiveMatrixHasEmptyKernel) {
  EXPECT_TRUE(kernel_basis(RationalMatrix::identity(3)).empty());
}

TEST(Kernel, CoprimeIntegerVector) {
  const std::vector<Rational> v{r(1, 2), r(1, 3), r(1, 6)};
  const auto ints = coprime_integer_vector(v);
  ASSERT_EQ(ints.size(), 3u);
  EXPECT_EQ(ints[0], BigInt(3));
  EXPECT_EQ(ints[1], BigInt(2));
  EXPECT_EQ(ints[2], BigInt(1));
  EXPECT_THROW(coprime_integer_vector({r(0), r(0)}), std::invalid_argument);
}

TEST(Kernel, PositiveCoprimeKernelVector) {
  // M = [[-1, 2], [1, -2]] has kernel spanned by (2, 1).
  const RationalMatrix m{{r(-1), r(2)}, {r(1), r(-2)}};
  const auto z = positive_coprime_kernel_vector(m);
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ((*z)[0], BigInt(2));
  EXPECT_EQ((*z)[1], BigInt(1));
}

TEST(Kernel, RejectsMixedSignKernel) {
  // Kernel spanned by (1, -1): no positive generator.
  const RationalMatrix m{{r(1), r(1)}, {r(1), r(1)}};
  EXPECT_FALSE(positive_coprime_kernel_vector(m).has_value());
}

TEST(Kernel, RejectsHigherDimensionalKernel) {
  const RationalMatrix zero(2, 2);
  EXPECT_FALSE(positive_coprime_kernel_vector(zero).has_value());
}

TEST(Kernel, SystemsWithNoRows) {
  // The history-tree solve hands over a 0 x m system when every relation
  // is trivial: one unknown is pinned to [1], two are not pinned at all.
  const auto single = positive_coprime_kernel_vector(RationalMatrix(0, 1));
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(*single, std::vector<BigInt>{BigInt(1)});
  EXPECT_FALSE(
      positive_coprime_kernel_vector(RationalMatrix(0, 2)).has_value());
}

TEST(Kernel, FibreMatrixKernelGivesFibreSizes) {
  // End-to-end Section 4.2 on a known lift: ker M must be R·(fibre sizes).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Digraph base_graph = random_strongly_connected(4, 3, seed + 50);
    const std::vector<int> sizes{3, 3, 3, 3};
    const LiftedGraph lift = random_lift(base_graph, sizes, seed);
    const Digraph& g = lift.graph;
    const std::vector<int> labels = outdegree_labels(g);
    const MinimumBase mb = minimum_base(g, labels);
    // Read off per-class outdegrees.
    std::vector<int> b(static_cast<std::size_t>(mb.base.vertex_count()));
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      b[static_cast<std::size_t>(
          mb.projection[static_cast<std::size_t>(v)])] = g.outdegree(v);
    }
    const auto z = positive_coprime_kernel_vector(fibre_matrix(mb.base, b));
    ASSERT_TRUE(z.has_value()) << seed;
    // The true fibre sizes must be an integer multiple of z.
    const std::vector<int> fibres = mb.fibre_sizes();
    ASSERT_EQ(z->size(), fibres.size());
    const BigInt k = BigInt(fibres[0]) / (*z)[0];
    EXPECT_FALSE(k.is_zero());
    for (std::size_t i = 0; i < fibres.size(); ++i) {
      EXPECT_EQ(BigInt(fibres[i]), k * (*z)[i]) << seed << " i=" << i;
    }
  }
}

// The Section 4.2 argument, made executable. The proof shifts the fibre
// matrix M by αI with α > -min_i M_{i,i} so that P = M + αI is
// non-negative and irreducible, then concludes via Perron–Frobenius that
// ker M is one-dimensional. The Perron tests check that the spectral radius
// of P is exactly α on real fibre matrices (the Perron eigenvalue of M is 0).
using DoubleMatrix = std::vector<std::vector<double>>;

// P = M + αI with α = 1 - min_i M_{i,i} (any value > -min M_{i,i} works).
DoubleMatrix perron_shift(const RationalMatrix& m, double* alpha_out) {
  DoubleMatrix result(m.rows(), std::vector<double>(m.cols(), 0.0));
  double min_diag = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      result[i][j] = m.at(i, j).to_double();
    }
    min_diag = std::min(min_diag, result[i][i]);
  }
  const double alpha = 1.0 - min_diag;
  for (std::size_t i = 0; i < m.rows(); ++i) result[i][i] += alpha;
  *alpha_out = alpha;
  return result;
}

// True when the matrix is non-negative and its associated graph (edge j->i
// when M_{i,j} > 0, the paper's G_A convention) is strongly connected.
bool is_irreducible_nonnegative(const DoubleMatrix& m) {
  const auto n = static_cast<Vertex>(m.size());
  Digraph g(n);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      const double entry =
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (entry < 0.0) return false;
      if (entry > 0.0) g.add_edge(j, i);
    }
  }
  return is_strongly_connected(g);
}

// Spectral radius by power iteration, for non-negative irreducible matrices
// with a positive diagonal (primitive), as perron_shift produces.
double spectral_radius(const DoubleMatrix& m) {
  const std::size_t n = m.size();
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  double radius = 0.0;
  for (int it = 0; it < 10000; ++it) {
    std::vector<double> next(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) next[i] += m[i][j] * v[j];
    }
    double norm = 0.0;
    for (double x : next) norm += std::abs(x);
    if (norm == 0.0) return 0.0;
    for (double& x : next) x /= norm;
    radius = norm;
    // Early exit once the iterate stops moving.
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) delta += std::abs(next[i] - v[i]);
    v = std::move(next);
    if (delta < 1e-15) break;
  }
  return radius;
}

TEST(Perron, ShiftedFibreMatrixHasSpectralRadiusAlpha) {
  // The Section 4.2 argument: the Perron eigenvalue of M is 0, so
  // ρ(M + αI) = α exactly.
  const Digraph base_graph = random_strongly_connected(3, 3, 99);
  const LiftedGraph lift = random_lift(base_graph, {3, 3, 3}, 4);
  const std::vector<int> labels = outdegree_labels(lift.graph);
  const MinimumBase mb = minimum_base(lift.graph, labels);
  std::vector<int> b(static_cast<std::size_t>(mb.base.vertex_count()));
  for (Vertex v = 0; v < lift.graph.vertex_count(); ++v) {
    b[static_cast<std::size_t>(mb.projection[static_cast<std::size_t>(v)])] =
        lift.graph.outdegree(v);
  }
  const RationalMatrix m = fibre_matrix(mb.base, b);
  double alpha = 0.0;
  const DoubleMatrix p = perron_shift(m, &alpha);
  EXPECT_TRUE(is_irreducible_nonnegative(p));
  EXPECT_NEAR(spectral_radius(p), alpha, 1e-6);
}

TEST(Perron, SpectralRadiusOfKnownMatrix) {
  // [[0, 1], [1, 0]] has spectral radius 1... but is 2-periodic; use a
  // primitive matrix instead: [[1, 1], [1, 1]] has radius 2.
  EXPECT_NEAR(spectral_radius({{1.0, 1.0}, {1.0, 1.0}}), 2.0, 1e-9);
  EXPECT_NEAR(spectral_radius({{2.0, 0.0}, {0.0, 1.0}}), 2.0, 1e-9);
}

TEST(Perron, IrreducibilityCheck) {
  EXPECT_TRUE(is_irreducible_nonnegative({{1.0, 1.0}, {1.0, 1.0}}));
  EXPECT_FALSE(is_irreducible_nonnegative({{1.0, 0.0}, {0.0, 1.0}}));
  EXPECT_FALSE(is_irreducible_nonnegative({{1.0, -1.0}, {1.0, 1.0}}));
}

}  // namespace
}  // namespace anonet
