// Experiment F7 — Table 1, footnote (a): with simple broadcast and n known,
// only set-based functions are computable for n >= 4, but "for smaller
// networks, the topology always allows for the recovery of the multi-set"
// (attributed to Jérémie Chalopin).
//
// Two agents are indistinguishable to every algorithm iff their networks
// share the same valued minimum base (equal views, Lemma 3.1/3.2). The
// footnote is thus equivalent to a *finite* statement we can check by
// exhaustive search: among all simple strongly connected n-vertex networks
// with self-loops and 2-valued inputs,
//   n <= 3:  any two networks with isomorphic valued minimum bases have the
//            same input multiset (so knowing n pins the multiset), while
//   n  = 4:  there exists a pair with isomorphic bases but different
//            multisets — an indistinguishable witness pair that kills every
//            multiset-based function beyond frequencies.
// This harness performs that search and prints the smallest witness; it
// exits non-zero unless the smallest witness has n = 4.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "fibration/minimum_base.hpp"
#include "graph/analysis.hpp"
#include "graph/io.hpp"
#include "graph/isomorphism.hpp"

using namespace anonet;

namespace {

struct Candidate {
  Digraph graph;
  std::vector<int> values;
  std::vector<int> multiset;  // sorted input values
  MinimumBase base;
};

// All simple digraphs on n vertices with every self-loop present, strongly
// connected, with values from {0, 1} (up to complement: fix value[0] = 0).
std::vector<Candidate> enumerate(int n) {
  std::vector<std::pair<Vertex, Vertex>> slots;
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      if (i != j) slots.emplace_back(i, j);
    }
  }
  std::vector<Candidate> result;
  const std::uint64_t edge_masks = std::uint64_t{1} << slots.size();
  for (std::uint64_t mask = 0; mask < edge_masks; ++mask) {
    Digraph g(n);
    for (Vertex v = 0; v < n; ++v) g.add_edge(v, v);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (mask & (std::uint64_t{1} << s)) {
        g.add_edge(slots[s].first, slots[s].second);
      }
    }
    if (!is_strongly_connected(g)) continue;
    for (int value_mask = 0; value_mask < (1 << n); value_mask += 2) {
      std::vector<int> values;
      for (int v = 0; v < n; ++v) values.push_back((value_mask >> v) & 1);
      Candidate candidate{g, values, values, minimum_base(g, values)};
      std::sort(candidate.multiset.begin(), candidate.multiset.end());
      result.push_back(std::move(candidate));
    }
  }
  return result;
}

// Finds a pair with isomorphic valued minimum bases but different input
// multisets; returns indices or (-1, -1).
std::pair<int, int> find_witness(const std::vector<Candidate>& candidates) {
  // Group by a cheap invariant before the expensive isomorphism test.
  std::map<std::tuple<Vertex, EdgeId, std::vector<int>>, std::vector<int>>
      groups;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::vector<int> base_values = candidates[i].base.values;
    std::sort(base_values.begin(), base_values.end());
    groups[{candidates[i].base.base.vertex_count(),
            candidates[i].base.base.edge_count(), std::move(base_values)}]
        .push_back(static_cast<int>(i));
  }
  for (const auto& [key, members] : groups) {
    for (std::size_t x = 0; x < members.size(); ++x) {
      for (std::size_t y = x + 1; y < members.size(); ++y) {
        const Candidate& a = candidates[static_cast<std::size_t>(members[x])];
        const Candidate& b = candidates[static_cast<std::size_t>(members[y])];
        if (a.multiset == b.multiset) continue;
        if (find_isomorphism(a.base.base, a.base.values, b.base.base,
                             b.base.values)
                .has_value()) {
          return {members[x], members[y]};
        }
      }
    }
  }
  return {-1, -1};
}

}  // namespace

int main() {
  std::printf(
      "F7 — footnote (a) of Table 1, by exhaustive search over simple "
      "strongly connected networks with self-loops and 2-valued inputs\n\n");
  int witness_n = -1;
  for (int n = 2; n <= 4; ++n) {
    const std::vector<Candidate> candidates = enumerate(n);
    const auto [i, j] = find_witness(candidates);
    if (i != -1) witness_n = n;
    std::printf("n = %d: %6zu (network, valuation) pairs scanned -> %s\n", n,
                candidates.size(),
                i == -1 ? "no indistinguishable multiset-conflicting pair "
                          "(multiset recoverable, as the footnote claims)"
                        : "WITNESS FOUND (multiset NOT recoverable)");
    if (i != -1) {
      const Candidate& a = candidates[static_cast<std::size_t>(i)];
      const Candidate& b = candidates[static_cast<std::size_t>(j)];
      auto show = [](const Candidate& c, const char* name) {
        std::printf("\n  %s: values (", name);
        for (std::size_t v = 0; v < c.values.size(); ++v) {
          std::printf("%s%d", v == 0 ? "" : ",", c.values[v]);
        }
        std::printf("), multiset sum %d\n", [&] {
          int s = 0;
          for (int v : c.multiset) s += v;
          return s;
        }());
        std::printf("%s", to_edge_list(c.graph).c_str());
      };
      show(a, "network A");
      show(b, "network B");
      std::printf(
          "\n  Same valued minimum base (checked by isomorphism): every "
          "agent in A has a twin in B with identical views forever, yet the "
          "multisets differ — sum/count are uncomputable even knowing "
          "n = %d.\n",
          n);
      break;  // the smallest witness is the point; stop here
    }
  }
  // The footnote holds when n = 2 and 3 have no witness and n = 4 has one.
  return witness_n == 4 ? 0 : 1;
}
