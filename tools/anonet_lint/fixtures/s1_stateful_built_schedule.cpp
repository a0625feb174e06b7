// Negative fixture — anonet_lint MUST flag this file under rule S1.
//
// Generated schedules derive from the lending base BuiltSchedule, not from
// DynamicGraph directly, and implement a pure build(t, into). This one keeps
// a mersenne twister as a member and advances it inside build(): the graph
// lent for round t then depends on which rounds were built before, and a
// lookahead, a replay or a second schedule instance sees different
// topologies. The sanctioned pattern (a LOCAL generator keyed by
// mix_seed(seed, t), as in RandomMatchingSchedule::build) appears below and
// must NOT fire.

#include <cstdint>
#include <random>

namespace anonet_fixtures {

using Vertex = int;

struct Digraph {
  Vertex n = 0;
};

class DynamicGraph {
 public:
  virtual ~DynamicGraph() = default;
  [[nodiscard]] virtual Vertex vertex_count() const = 0;
  [[nodiscard]] virtual const Digraph* view(int t) const = 0;
};

// The lending base: slots the subclass's build(t, into) fills in place.
class BuiltSchedule : public DynamicGraph {
 public:
  [[nodiscard]] const Digraph* view(int t) const final {
    build(t, slot_);
    return &slot_;
  }

 protected:
  virtual void build(int t, Digraph& into) const = 0;

 private:
  mutable Digraph slot_;
};

inline std::uint64_t mix_seed(std::uint64_t seed, int t) {
  return seed ^ (static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ull);
}

// S1: the member engine makes build(t) depend on every earlier build.
class DriftingBuiltSchedule final : public BuiltSchedule {
 public:
  DriftingBuiltSchedule(Vertex n, std::uint64_t seed) : n_(n), rng_(seed) {}

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int /*t*/, Digraph& into) const override {
    into = Digraph{static_cast<Vertex>(rng_() % n_)};
  }

  Vertex n_;
  mutable std::mt19937_64 rng_;  // S1: stateful generator member
};

// Clean: the generator is local to build(t) and keyed on (seed, t), so the
// same round always reproduces the same graph.
class PureBuiltSchedule final : public BuiltSchedule {
 public:
  PureBuiltSchedule(Vertex n, std::uint64_t seed) : n_(n), seed_(seed) {}

  [[nodiscard]] Vertex vertex_count() const override { return n_; }

 private:
  void build(int t, Digraph& into) const override {
    std::mt19937_64 rng(mix_seed(seed_, t));
    into = Digraph{static_cast<Vertex>(rng() % n_)};
  }

  Vertex n_;
  std::uint64_t seed_;
};

}  // namespace anonet_fixtures
