#pragma once

// Counter-based random bit generator for reproducible parallel execution.
//
// The executor shuffles each agent's inbox so algorithms cannot extract
// information from arrival order. A shared sequential generator (the seed
// implementation's mt19937_64) makes the shuffle depend on the order in
// which inboxes are processed — which is exactly what a thread-parallel
// receive phase does not preserve. CounterRng instead derives an
// independent stream from a (seed, round, vertex) key, so vertex v's
// shuffle in round t is a pure function of the key no matter which worker
// performs it, and serial and parallel runs deliver bitwise-identical
// message orders.
//
// The construction is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): the key
// is mixed into an initial state and each draw advances the state by the
// golden-ratio increment and applies the finalizer. It passes BigCrush as a
// stream generator and is vastly cheaper to key than a Mersenne twister.

#include <cstdint>
#include <limits>

namespace anonet {

// The SplitMix64 finalizer: a bijective avalanche of one 64-bit word.
// CounterRng's draws, the random schedules' per-round seeds and derived
// campaign inputs all pass through it, so changing it changes the bytes of
// every dynamic grid.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class CounterRng {
 public:
  using result_type = std::uint64_t;

  CounterRng(std::uint64_t seed, std::uint64_t round, std::uint64_t vertex) {
    // Decorrelate the three key components before summing them into the
    // stream origin; plain addition would alias (seed, round+1, vertex) with
    // (seed, round, vertex+1).
    state_ = splitmix64(seed ^ 0x9e3779b97f4a7c15ull) +
             splitmix64(round ^ 0xbf58476d1ce4e5b9ull) +
             splitmix64(vertex ^ 0x94d049bb133111ebull);
  }

  result_type operator()() {
    state_ += 0x9e3779b97f4a7c15ull;
    return splitmix64(state_);
  }

  // Uniform draw in [0, bound) via Lemire's multiply-shift reduction
  // (Lemire, TOMACS'19). The executor's Fisher–Yates shuffle uses this
  // instead of std::uniform_int_distribution: no division, no rejection
  // loop, and still a pure function of the (seed, round, vertex) key. The
  // O(bound / 2^64) bias is immaterial for inbox degrees.
  std::uint64_t bounded(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(operator()()) * bound) >> 64);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_ = 0;
};

}  // namespace anonet
