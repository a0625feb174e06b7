#pragma once

// Delta codec for strictly-increasing std::int64_t key sequences, shared by
// the four codecs that carry one (SetGossip known sets and the frequency
// Push-Sum, Metropolis and uniform-consensus maps). Each agent's
// MessageTraits specialization lives in its own src/core header, beside the
// Message it encodes.
//
// The first key travels as an svarint, every later one as its uvarint gap
// from the previous key. The containers guarantee strictly-increasing
// order, so a gap of zero, or one that carries a key past INT64_MAX, is a
// decode error, not a representable message. Gaps are computed in uint64
// arithmetic, so keys at both ends of the range encode without overflow.

#include <cstdint>
#include <limits>

#include "wire/wire.hpp"

namespace anonet::wire {

template <typename Sink>
void write_key(Sink& sink, std::int64_t key, bool first, std::int64_t prev) {
  if (first) {
    sink.write_svarint(key);
  } else {
    sink.write_uvarint(static_cast<std::uint64_t>(key) -
                       static_cast<std::uint64_t>(prev));
  }
}

[[nodiscard]] inline std::int64_t read_key(BitReader& src, bool first,
                                           std::int64_t prev) {
  if (first) return src.read_svarint();
  const std::uint64_t delta = src.read_uvarint();
  const std::uint64_t headroom =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) -
      static_cast<std::uint64_t>(prev);
  if (delta == 0 || delta > headroom) {
    throw DecodeError("wire: keys must be strictly increasing");
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) + delta);
}

}  // namespace anonet::wire
