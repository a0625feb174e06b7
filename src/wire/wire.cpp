#include "wire/wire.hpp"

#include <algorithm>
#include <bit>

namespace anonet::wire {

BigInt BitReader::read_bigint() {
  const bool negative = read_bit();
  const std::uint64_t length = read_uvarint();
  if (length > static_cast<std::uint64_t>(remaining())) {
    throw DecodeError("BitReader: truncated bigint");
  }
  // One spelling per value: zero has sign 0, and the length is the
  // magnitude's bit length (its top bit is set).
  if (negative && length == 0) {
    throw DecodeError("BitReader: negative zero bigint");
  }
  constexpr const char* kNonMinimal =
      "BitReader: bigint length above its top bit";
  if (length <= 64) {
    // Small-magnitude fast lane: one or two chunk reads land directly in
    // BigInt's inline representation, no shifted-left/add chain.
    std::uint64_t magnitude_bits = 0;
    for (std::uint64_t base = 0; base < length; base += 32) {
      const int count =
          static_cast<int>(std::min<std::uint64_t>(32, length - base));
      magnitude_bits |= read_bits(count) << base;
    }
    if (static_cast<std::uint64_t>(std::bit_width(magnitude_bits)) != length) {
      throw DecodeError(kNonMinimal);
    }
    return BigInt::from_sign_magnitude(negative, magnitude_bits);
  }
  BigInt magnitude;
  for (std::uint64_t base = 0; base < length; base += 32) {
    const int count = static_cast<int>(std::min<std::uint64_t>(32, length - base));
    const std::uint64_t chunk = read_bits(count);
    if (chunk != 0) {
      magnitude += BigInt(static_cast<std::int64_t>(chunk))
                       .shifted_left(static_cast<std::size_t>(base));
    }
  }
  if (magnitude.bit_length() != length) throw DecodeError(kNonMinimal);
  return negative ? magnitude.negate() : magnitude;
}

}  // namespace anonet::wire
