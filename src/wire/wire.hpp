#pragma once

// Wire formats: a canonical bit-level encoding for every agent Message.
//
// The paper's separations are statements about what a message is allowed to
// *carry*, and its quantitative contrast — the finite-state bounded-bandwidth
// minimum-base variant of §4.2 against Di Luna & Viglietta's exact algorithm
// with "an infinite number of states and an infinite bandwidth" — is a claim
// about message *size*. This layer makes that size measurable instead of
// hand-estimated: a `MessageTraits<M>` specialization, written beside the
// Message it encodes, gives a message type a canonical encoding with two
// obligations,
//
//     template <typename Sink> static void encode(const M& m, Sink& sink);
//     static M decode(BitReader& src);
//
// where `decode(encode(m)) == m`. `encode` is the one definition of the
// format: rendered into a BitWriter it is what travels, run into a
// BitCounter it is what `encoded_bits(m)` reports. The executor's
// BandwidthMeter (wire/meter.hpp) accounts rounds in these units, and a
// bounded ChannelPolicy enforces a per-message bit budget against them.
//
// Encodings are bit-granular (a budget of B bits must be meaningful for
// small B — Blanc, Di Luna & Viglietta's one-bit model is the extreme) and
// deterministic: the same message always renders to the same bits, which is
// what makes metered campaigns byte-reproducible across shard counts.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "support/bigint.hpp"
#include "support/rational.hpp"

namespace anonet::wire {

// Decode-side failure: truncated, corrupt, or otherwise malformed input.
// Every BitReader/codec decode path throws this (and only this) for bad
// *data*, so a socket or file feeding untrusted bytes into a decoder can
// catch one type and treat the stream as poisoned; std::invalid_argument
// stays reserved for caller bugs (e.g. a bit count outside [0, 64]).
// Derives from std::out_of_range to keep the historical truncation
// contract ("reading past the end throws std::out_of_range") intact.
class DecodeError : public std::out_of_range {
 public:
  explicit DecodeError(const std::string& what) : std::out_of_range(what) {}
};

inline constexpr int kDoubleBits = 64;

// The shared encodings, written once for every sink. A sink derives from
// BitSink<Sink> and supplies write_bits(value, count), which takes the low
// `count` bits of `value` (0 <= count <= 64, least significant first);
// everything else is spelled here in terms of it, so the bits a BitWriter
// holds and the bits a BitCounter counts cannot disagree.
template <typename Sink>
class BitSink {
 public:
  void write_bit(bool bit) { sink().write_bits(bit ? 1u : 0u, 1); }

  // LEB128: 7 value bits per group, continuation bit ahead of each group.
  void write_uvarint(std::uint64_t value) {
    do {
      const std::uint64_t group = value & 0x7fu;
      value >>= 7;
      sink().write_bits(group | (value != 0 ? 0x80u : 0u), 8);
    } while (value != 0);
  }

  // Zigzag-mapped signed varint (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
  void write_svarint(std::int64_t value) {
    write_uvarint((static_cast<std::uint64_t>(value) << 1) ^
                  static_cast<std::uint64_t>(value >> 63));
  }

  // The 64 bits of the IEEE-754 representation: exact, NaN-preserving.
  void write_double(double value) {
    sink().write_bits(std::bit_cast<std::uint64_t>(value), kDoubleBits);
  }

  // Sign bit, uvarint bit length, then the magnitude bits LSB-first in
  // chunks of at most 32. Zero encodes as sign 0 + length 0.
  void write_bigint(const BigInt& value) {
    write_bit(value.is_negative());
    const std::size_t length = value.bit_length();
    write_uvarint(length);
    for (std::size_t base = 0; base < length; base += 32) {
      std::uint64_t chunk = 0;
      const int count =
          static_cast<int>(std::min<std::size_t>(32, length - base));
      for (int i = 0; i < count; ++i) {
        if (value.bit(base + static_cast<std::size_t>(i))) chunk |= 1ull << i;
      }
      sink().write_bits(chunk, count);
    }
  }

  // Numerator then denominator (always positive, reduced by invariant).
  void write_rational(const Rational& value) {
    write_bigint(value.numerator());
    write_bigint(value.denominator());
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

// Append-only bit buffer. Bits are packed LSB-first into bytes; bit_size()
// is the exact number of bits written (not rounded up to a byte).
class BitWriter : public BitSink<BitWriter> {
 public:
  void write_bits(std::uint64_t value, int count) {
    if (count < 0 || count > 64) {
      throw std::invalid_argument("BitWriter: count must be in [0, 64]");
    }
    for (int i = 0; i < count; ++i) {
      const std::size_t byte = static_cast<std::size_t>(bits_ >> 3);
      if (byte == bytes_.size()) bytes_.push_back(0);
      if ((value >> i) & 1u) {
        bytes_[byte] |= static_cast<std::uint8_t>(1u << (bits_ & 7));
      }
      ++bits_;
    }
  }

  [[nodiscard]] std::int64_t bit_size() const { return bits_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::int64_t bits_ = 0;
};

// Counting sink: the bit size a BitWriter would reach, without a buffer.
// encoded_bits() runs a message's encode into one, so metering 10^5
// messages a round renders no bytes.
class BitCounter : public BitSink<BitCounter> {
 public:
  void write_bits(std::uint64_t /*value*/, int count) {
    if (count < 0 || count > 64) {
      throw std::invalid_argument("BitCounter: count must be in [0, 64]");
    }
    bits_ += count;
  }

  [[nodiscard]] std::int64_t bit_size() const { return bits_; }

 private:
  std::int64_t bits_ = 0;
};

// Sequential reader over a BitWriter's output. Reading past the recorded
// bit count throws DecodeError ("truncated"), never fabricates bits. Every
// read is bounds-checked against bit_count_, so a reader over corrupt or
// adversarial bytes fails with an exception, never undefined behavior.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::int64_t bit_count)
      : data_(data), bit_count_(bit_count) {}
  explicit BitReader(const BitWriter& writer)
      : BitReader(writer.bytes().data(), writer.bit_size()) {}

  [[nodiscard]] std::uint64_t read_bits(int count) {
    if (count < 0 || count > 64) {
      throw std::invalid_argument("BitReader: count must be in [0, 64]");
    }
    if (cursor_ + count > bit_count_) {
      throw DecodeError("BitReader: truncated input");
    }
    std::uint64_t value = 0;
    for (int i = 0; i < count; ++i) {
      const std::size_t byte = static_cast<std::size_t>(cursor_ >> 3);
      if ((data_[byte] >> (cursor_ & 7)) & 1u) value |= 1ull << i;
      ++cursor_;
    }
    return value;
  }

  [[nodiscard]] bool read_bit() { return read_bits(1) != 0; }

  // Only the minimal encoding is accepted: a final group of zero after
  // the first (a redundant zero group) would decode to a value the writer
  // renders in fewer bytes.
  [[nodiscard]] std::uint64_t read_uvarint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      const std::uint64_t group = read_bits(8);
      if (shift >= 64 || (shift == 63 && (group & 0x7fu) > 1)) {
        throw DecodeError("BitReader: uvarint overflows 64 bits");
      }
      value |= (group & 0x7fu) << shift;
      if ((group & 0x80u) == 0) {
        if (group == 0 && shift > 0) {
          throw DecodeError("BitReader: non-minimal uvarint");
        }
        return value;
      }
      shift += 7;
    }
  }

  [[nodiscard]] std::int64_t read_svarint() {
    const std::uint64_t z = read_uvarint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  // A varint narrowed to T: an svarint for signed T, a uvarint for
  // unsigned T (bool: 0 or 1). A value outside T's range is corrupt input,
  // never a silent wrap.
  template <std::integral T>
  [[nodiscard]] T read_varint() {
    using Limits = std::numeric_limits<T>;
    if constexpr (std::is_signed_v<T>) {
      const std::int64_t value = read_svarint();
      if (value < static_cast<std::int64_t>(Limits::min()) ||
          value > static_cast<std::int64_t>(Limits::max())) {
        throw DecodeError("BitReader: varint out of range");
      }
      return static_cast<T>(value);
    } else {
      const std::uint64_t value = read_uvarint();
      if (value > static_cast<std::uint64_t>(Limits::max())) {
        throw DecodeError("BitReader: varint out of range");
      }
      return static_cast<T>(value);
    }
  }

  // Count prefix of a container, sanity-clamped against the bits that are
  // actually left: each element needs at least `min_bits_per_entry`, so a
  // corrupt count fails fast as a DecodeError instead of driving a
  // multi-gigabyte reserve() before the first element read trips.
  [[nodiscard]] std::uint64_t read_count(std::int64_t min_bits_per_entry) {
    const std::uint64_t count = read_uvarint();
    if (min_bits_per_entry > 0 &&
        count > static_cast<std::uint64_t>(remaining()) /
                    static_cast<std::uint64_t>(min_bits_per_entry)) {
      throw DecodeError("BitReader: count prefix exceeds remaining input");
    }
    return count;
  }

  [[nodiscard]] double read_double() {
    return std::bit_cast<double>(read_bits(kDoubleBits));
  }

  [[nodiscard]] BigInt read_bigint();

  [[nodiscard]] Rational read_rational() {
    BigInt numerator = read_bigint();
    BigInt denominator = read_bigint();
    // The encoder only emits reduced fractions with positive denominators
    // (Rational invariant); anything else is corrupt input, not a
    // std::domain_error-grade caller bug, and would re-encode differently.
    if (denominator.is_zero() || denominator.is_negative()) {
      throw DecodeError("BitReader: rational with non-positive denominator");
    }
    if (gcd(numerator, denominator) != BigInt(1)) {
      throw DecodeError("BitReader: unreduced rational");
    }
    return Rational(std::move(numerator), std::move(denominator));
  }

  [[nodiscard]] std::int64_t cursor() const { return cursor_; }
  [[nodiscard]] std::int64_t remaining() const { return bit_count_ - cursor_; }

 private:
  const std::uint8_t* data_;
  std::int64_t bit_count_;
  std::int64_t cursor_ = 0;
};

// The customization point, specialized beside each Message it encodes
// (every core agent header defines its codec right after the class). The
// primary template is deliberately undefined so a missing codec is a
// compile-time hole, not a silent unit weight.
template <typename M>
struct MessageTraits;

// A message type with a complete, well-formed codec: one encode for every
// sink, and a decode.
template <typename M>
concept WireEncodable =
    requires(const M& m, BitWriter& w, BitCounter& c, BitReader& r) {
      MessageTraits<M>::encode(m, w);
      MessageTraits<M>::encode(m, c);
      { MessageTraits<M>::decode(r) } -> std::same_as<M>;
    };

// Size = bits encoded: the same encode, into a sink that only counts.
template <WireEncodable M>
[[nodiscard]] std::int64_t encoded_bits(const M& m) {
  BitCounter counter;
  MessageTraits<M>::encode(m, counter);
  return counter.bit_size();
}

template <WireEncodable M>
void encode(const M& m, BitWriter& sink) {
  MessageTraits<M>::encode(m, sink);
}

template <WireEncodable M>
[[nodiscard]] M decode(BitReader& src) {
  return MessageTraits<M>::decode(src);
}

}  // namespace anonet::wire
