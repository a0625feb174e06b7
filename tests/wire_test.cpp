// Tests for the wire layer (wire/wire.hpp, wire/codecs.hpp): primitive
// round trips, exact bit accounting, truncation and non-canonical input,
// and the per-message-type property `decode(encode(m)) == m` with
// `encoded_bits(m)` (the encode run into a BitCounter) equal to the bits a
// BitWriter holds, for every core agent Message.

#include "wire/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "core/exact_pushsum.hpp"
#include "core/gossip.hpp"
#include "core/history_tree.hpp"
#include "core/metropolis.hpp"
#include "core/minbase_agent.hpp"
#include "core/pushsum.hpp"
#include "core/uniform_consensus.hpp"
#include "wire/codecs.hpp"

namespace anonet {
namespace {

// --- primitives --------------------------------------------------------------

// Size formulas kept here as oracles: LEB128 spends one 8-bit group per 7
// value bits (at least one), a BigInt a sign bit, its length as a uvarint
// and its magnitude.
std::int64_t uvarint_size(std::uint64_t value) {
  return 8 * std::max(1, (static_cast<int>(std::bit_width(value)) + 6) / 7);
}

std::int64_t bigint_size(const BigInt& value) {
  const auto length = static_cast<std::int64_t>(value.bit_length());
  return 1 + uvarint_size(static_cast<std::uint64_t>(length)) + length;
}

// Runs `write` into a BitWriter and a BitCounter; the counter must count
// exactly the bits the writer holds.
template <typename Write>
wire::BitWriter written_and_counted(Write write) {
  wire::BitWriter w;
  write(w);
  wire::BitCounter c;
  write(c);
  EXPECT_EQ(c.bit_size(), w.bit_size());
  return w;
}

TEST(Wire, BitsRoundTripLsbFirst) {
  wire::BitWriter w;
  w.write_bits(0b1011u, 4);
  w.write_bit(true);
  w.write_bits(0x5au, 8);
  EXPECT_EQ(w.bit_size(), 13);
  wire::BitReader r(w);
  EXPECT_EQ(r.read_bits(4), 0b1011u);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_bits(8), 0x5au);
  EXPECT_EQ(r.remaining(), 0);
  EXPECT_THROW(w.write_bits(0, 65), std::invalid_argument);
  EXPECT_THROW(w.write_bits(0, -1), std::invalid_argument);
}

TEST(Wire, UvarintRoundTripMatchesSizeFormula) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63) - 1,
                                 1ull << 63,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    const wire::BitWriter w =
        written_and_counted([v](auto& sink) { sink.write_uvarint(v); });
    EXPECT_EQ(w.bit_size(), uvarint_size(v)) << v;
    wire::BitReader r(w);
    EXPECT_EQ(r.read_uvarint(), v);
    EXPECT_EQ(r.remaining(), 0) << v;
  }
}

TEST(Wire, SvarintRoundTripMatchesSizeFormula) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -64,
                                64,
                                -12345678,
                                12345678,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t v : cases) {
    const wire::BitWriter w =
        written_and_counted([v](auto& sink) { sink.write_svarint(v); });
    const std::uint64_t zigzag = v < 0 ? 2 * ~static_cast<std::uint64_t>(v) + 1
                                       : 2 * static_cast<std::uint64_t>(v);
    EXPECT_EQ(w.bit_size(), uvarint_size(zigzag)) << v;
    wire::BitReader r(w);
    EXPECT_EQ(r.read_svarint(), v);
  }
}

TEST(Wire, DoubleRoundTripIsBitExact) {
  const double cases[] = {0.0,
                          -0.0,
                          1.5,
                          -1.0 / 3.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (double v : cases) {
    const wire::BitWriter w =
        written_and_counted([v](auto& sink) { sink.write_double(v); });
    EXPECT_EQ(w.bit_size(), 64);
    wire::BitReader r(w);
    // Bit-level comparison: distinguishes -0.0 from 0.0, preserves NaN.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.read_double()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Wire, TruncatedInputThrowsInsteadOfFabricatingBits) {
  wire::BitWriter w;
  w.write_bits(0x3u, 2);
  wire::BitReader r(w);
  EXPECT_THROW((void)r.read_bits(3), std::out_of_range);
  // The failed read consumes nothing usable; a fitting read still works.
  wire::BitReader r2(w);
  EXPECT_EQ(r2.read_bits(2), 0x3u);
  EXPECT_THROW((void)r2.read_bit(), std::out_of_range);
}

TEST(Wire, UvarintOverflowingSixtyFourBitsThrows) {
  // Ten full continuation groups put the 11th shift past bit 63.
  wire::BitWriter w;
  for (int i = 0; i < 10; ++i) w.write_bits(0xffu, 8);
  w.write_bits(0x01u, 8);
  wire::BitReader r(w);
  EXPECT_THROW((void)r.read_uvarint(), std::out_of_range);
}

TEST(Wire, NonMinimalUvarintIsADecodeError) {
  // 0x82 0x00 spells 2 with a redundant zero group; the writer renders 2
  // as the single byte 0x02, so only that form decodes.
  for (const std::vector<std::uint8_t>& bytes :
       {std::vector<std::uint8_t>{0x82, 0x00},
        std::vector<std::uint8_t>{0x80, 0x00},
        std::vector<std::uint8_t>{0xff, 0x80, 0x00}}) {
    wire::BitReader r(bytes.data(),
                      static_cast<std::int64_t>(bytes.size()) * 8);
    EXPECT_THROW((void)r.read_uvarint(), wire::DecodeError);
  }
  const std::vector<std::uint8_t> minimal = {0x80, 0x01};
  wire::BitReader r(minimal.data(), 16);
  EXPECT_EQ(r.read_uvarint(), 128u);
}

TEST(Wire, NarrowingReadRejectsValuesOutsideTheTarget) {
  const auto read_back = [](auto write, auto read) {
    wire::BitWriter w;
    write(w);
    wire::BitReader r(w);
    return read(r);
  };
  const auto as_u32 = [](wire::BitReader& r) {
    return r.read_varint<std::uint32_t>();
  };
  const auto as_int = [](wire::BitReader& r) { return r.read_varint<int>(); };
  const auto as_bool = [](wire::BitReader& r) { return r.read_varint<bool>(); };
  EXPECT_EQ(read_back([](auto& w) { w.write_uvarint(4294967295u); }, as_u32),
            4294967295u);
  EXPECT_THROW(
      read_back([](auto& w) { w.write_uvarint((1ull << 32) + 2); }, as_u32),
      wire::DecodeError);
  EXPECT_EQ(read_back([](auto& w) { w.write_svarint(-2147483648); }, as_int),
            -2147483647 - 1);
  EXPECT_THROW(read_back([](auto& w) { w.write_svarint(2147483648); }, as_int),
               wire::DecodeError);
  EXPECT_THROW(read_back([](auto& w) { w.write_svarint(-2147483649); }, as_int),
               wire::DecodeError);
  EXPECT_TRUE(read_back([](auto& w) { w.write_uvarint(1); }, as_bool));
  EXPECT_THROW(read_back([](auto& w) { w.write_uvarint(2); }, as_bool),
               wire::DecodeError);
}

TEST(Wire, BigIntRoundTripMatchesSizeFormula) {
  std::mt19937_64 rng(2024);
  std::vector<BigInt> cases = {BigInt(0), BigInt(1), BigInt(-1), BigInt(255),
                               BigInt(-256)};
  // Wide magnitudes: random 64-bit chunks stacked by shifting.
  for (int width = 1; width <= 6; ++width) {
    BigInt big(0);
    for (int c = 0; c < width; ++c) {
      big = big.shifted_left(61) + BigInt(static_cast<std::int64_t>(
                                       rng() >> 3));
    }
    cases.push_back(big);
    cases.push_back(BigInt(0) - big);
  }
  // Inline/limb spill frontier: every value within 2 of ±2^62, ±2^63, ±2^64
  // exercises both the small-magnitude decode lane (length <= 64) and the
  // general shift-accumulate lane right where the representation changes.
  for (int bits : {62, 63, 64}) {
    const BigInt base = BigInt(1).shifted_left(static_cast<std::size_t>(bits));
    for (std::int64_t d = -2; d <= 2; ++d) {
      cases.push_back(base + BigInt(d));
      cases.push_back(BigInt(0) - base + BigInt(d));
    }
  }
  for (const BigInt& v : cases) {
    const wire::BitWriter w =
        written_and_counted([&v](auto& sink) { sink.write_bigint(v); });
    EXPECT_EQ(w.bit_size(), bigint_size(v));
    wire::BitReader r(w);
    EXPECT_EQ(r.read_bigint(), v);
    EXPECT_EQ(r.remaining(), 0);
  }
}

TEST(Wire, TruncatedBigIntThrows) {
  wire::BitWriter w;
  w.write_bigint(BigInt(1).shifted_left(100));
  wire::BitReader r(w.bytes().data(), w.bit_size() - 8);
  EXPECT_THROW((void)r.read_bigint(), std::out_of_range);
}

TEST(Wire, RationalRoundTrip) {
  const Rational cases[] = {Rational(0), Rational(1), Rational(-7, 3),
                            Rational(BigInt(1).shifted_left(200), BigInt(3).shifted_left(100) + BigInt(1))};
  for (const Rational& v : cases) {
    const wire::BitWriter w =
        written_and_counted([&v](auto& sink) { sink.write_rational(v); });
    EXPECT_EQ(w.bit_size(),
              bigint_size(v.numerator()) + bigint_size(v.denominator()));
    wire::BitReader r(w);
    EXPECT_EQ(r.read_rational(), v);
  }
}

// --- message codecs ----------------------------------------------------------

// Encodes m, checks encoded_bits (the counting sink) against the bits
// actually written, decodes from exactly those bits, and checks full
// consumption.
template <typename M>
M round_trip_checked(const M& m) {
  wire::BitWriter w;
  wire::encode(m, w);
  EXPECT_EQ(wire::encoded_bits(m), w.bit_size());
  wire::BitReader r(w);
  M out = wire::decode<M>(r);
  EXPECT_EQ(r.remaining(), 0);
  return out;
}

TEST(Wire, SetGossipMessageRoundTrip) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    SetGossipAgent::Message m;
    std::int64_t v = static_cast<std::int64_t>(rng() % 2000) - 1000;
    const int count = static_cast<int>(rng() % 8);
    for (int i = 0; i < count; ++i) {
      m.values.push_back(v);  // strictly increasing by construction
      v += 1 + static_cast<std::int64_t>(rng() % 1000);
    }
    EXPECT_EQ(round_trip_checked(m).values, m.values);
  }
}

TEST(Wire, SetGossipDecodeRejectsNonIncreasingKeys) {
  // A zero delta is not a representable message: the codec reserves it as a
  // decode error instead of silently collapsing duplicate values.
  wire::BitWriter w;
  w.write_uvarint(2);  // count
  w.write_svarint(5);  // first value
  w.write_uvarint(0);  // forged zero gap
  wire::BitReader r(w);
  EXPECT_THROW((void)wire::decode<SetGossipAgent::Message>(r),
               wire::DecodeError);
}

TEST(Wire, KeysAtBothEndsOfTheRangeRoundTrip) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  SetGossipAgent::Message m;
  m.values = {kMin, -1, kMax};  // gaps of 2^63 - 1 and 2^63
  EXPECT_EQ(round_trip_checked(m).values, m.values);
  // A gap that carries a key past INT64_MAX is corrupt, not a wrap.
  wire::BitWriter w;
  w.write_uvarint(2);
  w.write_svarint(kMax - 1);
  w.write_uvarint(2);
  wire::BitReader r(w);
  EXPECT_THROW((void)wire::decode<SetGossipAgent::Message>(r),
               wire::DecodeError);
}

TEST(Wire, OutOfRangeIntFieldsAreDecodeErrors) {
  // outdegree, degree, port and ViewId are ints on the wire as svarints; a
  // value past 32 bits is corrupt input, not a truncated int.
  wire::BitWriter w;
  w.write_svarint(std::int64_t{1} << 40);
  w.write_svarint(3);
  {
    wire::BitReader r(w);
    EXPECT_THROW((void)wire::decode<HistoryFrequencyAgent::Message>(r),
                 wire::DecodeError);
  }
  {
    wire::BitReader r(w);
    EXPECT_THROW((void)wire::decode<MinBaseAgent::Message>(r),
                 wire::DecodeError);
  }
  wire::BitWriter metro;
  metro.write_double(0.5);
  metro.write_svarint(std::int64_t{1} << 40);
  wire::BitReader r(metro);
  EXPECT_THROW((void)wire::decode<MetropolisAgent::Message>(r),
               wire::DecodeError);
}

TEST(Wire, CorruptCountPrefixFailsFastInsteadOfReserving) {
  // A forged count of 2^62 with two bytes of actual payload: the clamped
  // count read must throw before any container reserve sees the number.
  wire::BitWriter w;
  w.write_uvarint(1ull << 62);
  w.write_bits(0xabu, 8);
  {
    wire::BitReader r(w);
    EXPECT_THROW((void)wire::decode<SetGossipAgent::Message>(r),
                 wire::DecodeError);
  }
  {
    wire::BitReader r(w);
    EXPECT_THROW((void)wire::decode<FrequencyPushSumAgent::Message>(r),
                 wire::DecodeError);
  }
  {
    wire::BitReader r(w);
    EXPECT_THROW((void)wire::decode<FrequencyUniformAgent::Message>(r),
                 wire::DecodeError);
  }
}

TEST(Wire, CorruptRationalDenominatorIsADecodeError) {
  // numerator 1, denominator 0 — unrepresentable by the encoder (Rational
  // forbids zero denominators), so the decoder must classify it as corrupt
  // input rather than letting std::domain_error escape.
  wire::BitWriter w;
  w.write_bigint(BigInt(1));
  w.write_bigint(BigInt(0));
  wire::BitReader r(w);
  EXPECT_THROW((void)r.read_rational(), wire::DecodeError);
}

// Property test for socket-facing decode paths: over truncations and
// single-bit flips of valid encodings, decode either throws
// wire::DecodeError or yields a message that re-encodes to exactly the
// bits it consumed (no field has a second spelling) — never UB
// (ASan/UBSan cover the never-crash half in the sanitizer stages) and
// never a foreign exception type.
template <typename M>
void expect_rejected_or_canonical(const std::vector<std::uint8_t>& bytes,
                                  std::int64_t bits) {
  wire::BitReader r(bytes.data(), bits);
  try {
    const M decoded = wire::decode<M>(r);
    wire::BitWriter again;
    wire::encode(decoded, again);
    ASSERT_EQ(again.bit_size(), r.cursor());
    for (std::int64_t i = 0; i < r.cursor(); ++i) {
      const auto bit = [i](const std::vector<std::uint8_t>& b) {
        return (b[static_cast<std::size_t>(i >> 3)] >> (i & 7)) & 1;
      };
      ASSERT_EQ(bit(again.bytes()), bit(bytes)) << "bit " << i;
    }
  } catch (const wire::DecodeError&) {
    // fine: corrupt input reported as such
  }
  // any other exception type escapes and fails the test
}

template <typename M>
void corrupt_stream_property(const M& message) {
  wire::BitWriter w;
  wire::encode(message, w);
  // Every truncation length, including zero.
  for (std::int64_t bits = 0; bits < w.bit_size(); ++bits) {
    expect_rejected_or_canonical<M>(w.bytes(), bits);
  }
  // Every single-bit flip.
  for (std::int64_t bit = 0; bit < w.bit_size(); ++bit) {
    std::vector<std::uint8_t> bytes = w.bytes();
    bytes[static_cast<std::size_t>(bit >> 3)] ^=
        static_cast<std::uint8_t>(1u << (bit & 7));
    expect_rejected_or_canonical<M>(bytes, w.bit_size());
  }
}

TEST(Wire, CorruptStreamsNeverEscapeDecodeError) {
  SetGossipAgent::Message gossip;
  gossip.values = {-100, -7, 0, 3, 900000};
  corrupt_stream_property(gossip);

  FrequencyPushSumAgent::Message pushsum;
  pushsum.entries = {{1, 0.5, 1.0}, {5, 0.25, 2.0}, {9, 0.125, 3.0}};
  pushsum.outdegree = 4;
  corrupt_stream_property(pushsum);

  ExactPushSumAgent::Message exact;
  exact.y_share = Rational(7, 48);
  exact.z_share = Rational(BigInt(1), BigInt(3).shifted_left(80));
  corrupt_stream_property(exact);

  FrequencyMetropolisAgent::Message metro;
  metro.entries = {{-3, 0.75}, {12, -1.5}};
  metro.degree = 2;
  corrupt_stream_property(metro);

  MinBaseAgent::Message base;
  base.view = ViewId{129};
  base.port = 7;
  corrupt_stream_property(base);

  FrequencyUniformAgent::Message uniform;
  uniform.x = {{-40, 0.5}, {2, 0.25}};
  corrupt_stream_property(uniform);

  HistoryFrequencyAgent::Message history;
  history.view = ViewId{300};
  corrupt_stream_property(history);
}

TEST(Wire, PushSumMessageRoundTrip) {
  std::mt19937_64 rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    PushSumAgent::Message m;
    m.y_share = std::bit_cast<double>(rng() | 0x10ull);
    m.z_share = 1.0 / static_cast<double>(1 + rng() % 97);
    if (std::isnan(m.y_share)) m.y_share = -0.25;
    const auto out = round_trip_checked(m);
    EXPECT_EQ(out.y_share, m.y_share);
    EXPECT_EQ(out.z_share, m.z_share);
  }
}

TEST(Wire, FrequencyPushSumMessageRoundTrip) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    // Stage entries through a map to get the sorted-unique key order the
    // message's entries require.
    std::map<std::int64_t, std::pair<double, double>> staged;
    const int count = static_cast<int>(rng() % 6);
    for (int i = 0; i < count; ++i) {
      staged[static_cast<std::int64_t>(rng() % 5000) - 2500] = {
          static_cast<double>(rng() % 1000) / 8.0,
          static_cast<double>(rng() % 1000) / 16.0};
    }
    FrequencyPushSumAgent::Message m;
    for (const auto& [key, yz] : staged) {
      m.entries.push_back({key, yz.first, yz.second});
    }
    m.outdegree = static_cast<int>(rng() % 7) + 1;
    const auto out = round_trip_checked(m);
    EXPECT_EQ(out.outdegree, m.outdegree);
    EXPECT_EQ(out.entries, m.entries);
  }
}

TEST(Wire, FrequencyMessagesRoundTripAcrossTheInlineCapacity) {
  // 1 and 16 entries decode inline; 17 and 40 spill to the heap. Every
  // key, weight and estimate must come back bit for bit either way.
  static_assert(kInlineFrequencyValues == 16);
  std::mt19937_64 rng(16);
  for (const std::size_t count : {1, 16, 17, 40}) {
    FrequencyPushSumAgent::Message pushsum;
    FrequencyMetropolisAgent::Message metro;
    std::int64_t key = -static_cast<std::int64_t>(rng() % 1000);
    for (std::size_t i = 0; i < count; ++i) {
      key += 1 + static_cast<std::int64_t>(rng() % 300);
      pushsum.entries.push_back({key, std::bit_cast<double>(rng() >> 2),
                                 std::bit_cast<double>(rng() >> 2)});
      metro.entries.push_back({key, std::bit_cast<double>(rng() >> 2)});
    }
    pushsum.outdegree = static_cast<int>(count);
    metro.degree = static_cast<int>(count) + 1;
    const bool spills = count > kInlineFrequencyValues;

    const auto pushsum_out = round_trip_checked(pushsum);
    EXPECT_EQ(pushsum_out.entries.spilled(), spills) << count;
    EXPECT_EQ(pushsum_out.outdegree, pushsum.outdegree);
    ASSERT_EQ(pushsum_out.entries.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto& sent = pushsum.entries[i];
      const auto& got = pushsum_out.entries[i];
      EXPECT_EQ(got.key, sent.key) << count << " " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.y),
                std::bit_cast<std::uint64_t>(sent.y));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.z),
                std::bit_cast<std::uint64_t>(sent.z));
    }

    const auto metro_out = round_trip_checked(metro);
    EXPECT_EQ(metro_out.entries.spilled(), spills) << count;
    EXPECT_EQ(metro_out.degree, metro.degree);
    ASSERT_EQ(metro_out.entries.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(metro_out.entries[i].key, metro.entries[i].key);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(metro_out.entries[i].x),
                std::bit_cast<std::uint64_t>(metro.entries[i].x));
    }
  }
}

TEST(Wire, ExactPushSumMessageRoundTripAndGrowth) {
  ExactPushSumAgent::Message m;
  m.y_share = Rational(7, 48);
  m.z_share = Rational(1, 3);
  auto out = round_trip_checked(m);
  EXPECT_EQ(out.y_share, m.y_share);
  EXPECT_EQ(out.z_share, m.z_share);
  // The denominators of exact shares grow with the round; the measured
  // bits must grow along (the "infinite bandwidth" regime).
  ExactPushSumAgent::Message deep;
  deep.y_share = Rational(BigInt(1), BigInt(3).shifted_left(512));
  deep.z_share = Rational(BigInt(1), BigInt(5).shifted_left(512));
  EXPECT_GT(wire::encoded_bits(deep), wire::encoded_bits(m) + 1024);
  out = round_trip_checked(deep);
  EXPECT_EQ(out.y_share, deep.y_share);
}

TEST(Wire, MetropolisMessagesRoundTrip) {
  MetropolisAgent::Message m;
  m.x = -3.75;
  m.degree = 4;
  const auto out = round_trip_checked(m);
  EXPECT_EQ(out.x, m.x);
  EXPECT_EQ(out.degree, m.degree);

  std::mt19937_64 rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    std::map<std::int64_t, double> staged;
    const int count = static_cast<int>(rng() % 6);
    for (int i = 0; i < count; ++i) {
      staged[static_cast<std::int64_t>(rng() % 4000) - 2000] =
          static_cast<double>(rng() % 512) / 32.0;
    }
    FrequencyMetropolisAgent::Message f;
    for (const auto& [key, x] : staged) f.entries.push_back({key, x});
    f.degree = static_cast<int>(rng() % 9) + 1;
    const auto fout = round_trip_checked(f);
    EXPECT_EQ(fout.degree, f.degree);
    EXPECT_EQ(fout.entries, f.entries);
  }
}

TEST(Wire, UniformConsensusMessagesRoundTrip) {
  UniformWeightAgent::Message m;
  m.x = 0.125;
  EXPECT_EQ(round_trip_checked(m).x, m.x);

  std::mt19937_64 rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    FrequencyUniformAgent::Message f;
    const int count = static_cast<int>(rng() % 6);
    for (int i = 0; i < count; ++i) {
      f.x.emplace(static_cast<std::int64_t>(rng() % 4000) - 2000,
                  static_cast<double>(rng() % 512) / 64.0);
    }
    EXPECT_EQ(round_trip_checked(f).x, f.x);
  }
}

TEST(Wire, ViewReferenceMessagesRoundTrip) {
  // Interned references (the codec comment in core/history_tree.hpp): the
  // wire carries a registry slot, not a serialized subtree, so the bits
  // stay logarithmic in the registry size however large the view grows.
  for (ViewId view : {kInvalidView, ViewId{0}, ViewId{1}, ViewId{4096}}) {
    HistoryFrequencyAgent::Message h;
    h.view = view;
    EXPECT_EQ(round_trip_checked(h).view, view);

    MinBaseAgent::Message b;
    b.view = view;
    b.port = 3;
    const auto out = round_trip_checked(b);
    EXPECT_EQ(out.view, view);
    EXPECT_EQ(out.port, b.port);
    EXPECT_LE(wire::encoded_bits(b), 48);
  }
}

}  // namespace
}  // namespace anonet
