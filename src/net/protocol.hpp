#pragma once

// Coordinator/worker control protocol (docs/transport.md).
//
// Control payloads are rendered with wire::BitWriter — the same bit-level
// encoder the agent codecs use — with byte-aligned fields (uvarint/svarint/
// double/length-prefixed strings), so the transport introduces no second
// serialization dialect. Each payload has an encode_* returning a complete
// Frame and a decode_* taking one; decoders validate the frame type, the
// handshake magic/version, and reject trailing bytes, converting every
// wire::DecodeError into a FrameError — one exception type means "this
// peer's stream is poisoned". Every field has one encoding: varints must be
// minimal and fit their field (BitReader::read_varint), and a boolean is a
// one-byte uvarint of 0 or 1, so a payload that decodes re-encodes to
// exactly the bytes received.
//
// The conversation (one coordinator, N workers):
//
//   worker  -> HELLO{magic, version, window}
//   coord   -> WELCOME{version, grid, include_timings, bandwidth_bits,
//                      cell_timeout_ms}         (or drops on mismatch)
//   coord   -> ASSIGN{cell_index, key}          (demand-driven, work order)
//   worker  -> VERDICT{cell_index, key, line}
//   ...                                         (ASSIGN/VERDICT repeats)
//   coord   -> SHUTDOWN                         (queue drained)
//
// Workers never receive cells by value: WELCOME names a grid preset, both
// sides expand it locally (Grid::expand() is deterministic — same cells,
// same indices everywhere), and ASSIGN carries only (index, key). The key
// echo lets a worker detect a version- or option-skewed expansion before
// running the wrong cell.

#include <cstdint>
#include <string>

#include "net/frame.hpp"

namespace anonet::net {

// "ANET" — rejects peers that speak TCP but not this protocol.
inline constexpr std::uint32_t kMagic = 0x414E4554;
inline constexpr std::uint32_t kProtocolVersion = 2;

struct HelloPayload {
  std::uint32_t version = kProtocolVersion;
  // How many cells the worker wants in flight at once (its thread count).
  std::uint32_t window = 1;

  bool operator==(const HelloPayload&) const = default;
};

struct WelcomePayload {
  std::uint32_t version = kProtocolVersion;
  std::string grid;            // Grid::preset name to expand locally
  bool include_timings = false;
  std::int64_t bandwidth_bits = 0;   // campaign::apply_cell_overrides args —
  double cell_timeout_ms = 0.0;      // shipped so keys match the coordinator

  bool operator==(const WelcomePayload&) const = default;
};

struct AssignPayload {
  std::uint32_t cell_index = 0;  // Cell::index in expansion order
  std::string key;               // Cell::key() echo (skew detection)

  bool operator==(const AssignPayload&) const = default;
};

struct VerdictPayload {
  std::uint32_t cell_index = 0;
  std::string key;
  std::string line;  // MetricsSink::to_json rendering of the record

  bool operator==(const VerdictPayload&) const = default;
};

[[nodiscard]] Frame encode_hello(const HelloPayload& payload);
[[nodiscard]] Frame encode_welcome(const WelcomePayload& payload);
[[nodiscard]] Frame encode_assign(const AssignPayload& payload);
[[nodiscard]] Frame encode_verdict(const VerdictPayload& payload);
[[nodiscard]] Frame encode_shutdown();

// Decoders throw FrameError on a type mismatch, bad magic/overlong fields,
// truncated payloads, or trailing bytes.
[[nodiscard]] HelloPayload decode_hello(const Frame& frame);
[[nodiscard]] WelcomePayload decode_welcome(const Frame& frame);
[[nodiscard]] AssignPayload decode_assign(const Frame& frame);
[[nodiscard]] VerdictPayload decode_verdict(const Frame& frame);
void decode_shutdown(const Frame& frame);

}  // namespace anonet::net
