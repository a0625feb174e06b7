#include "net/protocol.hpp"

#include <exception>
#include <string>

#include "wire/wire.hpp"

namespace anonet::net {

namespace {

// Strings on the wire: uvarint byte length, then the raw bytes. Lengths are
// implicitly bounded by the frame payload (read_count(8) clamps against the
// bits actually present, so a forged length fails fast).
void write_string(wire::BitWriter& writer, const std::string& text) {
  writer.write_uvarint(text.size());
  for (const char c : text) {
    writer.write_bits(static_cast<std::uint8_t>(c), 8);
  }
}

std::string read_string(wire::BitReader& reader) {
  const std::uint64_t size = reader.read_count(8);
  std::string text;
  text.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    text.push_back(static_cast<char>(reader.read_bits(8)));
  }
  return text;
}

Frame seal(FrameType type, const wire::BitWriter& writer) {
  return Frame{type, writer.bytes()};
}

// Shared scaffolding for the typed decoders: type check, reader setup,
// trailing-data check, DecodeError -> FrameError translation.
wire::BitReader open_payload(const Frame& frame, FrameType expected) {
  if (frame.type != expected) {
    throw FrameError(std::string("decode: expected ") +
                     std::string(to_string(expected)) + ", got " +
                     std::string(to_string(frame.type)));
  }
  return wire::BitReader(frame.payload.data(),
                         static_cast<std::int64_t>(frame.payload.size()) * 8);
}

void finish_payload(const wire::BitReader& reader, FrameType type) {
  // Payloads are byte-aligned; up to 7 zero pad bits of the final byte are
  // the only tolerated slack. Whole trailing bytes mean a skewed peer.
  if (reader.remaining() >= 8) {
    throw FrameError(std::string("decode ") + std::string(to_string(type)) +
                     ": trailing bytes after payload");
  }
}

[[noreturn]] void rethrow_as_frame_error(FrameType type,
                                         const std::exception& error) {
  throw FrameError(std::string("decode ") + std::string(to_string(type)) +
                   ": " + error.what());
}

}  // namespace

Frame encode_hello(const HelloPayload& payload) {
  wire::BitWriter writer;
  writer.write_uvarint(kMagic);
  writer.write_uvarint(payload.version);
  writer.write_uvarint(payload.window);
  return seal(FrameType::kHello, writer);
}

HelloPayload decode_hello(const Frame& frame) {
  try {
    wire::BitReader reader = open_payload(frame, FrameType::kHello);
    if (reader.read_uvarint() != kMagic) {
      throw FrameError("decode HELLO: bad magic (not an anonet peer)");
    }
    HelloPayload payload;
    payload.version = reader.read_varint<std::uint32_t>();
    payload.window = reader.read_varint<std::uint32_t>();
    finish_payload(reader, FrameType::kHello);
    return payload;
  } catch (const wire::DecodeError& error) {
    rethrow_as_frame_error(FrameType::kHello, error);
  }
}

Frame encode_welcome(const WelcomePayload& payload) {
  wire::BitWriter writer;
  writer.write_uvarint(payload.version);
  write_string(writer, payload.grid);
  writer.write_uvarint(payload.include_timings ? 1u : 0u);
  writer.write_svarint(payload.bandwidth_bits);
  writer.write_double(payload.cell_timeout_ms);
  return seal(FrameType::kWelcome, writer);
}

WelcomePayload decode_welcome(const Frame& frame) {
  try {
    wire::BitReader reader = open_payload(frame, FrameType::kWelcome);
    WelcomePayload payload;
    payload.version = reader.read_varint<std::uint32_t>();
    payload.grid = read_string(reader);
    payload.include_timings = reader.read_varint<bool>();
    payload.bandwidth_bits = reader.read_svarint();
    payload.cell_timeout_ms = reader.read_double();
    finish_payload(reader, FrameType::kWelcome);
    return payload;
  } catch (const wire::DecodeError& error) {
    rethrow_as_frame_error(FrameType::kWelcome, error);
  }
}

Frame encode_assign(const AssignPayload& payload) {
  wire::BitWriter writer;
  writer.write_uvarint(payload.cell_index);
  write_string(writer, payload.key);
  return seal(FrameType::kAssign, writer);
}

AssignPayload decode_assign(const Frame& frame) {
  try {
    wire::BitReader reader = open_payload(frame, FrameType::kAssign);
    AssignPayload payload;
    payload.cell_index = reader.read_varint<std::uint32_t>();
    payload.key = read_string(reader);
    finish_payload(reader, FrameType::kAssign);
    return payload;
  } catch (const wire::DecodeError& error) {
    rethrow_as_frame_error(FrameType::kAssign, error);
  }
}

Frame encode_verdict(const VerdictPayload& payload) {
  wire::BitWriter writer;
  writer.write_uvarint(payload.cell_index);
  write_string(writer, payload.key);
  write_string(writer, payload.line);
  return seal(FrameType::kVerdict, writer);
}

VerdictPayload decode_verdict(const Frame& frame) {
  try {
    wire::BitReader reader = open_payload(frame, FrameType::kVerdict);
    VerdictPayload payload;
    payload.cell_index = reader.read_varint<std::uint32_t>();
    payload.key = read_string(reader);
    payload.line = read_string(reader);
    finish_payload(reader, FrameType::kVerdict);
    return payload;
  } catch (const wire::DecodeError& error) {
    rethrow_as_frame_error(FrameType::kVerdict, error);
  }
}

Frame encode_shutdown() { return Frame{FrameType::kShutdown, {}}; }

void decode_shutdown(const Frame& frame) {
  if (frame.type != FrameType::kShutdown || !frame.payload.empty()) {
    throw FrameError("decode SHUTDOWN: unexpected payload");
  }
}

}  // namespace anonet::net
