#pragma once

// Length-prefixed frame layer for the socket transport (docs/transport.md).
//
// A frame is the unit the TCP byte stream is cut into:
//
//     u32 LE length | u8 type | payload bytes | u32 LE crc
//
// where `length` counts the type byte plus the payload (so an empty frame
// has length 1), and `crc` is CRC-32 (IEEE 802.3, reflected) over the type
// byte and the payload. The CRC is not cryptography — TCP already
// checksums — it is a *framing* check: a desynchronized reader (a peer
// speaking another protocol, a half-written buffer, a length field hit by
// corruption) fails loudly as a FrameError instead of decoding garbage
// into a campaign record.
//
// Control frames (HELLO/WELCOME/ASSIGN/VERDICT/SHUTDOWN)
// drive the coordinator/worker protocol (net/protocol.hpp). Payload bodies
// are rendered with wire::BitWriter, the same bit-level encoder the agent
// codecs use — the transport adds no second serialization dialect.
//
// FrameDecoder is an incremental parser: feed() it whatever read() returned
// and take complete frames off with next(). It never reads ahead of a
// complete frame and never allocates beyond the declared payload size (the
// length field is validated against kMaxFramePayload *before* buffering).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace anonet::net {

// Corrupt, oversized, or protocol-violating frame data. The socket that
// produced it cannot be resynchronized and must be dropped.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,     // worker -> coordinator: version + desired window
  kWelcome = 2,   // coordinator -> worker: campaign parameters
  kAssign = 3,    // coordinator -> worker: run this cell
  kVerdict = 4,   // worker -> coordinator: finished-cell record line
  kShutdown = 5,  // coordinator -> worker: campaign complete, exit
};

[[nodiscard]] std::string_view to_string(FrameType type);
[[nodiscard]] bool frame_type_known(std::uint8_t raw);

struct Frame {
  FrameType type = FrameType::kShutdown;
  std::vector<std::uint8_t> payload;

  bool operator==(const Frame&) const = default;
};

// Upper bound on a payload, enforced on both ends: encode_frame refuses to
// build a larger frame, FrameDecoder refuses to buffer one. Generous for
// every protocol body (a VERDICT is one JSONL line), tight enough that a
// garbage length field cannot drive a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 22;  // 4 MiB

// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected, init/final 0xFFFFFFFF).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// Renders a frame to its wire bytes. Throws FrameError when the payload
// exceeds kMaxFramePayload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

// Incremental frame parser over an arbitrary byte-chunk sequence.
class FrameDecoder {
 public:
  // Appends raw socket bytes to the internal buffer.
  void feed(const std::uint8_t* data, std::size_t size);

  // Extracts the next complete frame, or nullopt when the buffer holds only
  // a partial one. Throws FrameError on a bad length, unknown type, or CRC
  // mismatch — the stream is poisoned and cannot be re-synchronized.
  [[nodiscard]] std::optional<Frame> next();

  // Bytes buffered but not yet consumed (a non-zero value at EOF means the
  // peer died mid-frame).
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() - consumed_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace anonet::net
