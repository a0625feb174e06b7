#include "net/frame.hpp"

#include <array>
#include <cstring>

namespace anonet::net {

namespace {

// Reflected CRC-32 table for the IEEE 802.3 polynomial, built once.
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = value;
  }
  return table;
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t get_u32_le(const std::uint8_t* data) {
  return static_cast<std::uint32_t>(data[0]) |
         (static_cast<std::uint32_t>(data[1]) << 8) |
         (static_cast<std::uint32_t>(data[2]) << 16) |
         (static_cast<std::uint32_t>(data[3]) << 24);
}

}  // namespace

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kWelcome: return "WELCOME";
    case FrameType::kAssign: return "ASSIGN";
    case FrameType::kVerdict: return "VERDICT";
    case FrameType::kShutdown: return "SHUTDOWN";
  }
  return "UNKNOWN";
}

bool frame_type_known(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kShutdown);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ data[i]) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw FrameError("encode_frame: payload exceeds kMaxFramePayload");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + 1 + frame.payload.size() + 4);
  put_u32_le(out, static_cast<std::uint32_t>(1 + frame.payload.size()));
  out.push_back(static_cast<std::uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  // CRC over type byte + payload: everything the length field covers.
  put_u32_le(out, crc32(out.data() + 4, 1 + frame.payload.size()));
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Reclaim consumed prefix before growing, so a long-lived connection's
  // buffer stays proportional to the largest in-flight frame.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= (std::size_t{1} << 16)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  const std::uint32_t length = get_u32_le(head);
  if (length < 1) {
    throw FrameError("FrameDecoder: frame length 0 (missing type byte)");
  }
  if (length > 1 + kMaxFramePayload) {
    throw FrameError("FrameDecoder: declared length " +
                     std::to_string(length) + " exceeds the 4 MiB cap");
  }
  const std::size_t total = 4 + static_cast<std::size_t>(length) + 4;
  if (available < total) return std::nullopt;
  const std::uint32_t declared_crc = get_u32_le(head + 4 + length);
  const std::uint32_t actual_crc = crc32(head + 4, length);
  if (declared_crc != actual_crc) {
    throw FrameError("FrameDecoder: CRC mismatch (stream corrupt)");
  }
  const std::uint8_t raw_type = head[4];
  if (!frame_type_known(raw_type)) {
    throw FrameError("FrameDecoder: unknown frame type " +
                     std::to_string(static_cast<int>(raw_type)));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload.assign(head + 5, head + 4 + length);
  consumed_ += total;
  return frame;
}

}  // namespace anonet::net
