#pragma once

// Bandwidth metering and channel policies for the executor.
//
// A ChannelPolicy tells the executor what to do with the canonical message
// sizes of wire/wire.hpp (wire::encoded_bits):
//   - kUnbounded: nothing — the meter is off and the send/deliver path pays
//     zero accounting cost (the pre-wire behavior, byte-for-byte);
//   - kMetered: account every round's sent/received bits and the largest
//     single message into a BandwidthMeter, changing no semantics;
//   - kBounded: additionally enforce a per-message budget of B bits. The
//     check runs between the send phase and delivery — the model's messages
//     are generated, measured against the channel, and only then travel —
//     so an overflowing round throws BandwidthExceeded *before* any agent
//     transitions: states and the round counter reflect exactly the rounds
//     that completed.
//
// Bit totals are sums (and one max) of per-message integers, reduced from
// per-block partials in block order exactly like the executor's other
// statistics, so metered campaigns are bitwise-identical across thread
// counts and shard counts.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace anonet::wire {

enum class ChannelMode : std::uint8_t {
  kUnbounded,  // no accounting (default)
  kMetered,    // account bits, enforce nothing
  kBounded,    // account bits, enforce budget_bits per message
};

struct ChannelPolicy {
  ChannelMode mode = ChannelMode::kUnbounded;
  std::int64_t budget_bits = 0;  // per single message; kBounded only

  [[nodiscard]] static constexpr ChannelPolicy unbounded() { return {}; }
  [[nodiscard]] static constexpr ChannelPolicy metered() {
    return {ChannelMode::kMetered, 0};
  }
  [[nodiscard]] static constexpr ChannelPolicy bounded(std::int64_t bits) {
    return {ChannelMode::kBounded, bits};
  }
};

// The campaign's integer spelling of a policy (Cell::bandwidth_bits and the
// --bandwidth-bits CLI axis): 0 = unbounded, -1 = metered, B > 0 = bounded
// to B bits per message. Throws std::invalid_argument on other negatives.
[[nodiscard]] inline ChannelPolicy channel_policy_from_bits(
    std::int64_t bits) {
  if (bits == 0) return ChannelPolicy::unbounded();
  if (bits == -1) return ChannelPolicy::metered();
  if (bits < 0) {
    throw std::invalid_argument(
        "channel_policy_from_bits: expected 0 (unbounded), -1 (metered), or "
        "a positive per-message budget, got " +
        std::to_string(bits));
  }
  return ChannelPolicy::bounded(bits);
}

// Thrown by Executor::step() under a bounded channel when some round-t
// message exceeds the budget. Raised between the send phase and delivery,
// so no round-t message is delivered and no agent transitions: like
// DeadlineExceeded, the executor is left consistent after exactly
// rounds_run() completed rounds. Campaign runners catch this type to record
// a "bandwidth_exceeded" verdict distinct from "failed" and "timeout".
class BandwidthExceeded : public std::runtime_error {
 public:
  BandwidthExceeded(std::int64_t rounds_run, std::int64_t message_bits,
                    std::int64_t budget_bits)
      : std::runtime_error("channel budget of " + std::to_string(budget_bits) +
                           " bits/message exceeded by a " +
                           std::to_string(message_bits) +
                           "-bit message in round " +
                           std::to_string(rounds_run + 1)),
        rounds_run_(rounds_run),
        message_bits_(message_bits),
        budget_bits_(budget_bits) {}

  [[nodiscard]] std::int64_t rounds_run() const { return rounds_run_; }
  [[nodiscard]] std::int64_t message_bits() const { return message_bits_; }
  [[nodiscard]] std::int64_t budget_bits() const { return budget_bits_; }

 private:
  std::int64_t rounds_run_;
  std::int64_t message_bits_;
  std::int64_t budget_bits_;
};

// One round's bit accounting. bits_sent counts each message once per
// out-edge it travels (a broadcast message over d edges costs d * bits, the
// self-loop included, mirroring messages_delivered); bits_received counts
// the same edges from the receiver side, so the two totals agree per round.
struct RoundBandwidth {
  std::int64_t bits_sent = 0;
  std::int64_t bits_received = 0;
  std::int64_t max_message_bits = 0;  // largest single message this round
};

// Per-round bandwidth series plus running totals. The executor records one
// entry per completed round; all fields are integer sums/maxima, so the
// series is a pure function of the execution (thread-count-invariant).
class BandwidthMeter {
 public:
  void record_round(const RoundBandwidth& round) {
    rounds_.push_back(round);
    total_sent_ += round.bits_sent;
    total_received_ += round.bits_received;
    if (round.max_message_bits > max_message_bits_) {
      max_message_bits_ = round.max_message_bits;
    }
  }

  [[nodiscard]] std::int64_t rounds() const {
    return static_cast<std::int64_t>(rounds_.size());
  }
  // Round t in [1, rounds()], matching the executor's round numbering.
  [[nodiscard]] const RoundBandwidth& round(std::int64_t t) const {
    if (t < 1 || t > rounds()) {
      throw std::out_of_range("BandwidthMeter: round out of range");
    }
    return rounds_[static_cast<std::size_t>(t - 1)];
  }
  [[nodiscard]] const std::vector<RoundBandwidth>& per_round() const {
    return rounds_;
  }
  [[nodiscard]] std::int64_t total_bits_sent() const { return total_sent_; }
  [[nodiscard]] std::int64_t total_bits_received() const {
    return total_received_;
  }
  [[nodiscard]] std::int64_t max_message_bits() const {
    return max_message_bits_;
  }

 private:
  std::vector<RoundBandwidth> rounds_;
  std::int64_t total_sent_ = 0;
  std::int64_t total_received_ = 0;
  std::int64_t max_message_bits_ = 0;
};

}  // namespace anonet::wire
