#pragma once

// The receive form: what an agent's transition sees of its round-t
// deliveries (docs/round_engine.md, "Receive form" and "The arena").
//
//   void receive(Inbox<Message> messages);
//
// An Inbox is a read-only, random-access view of the shuffled multiset,
// valid only during the receive call: it aliases the executor's buffers,
// which the next round overwrites. An agent that keeps a message copies it
// out.
//
// The round engine's arena holds one entry per delivery. A trivially
// copyable Message (a few scalars) is copied into the arena and the Inbox
// reads it there. Any other Message (vectors, maps, Rationals) stays in the
// sender's outbox; the arena entry is a 4-byte slot into it (the sender id
// under isotropic models, the edge id under output port awareness) and the
// Inbox reads through it. Both forms expose the same members, so agents
// are written once and never see which form they get.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>

namespace anonet {

// Whether deliveries of Message travel as slots into the outbox rather than
// as copies in the arena. The type alone decides: copying a heap-backed
// Message copies its heap contents per delivery, while slot delivery
// measured slower than copying for scalar Messages (docs/round_engine.md,
// "The arena").
template <typename Message>
inline constexpr bool kDeliveredBySlot = !std::is_trivially_copyable_v<Message>;

// One arena entry: the message itself, or its outbox slot.
template <typename Message>
using ArenaEntry =
    std::conditional_t<kDeliveredBySlot<Message>, std::uint32_t, Message>;

// A read-only view of one receiver's deliveries. Its iterator is random
// access but deliberately not contiguous, in both forms, so an Inbox never
// converts to std::span: the Inbox is the one receive form.
template <typename Message>
class Inbox {
  using Entry = ArenaEntry<Message>;
  // The outbox a slot indexes; empty in the copy form, which keeps the
  // Inbox two words wide, so it travels to receive in registers.
  struct NoSource {};
  using Source = std::conditional_t<kDeliveredBySlot<Message>, const Message*,
                                    NoSource>;

 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    iterator() = default;
    iterator(const Entry* entry, Source source)
        : entry_(entry), source_(source) {}

    reference operator*() const { return read(*entry_, source_); }
    pointer operator->() const { return &read(*entry_, source_); }
    reference operator[](difference_type k) const {
      return read(entry_[k], source_);
    }

    iterator& operator++() {
      ++entry_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++entry_;
      return old;
    }
    iterator& operator--() {
      --entry_;
      return *this;
    }
    iterator operator--(int) {
      iterator old = *this;
      --entry_;
      return old;
    }
    iterator& operator+=(difference_type k) {
      entry_ += k;
      return *this;
    }
    iterator& operator-=(difference_type k) {
      entry_ -= k;
      return *this;
    }
    friend iterator operator+(iterator it, difference_type k) {
      return it += k;
    }
    friend iterator operator+(difference_type k, iterator it) {
      return it += k;
    }
    friend iterator operator-(iterator it, difference_type k) {
      return it -= k;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return a.entry_ - b.entry_;
    }
    friend bool operator==(iterator a, iterator b) {
      return a.entry_ == b.entry_;
    }
    friend std::strong_ordering operator<=>(iterator a, iterator b) {
      return a.entry_ <=> b.entry_;
    }

   private:
    const Entry* entry_ = nullptr;
    [[no_unique_address]] Source source_{};
  };

  // Copy form: the delivered messages themselves.
  explicit Inbox(std::span<const Message> messages)
    requires(!kDeliveredBySlot<Message>)
      : entries_(messages) {}

  // Slot form: message k is source[slots[k]].
  Inbox(std::span<const std::uint32_t> slots, const Message* source)
    requires(kDeliveredBySlot<Message>)
      : entries_(slots), source_(source) {}

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const Message& operator[](std::size_t k) const {
    return read(entries_[k], source_);
  }
  [[nodiscard]] const Message& front() const { return (*this)[0]; }
  [[nodiscard]] iterator begin() const {
    return iterator(entries_.data(), source_);
  }
  [[nodiscard]] iterator end() const {
    return iterator(entries_.data() + entries_.size(), source_);
  }

 private:
  static const Message& read(const Entry& entry, Source source) {
    if constexpr (kDeliveredBySlot<Message>) {
      return source[entry];
    } else {
      return entry;
    }
  }

  std::span<const Entry> entries_;
  [[no_unique_address]] Source source_{};
};

}  // namespace anonet
