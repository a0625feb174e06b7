#pragma once

// SmallVector<T, N>: a vector of trivially copyable T that keeps up to N
// elements inline and moves them to one heap buffer past N.
//
// The frequency agents (core/pushsum.hpp, core/metropolis.hpp) keep their
// per-value state, and send it, as one sorted list of entries. Inline, a
// state is one block inside the agent and a message one block inside the
// executor's outbox, so copying a state into a message, and a message into
// its outbox slot, touches no allocator.
//
// Copies and moves transfer only the live entries [0, size()); the inline
// slots past size() are never initialized and never read. A move from a
// spilled vector steals its buffer. Every other transfer copies the
// entries into the target's current storage, growing it only when they do
// not fit, so a target that has spilled once keeps its buffer.

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <type_traits>

namespace anonet {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector copies its entries with std::copy");
  static_assert(std::is_trivially_default_constructible_v<T>,
                "SmallVector leaves its unused inline slots uninitialized");
  static_assert(N > 0, "SmallVector needs at least one inline slot");

 public:
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided, so value-initialization does not zero the inline slots.
  SmallVector() noexcept {}  // NOLINT(modernize-use-equals-default)
  SmallVector(std::initializer_list<T> values) {
    assign(values.begin(), values.end());
  }
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) take(other);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Whether the entries live in a heap buffer rather than inline.
  [[nodiscard]] bool spilled() const { return heap_ != nullptr; }

  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t k) { return data_[k]; }
  [[nodiscard]] const T& operator[](std::size_t k) const { return data_[k]; }

  // Keeps the storage: a spilled vector stays spilled.
  void clear() { size_ = 0; }

  void reserve(std::size_t count) {
    if (count > capacity_) grow(count);
  }

  // `value` is taken by copy, so it may alias an entry of this vector.
  void push_back(T value) {
    if (size_ == capacity_) grow(2 * capacity_);
    data_[size_++] = value;
  }

  // Inserts `value` before `pos`, shifting the tail one slot up.
  iterator insert(const_iterator pos, T value) {
    const auto index = static_cast<std::size_t>(pos - data_);
    if (size_ == capacity_) grow(2 * capacity_);
    std::copy_backward(data_ + index, data_ + size_, data_ + size_ + 1);
    data_[index] = value;
    ++size_;
    return data_ + index;
  }

  template <typename It>
  void assign(It first, It last) {
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    size_ = 0;
    reserve(count);
    std::copy(first, last, data_);
    size_ = count;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Moves the live entries into a heap buffer of `capacity` slots. Out of
  // line: it is the cold path of push_back and insert.
  [[gnu::noinline]] void grow(std::size_t capacity) {
    auto buffer = std::make_unique_for_overwrite<T[]>(capacity);
    std::copy(begin(), end(), buffer.get());
    heap_ = std::move(buffer);
    data_ = heap_.get();
    capacity_ = capacity;
  }

  // Steals a spilled `other`'s buffer, or copies its inline entries into
  // this vector's storage, which always holds at least N.
  void take(SmallVector& other) noexcept {
    if (other.spilled()) {
      heap_ = std::move(other.heap_);
      data_ = heap_.get();
      capacity_ = other.capacity_;
      other.data_ = other.inline_.data();
      other.capacity_ = N;
    } else {
      std::copy(other.begin(), other.end(), data_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  // The header comes first, so a reader's first cache line holds it and
  // the first entries.
  T* data_ = inline_.data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  std::array<T, N> inline_;
  std::unique_ptr<T[]> heap_;
};

// The frequency agents' inline capacity: how many distinct input values an
// agent keeps, and sends, without a heap buffer. Derived campaign inputs,
// perfbench `large_n` and bench/executor_scaling draw values mod 10, and
// the fixed input sets have at most 12 agents, so every campaign cell and
// benchmark run stays inline; more values spill and cost one allocation
// per copy.
inline constexpr std::size_t kInlineFrequencyValues = 16;

}  // namespace anonet
