// Fixed-capacity ring buffer used as the storage of simulated FIFOs.
//
// Capacity is fixed at construction (hardware FIFOs do not grow); push/pop
// are O(1) and never allocate after construction.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dfc {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : storage_(capacity) {
    DFC_REQUIRE(capacity > 0, "RingBuffer capacity must be positive");
  }

  std::size_t capacity() const { return storage_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == storage_.size(); }

  /// Appends a copy of `value`; the buffer must not be full.
  void push(const T& value) {
    tail_slot() = value;
    publish();
  }

  /// Removes and returns the oldest element; the buffer must not be empty.
  T pop() {
    T value = std::move(front_mut());
    drop_front();
    return value;
  }

  /// The slot the next publish() appends, for building an element in place.
  /// It holds whatever element last used it. The buffer must not be full.
  T& tail_slot() {
    DFC_ASSERT(!full(), "RingBuffer::tail_slot on full buffer");
    return storage_[tail_];
  }

  /// Appends the element built in tail_slot(); the buffer must not be full.
  void publish() {
    DFC_ASSERT(!full(), "RingBuffer overflow");
    tail_ = advance(tail_);
    ++size_;
  }

  /// Removes the oldest element in place. Its slot keeps the contents until
  /// a later publish() or push_front() reuses it.
  void drop_front() {
    DFC_ASSERT(!empty(), "RingBuffer underflow");
    head_ = advance(head_);
    --size_;
  }

  /// Inserts a copy of `value` ahead of the oldest element, in the slot just
  /// before it. The buffer must not be full.
  void push_front(const T& value) {
    DFC_ASSERT(!full(), "RingBuffer overflow");
    const std::size_t slot = (head_ == 0 ? storage_.size() : head_) - 1;
    storage_[slot] = value;
    head_ = slot;
    ++size_;
  }

  /// Oldest element without removing it.
  const T& front() const {
    DFC_ASSERT(!empty(), "RingBuffer::front on empty buffer");
    return storage_[head_];
  }

  /// Mutable access to the oldest element (in-place fault injection).
  T& front_mut() {
    DFC_ASSERT(!empty(), "RingBuffer::front_mut on empty buffer");
    return storage_[head_];
  }

  /// Element `i` positions behind the front (0 == front).
  const T& at(std::size_t i) const {
    DFC_ASSERT(i < size_, "RingBuffer::at out of range");
    std::size_t idx = head_ + i;
    if (idx >= storage_.size()) idx -= storage_.size();
    return storage_[idx];
  }

  void clear() {
    head_ = tail_ = 0;
    size_ = 0;
  }

 private:
  std::size_t advance(std::size_t i) const {
    ++i;
    return i == storage_.size() ? 0 : i;
  }

  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dfc
