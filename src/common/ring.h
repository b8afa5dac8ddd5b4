#ifndef QFCARD_COMMON_RING_H_
#define QFCARD_COMMON_RING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace qfcard::common {

/// Fixed-capacity ring buffer: the one bounded rolling window in the repo
/// (tier arbiter windows and switch log, feedback bus, trace buffer). Once full, each Push overwrites the oldest element and hands it
/// back. Not thread-safe; owners guard it with their own mutex
/// (QFCARD_GUARDED_BY).
template <typename T>
class Ring {
 public:
  /// `capacity` is clamped to >= 1.
  explicit Ring(size_t capacity) { Reset(capacity); }

  /// Appends `value`. When the ring was full, the oldest element is
  /// overwritten and returned; otherwise returns nullopt.
  std::optional<T> Push(T value) {
    ++pushed_;
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
      return std::nullopt;
    }
    std::optional<T> evicted(std::exchange(slots_[next_], std::move(value)));
    next_ = (next_ + 1) % capacity_;
    return evicted;
  }

  /// Elements currently held (<= capacity()).
  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }
  /// Pushes since construction or the last Reset; pushed() - size() elements
  /// have been evicted.
  uint64_t pushed() const { return pushed_; }

  /// Drops every element and resizes to `capacity` (clamped to >= 1).
  void Reset(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    slots_.clear();
    next_ = 0;
    pushed_ = 0;
  }

  /// Copy of the contents, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(slots_.size());
    const auto oldest = slots_.begin() + static_cast<std::ptrdiff_t>(next_);
    out.insert(out.end(), oldest, slots_.end());
    out.insert(out.end(), slots_.begin(), oldest);
    return out;
  }

 private:
  std::vector<T> slots_;
  size_t capacity_ = 1;
  size_t next_ = 0;  // oldest slot (next overwrite) once full; 0 until then
  uint64_t pushed_ = 0;
};

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_RING_H_
