#ifndef QFCARD_COMMON_GATHERED_H_
#define QFCARD_COMMON_GATHERED_H_

#include <cstddef>
#include <span>
#include <vector>

namespace qfcard::common {

/// Read-only, random-access view of n elements of T that stay in the
/// caller's storage: either one contiguous run (a vector or span of T) or a
/// gather list of pointers, one per element. It is the one parameter type of
/// the batch primitives (docs/batch_api.md), so a batching layer that holds
/// its callers' objects by address passes them through without copying them
/// into a std::vector<T> first.
///
/// Like std::span it owns nothing: whatever it views, and the pointer array
/// itself, must outlive every use of the view. It converts implicitly from
/// const std::vector<T>&, so vector callers need no adapter.
template <typename T>
class Gathered {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor)
  Gathered(const std::vector<T>& items)
      : Gathered(std::span<const T>(items)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Gathered(std::span<const T> items)
      : items_(items.data()), size_(items.size()) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Gathered(std::span<const T* const> pointers)
      : pointers_(pointers.data()), size_(pointers.size()) {}

  size_t size() const { return size_; }

  const T& operator[](size_t i) const {
    return pointers_ != nullptr ? *pointers_[i] : items_[i];
  }

 private:
  const T* items_ = nullptr;
  const T* const* pointers_ = nullptr;
  size_t size_ = 0;
};

}  // namespace qfcard::common

#endif  // QFCARD_COMMON_GATHERED_H_
