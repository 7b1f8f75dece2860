#pragma once
// Buffer<T> — typed slab storage with allocation accounting.
//
// The ring engine (dist/circulate.hpp) holds a FIXED number of these per
// circulation (one for Bcast, a double buffer for the rings) instead of
// allocating per round. The process-wide allocation counter makes that
// property testable: test_dist pins the per-circulation allocation count
// independent of rank count and round count.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

namespace ptim::backend {

namespace detail {
inline std::atomic<long>& buffer_alloc_counter() {
  static std::atomic<long> count{0};
  return count;
}
}  // namespace detail

// Number of Buffer allocations (ensure() calls that actually grew storage)
// since process start. Monotone; tests diff before/after.
inline long buffer_alloc_count() {
  return detail::buffer_alloc_counter().load(std::memory_order_relaxed);
}

template <typename T>
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(size_t n) { ensure(n); }

  // Grow to n zero-initialized elements; shrinking or same-size calls keep
  // the existing storage (and its contents) and do not count as
  // allocations.
  void ensure(size_t n) {
    if (n > data_.size()) {
      data_.assign(n, T{});
      detail::buffer_alloc_counter().fetch_add(1, std::memory_order_relaxed);
    }
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  void fill(const T& v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  std::vector<T> data_;
};

}  // namespace ptim::backend
