#pragma once

/// \file dheap.hpp
/// A 4-ary implicit min-heap: the "front" of util::RadixHeap, which
/// orders the exact-key ties and the pushes below the last minimum, and
/// the reference order that RadixHeap's tests compare against.  Versus
/// std::push_heap/pop_heap on a binary heap this halves the tree depth
/// and keeps each sift-down's children in one cache line.
///
/// Determinism: entry types order by `operator>` which every caller
/// defines as a *strict total order* (cost first, then an id tie-break),
/// so the minimum element is unique and any correct heap pops the same
/// sequence.  Swapping the heap implementation cannot change a route.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rabid::util {

template <typename T, int D = 4>
class DaryHeap {
  static_assert(D >= 2, "heap arity must be at least 2");

 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  std::size_t capacity() const { return v_.capacity(); }
  void clear() { v_.clear(); }
  void reserve(std::size_t n) { v_.reserve(n); }

  /// Pushes that had to reallocate the backing vector since the last
  /// take_regrows().  The heap stays obs-free (util does not depend on
  /// obs); owners flush this into Counter::kHeapRegrows once per pass,
  /// so silent reallocation churn at 512x512 scale becomes visible.
  std::uint64_t take_regrows() {
    const std::uint64_t n = regrows_;
    regrows_ = 0;
    return n;
  }

  void push(T e) { push(e, std::greater<>{}); }

  /// push() and pop() under an explicit strict total order `greater`
  /// instead of T's operator>, so a heap of handles can order by the
  /// entries they name (RadixHeap's front holds pool indices) without
  /// storing a pointer that a reallocation would invalidate.  Every call
  /// on one heap must pass the same order.
  template <typename Greater>
  void push(T e, Greater greater) {
    std::size_t i = v_.size();
    if (v_.size() == v_.capacity()) ++regrows_;
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!greater(v_[parent], v_[i])) break;
      std::swap(v_[parent], v_[i]);
      i = parent;
    }
  }

  /// The minimum element, left in place (heap must be non-empty).
  const T& top() const { return v_.front(); }

  /// Removes and returns the minimum element (heap must be non-empty).
  T pop() { return pop(std::greater<>{}); }

  template <typename Greater>
  T pop(Greater greater) {
    T top = v_.front();
    T last = v_.back();
    v_.pop_back();
    if (!v_.empty()) {
      std::size_t i = 0;
      const std::size_t n = v_.size();
      while (true) {
        const std::size_t first = i * D + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t end = first + D < n ? first + D : n;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (greater(v_[best], v_[c])) best = c;
        }
        if (!greater(last, v_[best])) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = last;
    }
    return top;
  }

 private:
  std::vector<T> v_;
  std::uint64_t regrows_ = 0;
};

}  // namespace rabid::util
