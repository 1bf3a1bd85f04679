#pragma once

/// \file dheap.hpp
/// A 4-ary implicit min-heap used by the wavefront searches (maze
/// routing, the stage-4 (tile x L) search, its goal-rooted heuristic
/// field).  Versus std::push_heap/pop_heap on a binary heap this halves
/// the tree depth and keeps each sift-down's children in one cache line,
/// which matters because the searches are pop-dominated (every pop pays
/// a full-depth sift).
///
/// Determinism: entry types order by `operator>` which every caller
/// defines as a *strict total order* (cost first, then an id tie-break),
/// so the minimum element is unique and any correct heap pops the same
/// sequence.  Swapping the heap implementation provably cannot change a
/// route.

#include <cstddef>
#include <cstdint>
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

  void push(T e) {
    std::size_t i = v_.size();
    if (v_.size() == v_.capacity()) ++regrows_;
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / D;
      if (!(v_[parent] > v_[i])) break;
      std::swap(v_[parent], v_[i]);
      i = parent;
    }
  }

  /// The minimum element, left in place (heap must be non-empty).
  const T& top() const { return v_.front(); }

  /// Removes and returns the minimum element (heap must be non-empty).
  T pop() {
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
          if (v_[best] > v_[c]) best = c;
        }
        if (!(last > v_[best])) break;
        v_[i] = v_[best];
        i = best;
      }
      v_[i] = last;
    }
    return top;
  }

  /// Lets `edit` rewrite the stored elements in place (change keys, drop
  /// elements), then restores heap order bottom-up in O(n).  The pop
  /// sequence afterwards depends only on the edited element set.
  template <typename Edit>
  void rebuild(Edit&& edit) {
    edit(v_);
    if (v_.size() < 2) return;
    for (std::size_t i = (v_.size() - 2) / D + 1; i-- > 0;) {
      sift_down(i, v_[i]);
    }
  }

 private:
  /// Moves `e` down from slot i until no child orders before it.  pop()
  /// keeps its own copy of this loop, so the wavefront hot path compiles
  /// exactly as it did before rebuild() existed.
  void sift_down(std::size_t i, const T e) {
    const std::size_t n = v_.size();
    while (true) {
      const std::size_t first = i * D + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + D < n ? first + D : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (v_[best] > v_[c]) best = c;
      }
      if (!(e > v_[best])) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = e;
  }

  std::vector<T> v_;
  std::uint64_t regrows_ = 0;
};

}  // namespace rabid::util
