#pragma once

/// \file radix_heap.hpp
/// The min-heap under every wavefront search (maze routing, the stage-4
/// (tile x L) search, its goal-rooted heuristic field): a radix heap
/// (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) over the IEEE-754 bit
/// pattern of a non-negative double key.
///
/// The searches are pop-dominated, and a pop from an implicit d-ary heap
/// is a chain of dependent loads, one per level.  A Dijkstra or
/// consistent-A* wavefront pops keys in non-decreasing order, so entries
/// can instead be bucketed by the highest bit in which their key differs
/// from the last extracted minimum: bucket b holds the keys that agree
/// with it above bit b.  A pop takes the lowest non-empty bucket, makes
/// its minimum the new reference and re-buckets the rest strictly lower,
/// so an entry moves at most 64 times (about four moves per pop on a
/// 128x128 A* wavefront, where half the pops find a one-entry bucket).
///
/// Exact order.  Entry types order by `operator>`, a strict total order
/// (key first, then an id tie-break), and the heap pops exactly that
/// order, the same sequence as util::DaryHeap.  Every entry whose key is
/// at or below the last extracted minimum sits in a small DaryHeap
/// "front" instead of a bucket: the exact-key ties, which the front
/// orders by id, and the rare pushes below the minimum (the two-path
/// search's deferred lower-bound keys, rounding in a heuristic).  The
/// front is popped first and holds only keys at or below every bucketed
/// key, so pops stay exact where the keys are not monotone.
///
/// Storage.  Entries live in one pooled node array with a free list.
/// The 64 buckets are singly linked lists threaded through it, and the
/// front is a heap of 4-byte node indices, so moving an entry between
/// buckets or into the front is a relink, not a copy, and reserve(n)
/// pre-sizes all of the heap's storage: 36 bytes per 24-byte wavefront
/// entry (a front of entries would need another 24, which measurably
/// raised peak RSS on the scale benchmark).

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/dheap.hpp"

namespace rabid::util {

/// T needs a `double key` member (non-negative, never NaN; -0.0 counts
/// as +0.0) and a strict total order `operator>` that compares `key`
/// first.
template <typename T>
class RadixHeap {
  struct Node {
    T value;
    std::uint32_t next;  ///< next node in the same bucket or free list
  };

 public:
  /// Bytes of the pool per reserved entry, the heap's largest buffer
  /// (the front stores 4 bytes per entry).
  static constexpr std::size_t kNodeBytes = sizeof(Node);

  bool empty() const { return occupied_ == 0 && front_.empty(); }

  void clear() {
    pool_.clear();
    free_ = kNil;
    occupied_ = 0;
    last_ = 0;
    front_.clear();
  }

  /// Sizes the pool and the front for n live entries, so no push
  /// reallocates until more than n are live at once.
  void reserve(std::size_t n) {
    pool_.reserve(n);
    front_.reserve(n);
  }

  /// Pushes that had to reallocate the pool or the front since the last
  /// take_regrows().  The heap stays obs-free (util does not depend on
  /// obs); owners flush this into Counter::kHeapRegrows once per pass,
  /// so silent reallocation churn at 512x512 scale becomes visible.
  std::uint64_t take_regrows() {
    const std::uint64_t n = regrows_ + front_.take_regrows();
    regrows_ = 0;
    return n;
  }

  /// Bytes held by the pool and the front (obs memory accounting).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(pool_.capacity()) * sizeof(Node) +
           static_cast<std::uint64_t>(front_.capacity()) *
               sizeof(std::uint32_t);
  }

  void push(const T& e) {
    const std::uint64_t b = bits(e.key);
    const std::uint32_t i = alloc(e);
    if (b <= last_) {
      front_.push(i, by_entry());
    } else {
      link(i, bucket_of(b), b);
    }
  }

  /// The minimum element, left in place (heap must be non-empty).  Not
  /// const: it may move the lowest bucket into the front.
  const T& top() {
    if (front_.empty()) refill();
    return pool_[front_.top()].value;
  }

  /// Removes and returns the minimum element (heap must be non-empty).
  T pop() {
    if (front_.empty()) refill();
    const std::uint32_t i = front_.pop(by_entry());
    const T top = pool_[i].value;
    release(i);
    return top;
  }

  /// Calls `keep(e)` once on every stored element: it may rewrite the
  /// element (change its key) and returns false to drop it.  The pop
  /// sequence afterwards depends only on the kept element set, and the
  /// new keys may lie anywhere, below the old minimum included.
  template <typename Keep>
  void rebuild(Keep&& keep) {
    std::uint32_t kept = kNil;
    std::uint64_t lowest = std::numeric_limits<std::uint64_t>::max();
    const auto take = [&](std::uint32_t i) {
      Node& n = pool_[i];
      if (!keep(n.value)) {
        release(i);
        return;
      }
      lowest = std::min(lowest, bits(n.value.key));
      n.next = kept;
      kept = i;
    };
    while (!front_.empty()) take(front_.pop(by_entry()));
    for (std::uint64_t occ = occupied_; occ != 0; occ &= occ - 1) {
      for (std::uint32_t i = head_[std::countr_zero(occ)]; i != kNil;) {
        const std::uint32_t next = pool_[i].next;
        take(i);
        i = next;
      }
    }
    occupied_ = 0;
    last_ = kept == kNil ? 0 : lowest;
    scatter(kept);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// The front's order: node indices by the entries they hold.
  auto by_entry() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      return pool_[a].value > pool_[b].value;
    };
  }

  /// Order-preserving integer image of a non-negative key: adding +0.0
  /// maps -0.0 to +0.0, and non-negative doubles (+inf included) order
  /// like their bit patterns.
  static std::uint64_t bits(double key) {
    return std::bit_cast<std::uint64_t>(key + 0.0);
  }

  /// The bucket of a key image above last_: its highest bit differing
  /// from last_.
  int bucket_of(std::uint64_t b) const {
    return 63 - std::countl_zero(b ^ last_);
  }

  std::uint32_t alloc(const T& e) {
    const std::uint32_t i = free_;
    if (i != kNil) {
      free_ = pool_[i].next;
      pool_[i].value = e;
      return i;
    }
    if (pool_.size() == pool_.capacity()) ++regrows_;
    pool_.push_back(Node{e, kNil});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  void release(std::uint32_t i) {
    pool_[i].next = free_;
    free_ = i;
  }

  /// Prepends node i, whose key image is kb, to bucket b.  head_[b] and
  /// min_[b] are meaningful only while bit b of occupied_ is set.
  void link(std::uint32_t i, int b, std::uint64_t kb) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    const bool used = (occupied_ & bit) != 0;
    pool_[i].next = used ? head_[b] : kNil;
    min_[b] = used ? std::min(min_[b], kb) : kb;
    head_[b] = i;
    occupied_ |= bit;
  }

  /// Files the list starting at node i against last_ (which is at or
  /// below every key on it): keys equal to last_ into the front, the
  /// rest into their buckets.
  void scatter(std::uint32_t i) {
    while (i != kNil) {
      Node& n = pool_[i];
      const std::uint32_t next = n.next;
      const std::uint64_t b = bits(n.value.key);
      if (b == last_) {
        front_.push(i, by_entry());
      } else {
        link(i, bucket_of(b), b);
      }
      i = next;
    }
  }

  /// Moves the minimum key of the lowest bucket, with all its ties, into
  /// the (empty) front and re-buckets the rest of that bucket against
  /// it, in one pass: link() keeps each bucket's minimum.  Every other
  /// bucket's entries keep their bucket: they differ from the old and
  /// the new minimum in the same highest bit.
  void refill() {
    const int b = std::countr_zero(occupied_);
    occupied_ &= occupied_ - 1;
    last_ = min_[b];
    scatter(head_[b]);
  }

  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;
  std::uint64_t occupied_ = 0;  ///< bit b set iff bucket b is non-empty
  std::uint64_t last_ = 0;  ///< last extracted minimum's key image
  std::array<std::uint32_t, 64> head_{};
  std::array<std::uint64_t, 64> min_{};  ///< smallest key image per bucket
  DaryHeap<std::uint32_t> front_;  ///< node indices, ordered by entry
  std::uint64_t regrows_ = 0;
};

}  // namespace rabid::util
