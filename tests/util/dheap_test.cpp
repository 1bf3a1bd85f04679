#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/dheap.hpp"

namespace rabid::util {
namespace {

/// The heap is pop-dominated scratch on the stage-2/4 hot path; the
/// scaling work (ROADMAP item 5) pre-sizes it from the tile-graph size
/// and watches take_regrows() to prove the reserve actually holds.

TEST(DaryHeap, PopsInSortedOrderAcrossRegrows) {
  DaryHeap<std::int64_t> heap;
  std::mt19937_64 rng(7);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng() % 1000000));
  }
  for (const std::int64_t v : values) heap.push(v);
  std::sort(values.begin(), values.end());
  for (const std::int64_t v : values) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top(), v);
    EXPECT_EQ(heap.pop(), v);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeap, CountsRegrowsWhenPushedPastCapacity) {
  DaryHeap<std::int32_t> heap;
  EXPECT_EQ(heap.take_regrows(), 0u);
  for (std::int32_t i = 0; i < 1000; ++i) heap.push(i);
  // Growing from zero capacity must have reallocated at least once
  // (geometric growth: O(log n) regrows, never one per push).
  const std::uint64_t regrows = heap.take_regrows();
  EXPECT_GT(regrows, 0u);
  EXPECT_LT(regrows, 64u);
  // take_regrows() drains the count.
  EXPECT_EQ(heap.take_regrows(), 0u);
}

TEST(DaryHeap, ReserveEliminatesRegrows) {
  DaryHeap<std::int32_t> heap;
  heap.reserve(1000);
  EXPECT_GE(heap.capacity(), 1000u);
  for (std::int32_t i = 0; i < 1000; ++i) heap.push(999 - i);
  EXPECT_EQ(heap.take_regrows(), 0u);
  // clear() keeps the backing storage: refilling is still regrow-free.
  heap.clear();
  for (std::int32_t i = 0; i < 1000; ++i) heap.push(i);
  EXPECT_EQ(heap.take_regrows(), 0u);
  // One past the reserved capacity regrows again.
  for (std::int32_t i = 0; static_cast<std::size_t>(i) <=
                           heap.capacity() - heap.size(); ++i) {
    heap.push(i);
  }
  EXPECT_EQ(heap.take_regrows(), 1u);
}

TEST(DaryHeap, RebuildRekeysAndDropsInPlace) {
  DaryHeap<std::int64_t> heap;
  std::mt19937_64 rng(11);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng() % 100000));
    heap.push(values.back());
  }
  // Drop the odd values and negate the rest: the new minimum is the old
  // largest even value, so every surviving element must move.
  heap.rebuild([](std::vector<std::int64_t>& v) {
    std::erase_if(v, [](std::int64_t x) { return x % 2 != 0; });
    for (std::int64_t& x : v) x = -x;
  });
  std::vector<std::int64_t> want;
  for (const std::int64_t v : values) {
    if (v % 2 == 0) want.push_back(-v);
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(heap.size(), want.size());
  for (const std::int64_t v : want) EXPECT_EQ(heap.pop(), v);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace rabid::util
