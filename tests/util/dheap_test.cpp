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

}  // namespace
}  // namespace rabid::util
