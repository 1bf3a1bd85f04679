#include "util/radix_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "util/dheap.hpp"

namespace rabid::util {
namespace {

/// The wavefront searches' entry shape: a double key ordered first, then
/// an id tie-break, so every stream has one exact pop order.
struct Entry {
  double key;
  std::uint32_t id;
  bool operator>(const Entry& o) const {
    if (key != o.key) return key > o.key;
    return id > o.id;
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Equal keys compare equal (-0.0 == +0.0), so the check is on the
/// order, not on a zero's sign bit.
void expect_same(const Entry& got, const Entry& want, int step) {
  ASSERT_EQ(got.key, want.key) << "step " << step;
  ASSERT_EQ(got.id, want.id) << "step " << step;
}

/// Keys drawn the way the searches produce them: mostly at or above the
/// last popped key (a wavefront), often exactly on it (ties), sometimes
/// below it (deferred bounds, rounding), plus the special values.
double draw_key(std::mt19937_64& rng, double last) {
  switch (rng() % 10) {
    case 0:
      return last;  // exact tie with the minimum
    case 1:
      return last * 0.5;  // below the minimum
    case 2: {
      constexpr double kSpecial[] = {0.0, -0.0, 1e7, 1e7 + 0x1p-29, kInf};
      return kSpecial[rng() % 5];
    }
    case 3:
      return std::nextafter(last, kInf);  // one ulp above
    default:
      return last + static_cast<double>(rng() % 1000) * 0.37;
  }
}

/// Drives a RadixHeap and a DaryHeap reference through one seeded
/// stream of pushes, top() peeks and pops, checking every answer.
void run_stream(RadixHeap<Entry>& heap, std::uint64_t seed, int steps) {
  DaryHeap<Entry> ref;
  std::mt19937_64 rng(seed);
  double last = 1e7;
  std::uint32_t next_id = 0;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng() % 8;
    if (op < 4 || ref.empty()) {
      // Ids repeat (mod 64) so ties on key alone are common.
      const Entry e{draw_key(rng, last), next_id++ % 64};
      heap.push(e);
      ref.push(e);
    } else if (op == 4) {
      expect_same(heap.top(), ref.top(), step);
    } else {
      const Entry want = ref.pop();
      expect_same(heap.pop(), want, step);
      if (want.key != kInf) last = want.key;
    }
    ASSERT_EQ(heap.empty(), ref.empty()) << "step " << step;
  }
  int step = steps;
  while (!ref.empty()) expect_same(heap.pop(), ref.pop(), step++);
  EXPECT_TRUE(heap.empty());
}

TEST(RadixHeap, MatchesDaryHeapOnSeededStreams) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RadixHeap<Entry> heap;
    run_stream(heap, seed, 20000);
  }
}

TEST(RadixHeap, ClearLeavesNoStateBehind) {
  RadixHeap<Entry> heap;
  heap.reserve(4096);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    // Abandon a stream half-way, then reuse the heap from scratch.
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 3000; ++i) {
      heap.push({static_cast<double>(rng() % 5000),
                 static_cast<std::uint32_t>(i)});
      if (i % 3 == 0) heap.pop();
    }
    heap.clear();
    EXPECT_TRUE(heap.empty());
    run_stream(heap, seed + 100, 5000);
  }
}

TEST(RadixHeap, SignedZeroAndInfinityKeys) {
  RadixHeap<Entry> heap;
  heap.push({kInf, 0});
  heap.push({-0.0, 5});
  heap.push({0.0, 3});
  heap.push({1e7, 1});
  heap.push({-0.0, 1});
  heap.push({kInf, 0});
  const std::vector<std::uint32_t> ids{1, 3, 5, 1, 0, 0};
  const std::vector<double> keys{0.0, 0.0, 0.0, 1e7, kInf, kInf};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Entry e = heap.pop();
    EXPECT_EQ(e.key, keys[i]) << i;
    EXPECT_EQ(e.id, ids[i]) << i;
  }
  EXPECT_TRUE(heap.empty());
}

/// rebuild() as TwoPathSearch::aim_field uses it: drop some entries and
/// re-key the rest, below the last popped key included.
TEST(RadixHeap, RebuildMatchesAReferenceRebuild) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RadixHeap<Entry> heap;
    std::vector<Entry> live;  // reference contents
    std::mt19937_64 rng(seed);
    double last = 0.0;
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 200; ++i) {
        const Entry e{draw_key(rng, last),
                      static_cast<std::uint32_t>(rng() % 500)};
        heap.push(e);
        live.push_back(e);
      }
      for (int i = 0; i < 80 && !live.empty(); ++i) {
        const auto it = std::min_element(
            live.begin(), live.end(),
            [](const Entry& a, const Entry& b) { return b > a; });
        const Entry want = *it;
        live.erase(it);
        expect_same(heap.pop(), want, i);
        if (want.key != kInf) last = want.key;
      }
      const std::uint64_t salt = rng();
      const auto edit = [&](Entry& e) {
        if ((e.id ^ salt) % 3 == 0) return false;
        if (e.key != kInf) e.key = static_cast<double>((e.id * salt) % 997);
        return true;
      };
      heap.rebuild(edit);
      std::erase_if(live, [&](Entry& e) { return !edit(e); });
    }
    DaryHeap<Entry> ref;
    for (const Entry& e : live) ref.push(e);
    int step = 0;
    while (!ref.empty()) expect_same(heap.pop(), ref.pop(), step++);
    EXPECT_TRUE(heap.empty());
  }
}

TEST(RadixHeap, RebuildRekeysAndDropsInPlace) {
  RadixHeap<Entry> heap;
  std::mt19937_64 rng(11);
  std::vector<Entry> values;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    values.push_back({static_cast<double>(rng() % 100000), i});
    heap.push(values.back());
  }
  // Drop the odd keys and mirror the rest: the new minimum is the old
  // largest even key, so every surviving element must move.
  heap.rebuild([](Entry& e) {
    if (static_cast<std::int64_t>(e.key) % 2 != 0) return false;
    e.key = 100000.0 - e.key;
    return true;
  });
  std::vector<Entry> want;
  for (const Entry& e : values) {
    if (static_cast<std::int64_t>(e.key) % 2 == 0) {
      want.push_back({100000.0 - e.key, e.id});
    }
  }
  std::sort(want.begin(), want.end(),
            [](const Entry& a, const Entry& b) { return b > a; });
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same(heap.pop(), want[i], static_cast<int>(i));
  }
  EXPECT_TRUE(heap.empty());
}

TEST(RadixHeap, ReserveEliminatesRegrows) {
  constexpr std::size_t kN = 5000;
  RadixHeap<Entry> heap;
  heap.reserve(kN);
  EXPECT_EQ(heap.take_regrows(), 0u);
  // n distinct keys fill the pool; n equal keys fill the front.
  for (std::uint32_t i = 0; i < kN; ++i) {
    heap.push({static_cast<double>(i) + 1.0, i});
  }
  EXPECT_EQ(heap.take_regrows(), 0u);
  while (!heap.empty()) heap.pop();
  for (std::uint32_t i = 0; i < kN; ++i) {
    heap.push({7.0, static_cast<std::uint32_t>(kN) - i});
  }
  EXPECT_EQ(heap.take_regrows(), 0u);
  // A wavefront's churn (pop one, push a few, n live at most) reuses
  // freed pool nodes instead of growing.
  heap.clear();
  std::mt19937_64 rng(3);
  double last = 0.0;
  std::size_t live = 0;
  for (int i = 0; i < 50000; ++i) {
    if (live < kN && (live == 0 || rng() % 2 == 0)) {
      heap.push({last + static_cast<double>(rng() % 100),
                 static_cast<std::uint32_t>(i)});
      ++live;
    } else {
      last = heap.pop().key;
      --live;
    }
  }
  EXPECT_EQ(heap.take_regrows(), 0u);
  const std::uint64_t reserved = heap.memory_bytes();
  EXPECT_GE(reserved, kN * (RadixHeap<Entry>::kNodeBytes + 4));
  // Past the reservation the heap grows, and says so.
  heap.clear();
  for (std::uint32_t i = 0; i <= kN; ++i) {
    heap.push({static_cast<double>(i) + 1.0, i});
  }
  EXPECT_EQ(heap.take_regrows(), 1u);
  EXPECT_EQ(heap.take_regrows(), 0u);  // drained
  EXPECT_GT(heap.memory_bytes(), reserved);
}

}  // namespace
}  // namespace rabid::util
