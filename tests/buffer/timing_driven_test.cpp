#include "buffer/timing_driven.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "timing/delay.hpp"
#include "util/rng.hpp"

namespace rabid::buffer {
namespace {

tile::TileGraph make_graph(std::int32_t nx = 16, std::int32_t ny = 4,
                           double tile_um = 1000.0) {
  return tile::TileGraph(
      geom::Rect{{0, 0}, {nx * tile_um, ny * tile_um}}, nx, ny);
}

route::RouteTree chain(const tile::TileGraph& g, std::int32_t len) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= len; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  return t;
}

const TileAllowFn kAllowAll = [](tile::TileId) { return true; };

/// The cells a result's library indices name.
std::vector<BufferType> cells_of(const BufferLibrary& lib,
                                 const std::vector<std::int32_t>& types) {
  std::vector<BufferType> cells;
  for (const std::int32_t t : types) {
    cells.push_back(lib.type(static_cast<std::size_t>(t)));
  }
  return cells;
}

/// True when every sink's root path passes an even number of inverting
/// cells.  A driving repeater at x and an arc repeater into x both lie on
/// the path of every sink at or below x.
bool sinks_see_even_inversions(const route::RouteTree& tree,
                               const route::BufferList& buffers,
                               const std::vector<BufferType>& cells) {
  for (const route::NodeId sink : tree.sink_nodes()) {
    int inversions = 0;
    for (route::NodeId x = sink; x != route::kNoNode;
         x = tree.node(x).parent) {
      for (std::size_t i = 0; i < buffers.size(); ++i) {
        const route::BufferPlacement& b = buffers[i];
        if (cells[i].inverting &&
            ((b.child == route::kNoNode && b.node == x) || b.child == x)) {
          ++inversions;
        }
      }
    }
    if (inversions % 2 != 0) return false;
  }
  return true;
}

/// Every place a repeater may go: an arc slot per child of an allowed
/// node, and a drive slot at allowed non-root nodes with >= 2 children.
route::BufferList repeater_slots(const route::RouteTree& tree,
                                 const TileAllowFn& allow) {
  route::BufferList slots;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const auto v = static_cast<route::NodeId>(i);
    if (!allow(tree.node(v).tile)) continue;
    for (const route::NodeId w : tree.node(v).children())
      slots.push_back({v, w});
    if (v != tree.root() && tree.node(v).children().size() >= 2) {
      slots.push_back({v, route::kNoNode});
    }
  }
  return slots;
}

/// Exhaustive optimum over every placement subset x cell choice of `lib`
/// on a small tree, using the same Elmore evaluator.  A plan counts only
/// when every sink sees an even inversion count.
double brute_force_delay(const route::RouteTree& tree,
                         const tile::TileGraph& g, const BufferLibrary& lib,
                         const TileAllowFn& allow) {
  const route::BufferList slots = repeater_slots(tree, allow);
  const auto cells = lib.types();
  double best = timing::evaluate_delay(tree, g).max_ps;  // no buffers at all
  // Enumerate subsets; per selected slot enumerate cells (mixed-radix).
  const std::uint32_t count = 1U << slots.size();
  for (std::uint32_t mask = 1; mask < count; ++mask) {
    route::BufferList chosen;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if ((mask >> s) & 1U) chosen.push_back(slots[s]);
    }
    std::vector<std::size_t> radix(chosen.size(), 0);
    for (;;) {
      std::vector<BufferType> types;
      for (const std::size_t r : radix) types.push_back(cells[r]);
      if (sinks_see_even_inversions(tree, chosen, types)) {
        best = std::min(
            best, timing::evaluate_delay(tree, chosen, types, g).max_ps);
      }
      std::size_t d = 0;
      while (d < radix.size() && ++radix[d] == cells.size()) {
        radix[d++] = 0;
      }
      if (d == radix.size()) break;
    }
  }
  return best;
}

/// A random tree of `nodes` tiles grown from (0, 0): each step hangs a
/// free neighbour tile off a random node.  Every leaf holds a sink, and
/// about one inner node in four does too.
route::RouteTree random_tree(const tile::TileGraph& g, util::Rng& rng,
                             std::int64_t nodes) {
  route::RouteTree t(g.id_of({0, 0}));
  while (static_cast<std::int64_t>(t.node_count()) < nodes) {
    const auto v = static_cast<route::NodeId>(rng.uniform_int(
        0, static_cast<std::int64_t>(t.node_count()) - 1));
    geom::TileCoord c = g.coord_of(t.node(v).tile);
    const std::int64_t dir = rng.uniform_int(0, 3);
    c.x += dir == 0 ? 1 : dir == 1 ? -1 : 0;
    c.y += dir == 2 ? 1 : dir == 3 ? -1 : 0;
    if (!g.in_bounds(c) || t.contains(g.id_of(c))) continue;
    t.add_child(v, g.id_of(c));
  }
  for (std::size_t i = 0; i < t.node_count(); ++i) {
    const auto v = static_cast<route::NodeId>(i);
    if (t.node(v).children().empty() || rng.chance(0.25)) t.add_sink(v);
  }
  return t;
}

TEST(VanGinneken, OptimalOnRandomSmallTrees) {
  util::Rng rng(31);
  const tile::TileGraph g = make_graph(5, 5, 2500.0);
  const BufferLibrary full = BufferLibrary::standard_180nm();
  const BufferLibrary buffers = full.buffers_only();
  int solved = 0;
  int with_inverters = 0;
  while (solved < 60) {
    const route::RouteTree t = random_tree(g, rng, rng.uniform_int(3, 8));
    std::vector<bool> site(static_cast<std::size_t>(g.tile_count()));
    for (std::size_t i = 0; i < site.size(); ++i) site[i] = rng.chance(0.7);
    const TileAllowFn allow = [&](tile::TileId tl) {
      return site[static_cast<std::size_t>(tl)];
    };
    const std::size_t slots = repeater_slots(t, allow).size();
    for (const BufferLibrary* lib : {&buffers, &full}) {
      // Keep the enumeration, (cells + 1)^slots plans, near 1e5.
      if (std::pow(static_cast<double>(lib->size() + 1),
                   static_cast<double>(slots)) > 1.2e5) {
        continue;
      }
      const TimingDrivenResult r = van_ginneken(t, g, *lib, allow);
      const std::vector<BufferType> cells = cells_of(*lib, r.types);
      const double best = brute_force_delay(t, g, *lib, allow);
      EXPECT_NEAR(r.delay_ps, best, best * 1e-9) << "tree " << solved;
      EXPECT_NEAR(r.delay_ps,
                  timing::evaluate_delay(t, r.buffers, cells, g).max_ps,
                  1e-6);
      EXPECT_TRUE(sinks_see_even_inversions(t, r.buffers, cells));
      for (const route::BufferPlacement& b : r.buffers) {
        EXPECT_TRUE(allow(t.node(b.node).tile));
      }
      for (const BufferType& c : cells) {
        if (c.inverting) {
          ++with_inverters;
          break;
        }
      }
      ++solved;
    }
  }
  // The inverter half of the battery must exercise odd-parity lists.
  EXPECT_GT(with_inverters, 0);
}

TEST(VanGinneken, MatchesEvaluatorOnItsOwnSolution) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 12);
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  const timing::DelayResult check =
      timing::evaluate_delay(t, r.buffers, cells_of(lib, r.types), g);
  EXPECT_NEAR(r.delay_ps, check.max_ps, 1e-6);
}

TEST(VanGinneken, OptimalOnSmallChain) {
  const tile::TileGraph g = make_graph(8, 2, 2000.0);  // long tiles
  const route::RouteTree t = chain(g, 5);
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  const double brute = brute_force_delay(t, g, lib, kAllowAll);
  EXPECT_NEAR(r.delay_ps, brute, brute * 1e-9);
}

TEST(VanGinneken, OptimalOnSmallTreeUnitLibrary) {
  const tile::TileGraph g = make_graph(8, 8, 2000.0);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 2; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  route::NodeId up = t.add_child(cur, g.id_of({2, 1}));
  up = t.add_child(up, g.id_of({2, 2}));
  t.add_sink(up);
  route::NodeId right = t.add_child(cur, g.id_of({3, 0}));
  right = t.add_child(right, g.id_of({4, 0}));
  t.add_sink(right);
  const BufferLibrary lib;  // the unit cell alone
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  const double brute = brute_force_delay(t, g, lib, kAllowAll);
  EXPECT_NEAR(r.delay_ps, brute, brute * 1e-9);
}

TEST(VanGinneken, NeverWorseThanUnbuffered) {
  util::Rng rng(555);
  const tile::TileGraph g = make_graph(12, 12, 1500.0);
  for (int trial = 0; trial < 10; ++trial) {
    route::RouteTree t(g.id_of({0, 0}));
    // Random monotone tree.
    std::int32_t reach = static_cast<std::int32_t>(rng.uniform_int(4, 11));
    route::NodeId cur = t.root();
    for (std::int32_t x = 1; x <= reach; ++x)
      cur = t.add_child(cur, g.id_of({x, 0}));
    t.add_sink(cur);
    route::NodeId mid = t.node_at(
        g.id_of({static_cast<std::int32_t>(rng.uniform_int(1, reach)), 0}));
    route::NodeId b = mid;
    const std::int32_t rise = static_cast<std::int32_t>(rng.uniform_int(1, 6));
    const std::int32_t bx = g.coord_of(t.node(mid).tile).x;
    for (std::int32_t y = 1; y <= rise; ++y)
      b = t.add_child(b, g.id_of({bx, y}));
    t.add_sink(b);
    const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
    const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
    EXPECT_LE(r.delay_ps, timing::evaluate_delay(t, g).max_ps + 1e-9);
    // And the reported delay is self-consistent.
    EXPECT_NEAR(
        r.delay_ps,
        timing::evaluate_delay(t, r.buffers, cells_of(lib, r.types), g)
            .max_ps,
        1e-6);
  }
}

TEST(VanGinneken, RespectsBlockedTiles) {
  const tile::TileGraph g = make_graph();
  const route::RouteTree t = chain(g, 12);
  const TileAllowFn allow = [&](tile::TileId tl) {
    return g.coord_of(tl).x % 3 == 0;  // sparse site columns
  };
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, allow);
  for (const route::BufferPlacement& b : r.buffers) {
    EXPECT_EQ(g.coord_of(t.node(b.node).tile).x % 3, 0);
  }
  // Constrained optimum can't beat the unconstrained one.
  EXPECT_GE(r.delay_ps + 1e-9,
            van_ginneken(t, g, lib, kAllowAll).delay_ps);
}

TEST(VanGinneken, NoBuffersWhenTheyDoNotHelp) {
  // A tiny net: any buffer adds intrinsic delay for nothing.
  const tile::TileGraph g = make_graph(4, 1, 200.0);
  const route::RouteTree t = chain(g, 2);
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  EXPECT_TRUE(r.buffers.empty());
  EXPECT_NEAR(r.delay_ps, timing::evaluate_delay(t, g).max_ps, 1e-9);
}

TEST(VanGinneken, LongWireGetsRepeaters) {
  const tile::TileGraph g = make_graph(16, 1, 1500.0);  // 24 mm run
  const route::RouteTree t = chain(g, 15);
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  EXPECT_GE(r.buffers.size(), 2U);
  EXPECT_LT(r.delay_ps, timing::evaluate_delay(t, g).max_ps / 2.0);
}

TEST(VanGinneken, DecouplesHeavySideBranchForCriticalPath) {
  // Long critical run + a heavy side stub: the optimum isolates the stub.
  const tile::TileGraph g = make_graph(16, 8, 1200.0);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 14; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  route::NodeId stub = t.node_at(g.id_of({2, 0}));
  for (std::int32_t y = 1; y <= 6; ++y)
    stub = t.add_child(stub, g.id_of({2, y}));
  t.add_sink(stub);
  const BufferLibrary lib = BufferLibrary::standard_180nm().buffers_only();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  const timing::DelayResult d =
      timing::evaluate_delay(t, r.buffers, cells_of(lib, r.types), g);
  const timing::DelayResult plain = timing::evaluate_delay(t, g);
  EXPECT_LT(d.max_ps, plain.max_ps);
  EXPECT_FALSE(r.buffers.empty());
}


TEST(VanGinnekenInverters, NeverWorseThanBufferOnly) {
  const tile::TileGraph g = make_graph(16, 1, 1500.0);
  const route::RouteTree t = chain(g, 15);
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const TimingDrivenResult buf =
      van_ginneken(t, g, lib.buffers_only(), kAllowAll);
  const TimingDrivenResult inv = van_ginneken(t, g, lib, kAllowAll);
  EXPECT_LE(inv.delay_ps, buf.delay_ps + 1e-9);
  EXPECT_NEAR(
      inv.delay_ps,
      timing::evaluate_delay(t, inv.buffers, cells_of(lib, inv.types), g)
          .max_ps,
      1e-6);
}

TEST(VanGinnekenInverters, EverySinkSeesEvenInversionCount) {
  const tile::TileGraph g = make_graph(16, 8, 1400.0);
  // A tree: long trunk with two branches.
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 10; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  route::NodeId up = cur;
  for (std::int32_t y = 1; y <= 5; ++y) up = t.add_child(up, g.id_of({10, y}));
  t.add_sink(up);
  route::NodeId right = cur;
  for (std::int32_t x = 11; x <= 15; ++x)
    right = t.add_child(right, g.id_of({x, 0}));
  t.add_sink(right);

  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);

  EXPECT_TRUE(sinks_see_even_inversions(t, r.buffers, cells_of(lib, r.types)));
}

TEST(VanGinnekenInverters, OptimalOnSmallChainWithParity) {
  const tile::TileGraph g = make_graph(8, 1, 2500.0);
  const route::RouteTree t = chain(g, 5);
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);

  const double best = brute_force_delay(t, g, lib, kAllowAll);
  EXPECT_NEAR(r.delay_ps, best, best * 1e-9);
}

TEST(VanGinnekenInverters, UsesInvertersWhenProfitable) {
  // Our inverters have 0.6x the intrinsic delay: on a repeater-heavy
  // run the even-pair inverter chain should beat buffers.
  const tile::TileGraph g = make_graph(24, 1, 1500.0);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 23; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  const BufferLibrary lib = BufferLibrary::standard_180nm();
  const TimingDrivenResult r = van_ginneken(t, g, lib, kAllowAll);
  int inverters = 0;
  for (const std::int32_t ty : r.types) {
    if (lib.type(static_cast<std::size_t>(ty)).inverting) ++inverters;
  }
  EXPECT_GT(inverters, 0);
  EXPECT_EQ(inverters % 2, 0);
  EXPECT_LT(r.delay_ps,
            van_ginneken(t, g, lib.buffers_only(), kAllowAll).delay_ps);
}

}  // namespace
}  // namespace rabid::buffer
