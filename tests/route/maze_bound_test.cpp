// The bounded wavefront in MazeRouter::grow() must return exactly the
// tree the unbounded search returns: same target per pass, same parent
// for every path tile, same node order.  The reference below is a copy
// of the unbounded grow loop (same A* floor, same (key, tile) heap
// order), kept here so the router can keep changing while this test
// pins the trees it must produce.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "obs/counters.hpp"
#include "route/maze.hpp"
#include "util/dheap.hpp"

namespace rabid::route {
namespace {

struct RefEntry {
  double key;
  double dist;
  tile::TileId tile;
  bool operator>(const RefEntry& o) const {
    if (key != o.key) return key > o.key;
    return tile > o.tile;
  }
};

struct RefResult {
  RouteTree tree;
  std::uint64_t pops = 0;
};

/// The unbounded wavefront: every tile reachable for less than the
/// target's label is settled before the target pops.  `region`, when
/// given, confines the search like MazeRouter::confine().
RefResult reference_grow(const tile::TileGraph& g, tile::TileId source,
                         std::span<const tile::TileId> sinks, double alpha,
                         std::span<const double> cost, double astar_floor,
                         const tile::TileSpan* region = nullptr) {
  struct Label {
    double dist = 0.0;
    tile::TileId prev = tile::kNoTile;
    std::uint32_t stamp = 0;
  };
  std::vector<Label> labels(static_cast<std::size_t>(g.tile_count()));
  std::uint32_t epoch = 0;
  const auto inside = [&](tile::TileId t) {
    return region == nullptr || region->contains(g.coord_of(t));
  };

  RefResult out{RouteTree(source), 0};
  RouteTree& tree = out.tree;
  std::vector<tile::TileId> remaining(sinks.begin(), sinks.end());
  std::sort(remaining.begin(), remaining.end());
  remaining.erase(std::unique(remaining.begin(), remaining.end()),
                  remaining.end());
  std::erase(remaining, source);
  std::vector<double> path_cost(1, 0.0);
  util::DaryHeap<RefEntry> heap;
  const bool use_h = astar_floor > 0.0;

  while (!remaining.empty()) {
    ++epoch;
    heap.clear();
    const auto h_of = [&](tile::TileId t) -> double {
      if (!use_h) return 0.0;
      std::int32_t best = std::numeric_limits<std::int32_t>::max();
      for (const tile::TileId r : remaining)
        best = std::min(best, geom::manhattan(g.coord_of(t), g.coord_of(r)));
      return astar_floor * static_cast<double>(best);
    };
    const auto is_target = [&](tile::TileId t) {
      return std::find(remaining.begin(), remaining.end(), t) !=
             remaining.end();
    };
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const tile::TileId t = tree.node(static_cast<NodeId>(i)).tile;
      const double d = alpha * path_cost[i];
      labels[static_cast<std::size_t>(t)] = {d, tile::kNoTile, epoch};
      heap.push({d + h_of(t), d, t});
    }
    tile::TileId reached = tile::kNoTile;
    while (!heap.empty()) {
      const RefEntry top = heap.pop();
      ++out.pops;
      if (top.dist > labels[static_cast<std::size_t>(top.tile)].dist) continue;
      if (is_target(top.tile)) {
        reached = top.tile;
        break;
      }
      const tile::TileGraph::Adjacency* adj = g.adjacency(top.tile);
      for (int k = 0; k < g.adj_count(top.tile); ++k) {
        const tile::TileId nbr = adj[k].tile;
        if (!inside(nbr)) continue;
        const double nd =
            top.dist + cost[static_cast<std::size_t>(adj[k].edge)];
        Label& nl = labels[static_cast<std::size_t>(nbr)];
        if (nl.stamp != epoch || nd < nl.dist) {
          nl = {nd, top.tile, epoch};
          heap.push({nd + h_of(nbr), nd, nbr});
        }
      }
    }
    EXPECT_NE(reached, tile::kNoTile);
    if (reached == tile::kNoTile) return out;

    std::vector<tile::TileId> path;
    for (tile::TileId t = reached; t != tile::kNoTile;
         t = labels[static_cast<std::size_t>(t)].prev) {
      path.push_back(t);
      if (tree.contains(t) && t != reached) break;
    }
    std::reverse(path.begin(), path.end());
    NodeId anchor = tree.node_at(path.front());
    double pc = path_cost[static_cast<std::size_t>(anchor)];
    for (std::size_t i = 1; i < path.size(); ++i) {
      pc += cost[static_cast<std::size_t>(g.edge_between(path[i - 1], path[i]))];
      const NodeId existing = tree.node_at(path[i]);
      if (existing != kNoNode) {
        anchor = existing;
        pc = path_cost[static_cast<std::size_t>(existing)];
        continue;
      }
      anchor = tree.add_child(anchor, path[i]);
      path_cost.push_back(pc);
    }
    std::erase_if(remaining, [&](tile::TileId t) { return tree.contains(t); });
  }
  for (const tile::TileId t : sinks) tree.add_sink(tree.node_at(t));
  return out;
}

/// Node-for-node equality, node order and sink counts included.
::testing::AssertionResult same_tree(const RouteTree& want,
                                     const RouteTree& got) {
  if (want.node_count() != got.node_count()) {
    return ::testing::AssertionFailure()
           << "node count " << got.node_count() << ", want "
           << want.node_count();
  }
  for (std::size_t i = 0; i < want.node_count(); ++i) {
    const RouteNode& a = want.nodes()[i];
    const RouteNode& b = got.nodes()[i];
    if (a.tile != b.tile || a.parent != b.parent ||
        a.sink_count != b.sink_count) {
      return ::testing::AssertionFailure()
             << "node " << i << ": tile " << b.tile << " parent " << b.parent
             << " sinks " << b.sink_count << ", want tile " << a.tile
             << " parent " << a.parent << " sinks " << a.sink_count;
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> soft_costs(const tile::TileGraph& g) {
  std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    cost[static_cast<std::size_t>(e)] = soft_wire_cost(g, e);
  }
  return cost;
}

double min_of(const std::vector<double>& cost) {
  return *std::min_element(cost.begin(), cost.end());
}

/// Fills edge `e` to capacity plus `extra` wires: cost 1e7 * (extra + 1).
void fill(tile::TileGraph& g, tile::EdgeId e, std::int32_t extra = 0) {
  while (g.wire_usage(e) < g.wire_capacity(e) + extra) g.add_wire(e);
}

/// Fills every edge of `t` except the one towards `keep` (if any).
void wall(tile::TileGraph& g, tile::TileId t,
          tile::TileId keep = tile::kNoTile) {
  const tile::TileGraph::Adjacency* adj = g.adjacency(t);
  for (int k = 0; k < g.adj_count(t); ++k) {
    if (adj[k].tile != keep) fill(g, adj[k].edge);
  }
}

/// Checks the router against the reference at A* floor and at floor 0
/// (plain Dijkstra), for two PD alphas.
void expect_matches_reference(MazeRouter& router, const tile::TileGraph& g,
                              tile::TileId source,
                              const std::vector<tile::TileId>& sinks,
                              const std::vector<double>& cost,
                              const tile::TileSpan* region = nullptr) {
  for (const double floor : {min_of(cost), 0.0}) {
    for (const double alpha : {0.0, 0.4}) {
      const RefResult want =
          reference_grow(g, source, sinks, alpha, cost, floor, region);
      const RouteTree got = router.grow(source, sinks, alpha, cost, floor);
      EXPECT_TRUE(same_tree(want.tree, got))
          << "floor " << floor << " alpha " << alpha;
    }
  }
}

tile::TileGraph grid(std::int32_t n, std::int32_t cap = 2) {
  tile::TileGraph g(geom::Rect{{0, 0}, {100.0 * n, 100.0 * n}}, n, n);
  g.set_uniform_wire_capacity(cap);
  return g;
}

TEST(MazeBound, SinkWithAllFourEdgesFull) {
  tile::TileGraph g = grid(16);
  const tile::TileId sink = g.id_of({9, 7});
  wall(g, sink);
  MazeRouter router(g);
  expect_matches_reference(router, g, g.id_of({2, 3}), {sink}, soft_costs(g));
  // A second, soft sink: the walled one is reached from the tree later.
  expect_matches_reference(router, g, g.id_of({2, 3}),
                           {sink, g.id_of({12, 12}), sink}, soft_costs(g));
}

TEST(MazeBound, SinkWithThreeOfFourEdgesFull) {
  tile::TileGraph g = grid(16);
  const tile::TileId sink = g.id_of({9, 7});
  // The one soft edge faces away from the source: a detour beats 1e7.
  wall(g, sink, g.id_of({10, 7}));
  MazeRouter router(g);
  expect_matches_reference(router, g, g.id_of({2, 7}), {sink}, soft_costs(g));
  expect_matches_reference(router, g, g.id_of({2, 7}),
                           {sink, g.id_of({9, 2})}, soft_costs(g));
}

TEST(MazeBound, OneHopSinkBehindAFullEdge) {
  tile::TileGraph g = grid(16);
  const tile::TileId source = g.id_of({6, 6});
  const tile::TileId sink = g.id_of({7, 6});
  fill(g, g.edge_between(source, sink));
  MazeRouter router(g);
  expect_matches_reference(router, g, source, {sink}, soft_costs(g));
  // The same hop with every other edge of the sink full too.
  wall(g, sink);
  expect_matches_reference(router, g, source, {sink, g.id_of({1, 14})},
                           soft_costs(g));
}

TEST(MazeBound, MixedOverflowTiersOnEntryEdges) {
  tile::TileGraph g = grid(16);
  const tile::TileId a = g.id_of({10, 10});
  const tile::TileId b = g.id_of({4, 11});
  // Sink a: two 1e7 edges, two 2e7 edges; sink b: all 2e7 but one 1e7
  // edge on the far side.
  const tile::TileGraph::Adjacency* adj = g.adjacency(a);
  for (int k = 0; k < g.adj_count(a); ++k) fill(g, adj[k].edge, k % 2);
  adj = g.adjacency(b);
  for (int k = 0; k < g.adj_count(b); ++k) {
    fill(g, adj[k].edge, adj[k].tile == g.id_of({3, 11}) ? 0 : 1);
  }
  MazeRouter router(g);
  const std::vector<double> cost = soft_costs(g);
  expect_matches_reference(router, g, g.id_of({5, 3}), {a}, cost);
  expect_matches_reference(router, g, g.id_of({5, 3}), {b}, cost);
  expect_matches_reference(router, g, g.id_of({5, 3}), {a, b}, cost);
  expect_matches_reference(router, g, g.id_of({12, 10}), {b, a}, cost);
}

/// Before the bound, this search settled all 1024 tiles before popping
/// the sink; the bound stops it a few tiles past the source.
TEST(MazeBound, WalledSinkDoesNotFloodTheGrid) {
  tile::TileGraph g = grid(32);
  const tile::TileId source = g.id_of({10, 16});
  const tile::TileId sink = g.id_of({13, 16});
  wall(g, sink);
  const std::vector<double> cost = soft_costs(g);
  const double floor = min_of(cost);

  const RefResult flood = reference_grow(g, source, {&sink, 1}, 0.4, cost,
                                         floor);
  EXPECT_GE(flood.pops, 1000u);

  obs::Registry& registry = obs::Registry::instance();
  registry.set_level(obs::Level::kCounters);
  registry.reset();
  MazeRouter router(g);
  const RouteTree got = router.grow(source, {&sink, 1}, 0.4, cost, floor);
  const obs::Snapshot snap = registry.snapshot();
  registry.set_level(obs::Level::kOff);
  registry.reset();

  EXPECT_TRUE(same_tree(flood.tree, got));
  EXPECT_LE(snap[obs::Counter::kMazeHeapPops], 64u);
  EXPECT_GT(snap[obs::Counter::kMazeBoundPops], 0u);
  EXPECT_LE(snap[obs::Counter::kMazeBoundPops],
            snap[obs::Counter::kMazeHeapPops] -
                snap[obs::Counter::kMazeStalePops]);
}

/// Random circuits whose capacities are cut until at least 10% of the
/// edges are full, priced with the unjittered eq. (1) cost so that
/// equal-cost ties are common.  `confine` clips each search to the
/// net's bounding box grown by two tiles.
void run_squeezed_circuits(bool confine) {
  std::uint64_t walled_sinks = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const circuits::RandomCircuit circuit(seed);
    const netlist::Design design = circuit.design();
    tile::TileGraph g = circuit.graph(design);

    // Realistic usage first: one soft route per net, committed.
    MazeRouter router(g);
    for (const netlist::Net& net : design.nets()) {
      const std::vector<double> cost = soft_costs(g);
      router.route_net(net, 0.4, cost, min_of(cost)).commit(g, net.width);
    }
    const auto full_share = [&] {
      std::int32_t full = 0;
      for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
        if (g.wire_usage(e) >= g.wire_capacity(e)) ++full;
      }
      return static_cast<double>(full) / static_cast<double>(g.edge_count());
    };
    while (full_share() < 0.1) {
      for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
        g.set_wire_capacity(e, g.wire_capacity(e) * 3 / 4);
      }
    }
    const std::vector<double> cost = soft_costs(g);

    for (const netlist::Net& net : design.nets()) {
      const tile::TileId source = g.tile_at(net.source.location);
      std::vector<tile::TileId> sinks;
      tile::TileSpan box{g.coord_of(source).x, g.coord_of(source).y,
                         g.coord_of(source).x, g.coord_of(source).y};
      for (const netlist::Pin& p : net.sinks) {
        sinks.push_back(g.tile_at(p.location));
        const geom::TileCoord c = g.coord_of(sinks.back());
        box.x0 = std::min(box.x0, c.x);
        box.y0 = std::min(box.y0, c.y);
        box.x1 = std::max(box.x1, c.x);
        box.y1 = std::max(box.y1, c.y);
        const tile::TileGraph::Adjacency* adj = g.adjacency(sinks.back());
        bool walled = true;
        for (int k = 0; k < g.adj_count(sinks.back()); ++k) {
          walled = walled && cost[static_cast<std::size_t>(adj[k].edge)] >=
                                 kOverflowPenalty;
        }
        if (walled) ++walled_sinks;
      }
      if (confine) {
        box = {std::max(0, box.x0 - 2), std::max(0, box.y0 - 2),
               std::min(g.nx() - 1, box.x1 + 2),
               std::min(g.ny() - 1, box.y1 + 2)};
        router.confine(box);
        expect_matches_reference(router, g, source, sinks, cost, &box);
      } else {
        router.unconfine();
        expect_matches_reference(router, g, source, sinks, cost);
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << circuit.name() << " net " << net.name;
      }
    }
  }
  // The squeeze must actually produce sinks behind full edges.
  EXPECT_GT(walled_sinks, 0u);
}

TEST(MazeBound, SqueezedRandomCircuitsMatchUnboundedSearch) {
  run_squeezed_circuits(/*confine=*/false);
}

TEST(MazeBound, ConfinedSearchesMatchUnboundedSearch) {
  run_squeezed_circuits(/*confine=*/true);
}

}  // namespace
}  // namespace rabid::route
