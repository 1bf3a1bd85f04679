#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuits/random_circuit.hpp"
#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::route {
namespace {

/// A* with an admissible floor must find paths of exactly the same cost
/// as blind Dijkstra — only tie-breaking among equal-cost routes can
/// differ.  Jittering every edge cost by a seeded multiplicative factor
/// makes shortest paths (almost surely) unique, so the property tests
/// can demand full tree equality, not just equal totals.
std::vector<double> jittered_costs(const tile::TileGraph& g,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> cost(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    cost[static_cast<std::size_t>(e)] =
        soft_wire_cost(g, e) * rng.uniform(0.9, 1.1);
  }
  return cost;
}

double floor_of(const std::vector<double>& cost) {
  double lo = cost.front();
  for (const double c : cost) lo = std::min(lo, c);
  return lo;
}

double tree_cost(const tile::TileGraph& g, const RouteTree& tree,
                 const std::vector<double>& cost) {
  double total = 0.0;
  for (const RouteNode& n : tree.nodes()) {
    if (n.parent == kNoNode) continue;
    const tile::EdgeId e = g.edge_between(n.tile, tree.node(n.parent).tile);
    total += cost[static_cast<std::size_t>(e)];
  }
  return total;
}

bool same_arcs(const tile::TileGraph& g, const RouteTree& a,
               const RouteTree& b) {
  if (a.node_count() != b.node_count()) return false;
  std::vector<tile::EdgeId> ea;
  std::vector<tile::EdgeId> eb;
  for (const RouteNode& n : a.nodes()) {
    if (n.parent != kNoNode)
      ea.push_back(g.edge_between(n.tile, a.node(n.parent).tile));
  }
  for (const RouteNode& n : b.nodes()) {
    if (n.parent != kNoNode)
      eb.push_back(g.edge_between(n.tile, b.node(n.parent).tile));
  }
  std::sort(ea.begin(), ea.end());
  std::sort(eb.begin(), eb.end());
  return ea == eb;
}

TEST(AStarEquivalence, TreesMatchDijkstraOn100FuzzedCircuits) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const circuits::RandomCircuit circuit(seed);
    const netlist::Design design = circuit.design();
    tile::TileGraph graph = circuit.graph(design);
    const std::vector<double> cost = jittered_costs(graph, seed * 7919);
    const double floor = floor_of(cost);
    ASSERT_GT(floor, 0.0) << circuit.name();

    MazeRouter dijkstra(graph);
    MazeRouter astar(graph);
    for (std::size_t i = 0; i < design.nets().size(); ++i) {
      const netlist::Net& net = design.net(static_cast<netlist::NetId>(i));
      const RouteTree blind =
          dijkstra.route_net(net, /*alpha=*/0.4, cost, /*astar_floor=*/0.0);
      const RouteTree aimed =
          astar.route_net(net, /*alpha=*/0.4, cost, floor);
      const double blind_cost = tree_cost(graph, blind, cost);
      const double aimed_cost = tree_cost(graph, aimed, cost);
      EXPECT_NEAR(aimed_cost, blind_cost,
                  1e-9 * std::max(1.0, std::abs(blind_cost)))
          << circuit.name() << " net " << i;
      EXPECT_TRUE(same_arcs(graph, blind, aimed))
          << circuit.name() << " net " << i;
    }
  }
}

TEST(AStarEquivalence, ShortestPathCostMatchesAcrossHeuristics) {
  const circuits::RandomCircuit circuit(42);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  const std::vector<double> cost = jittered_costs(graph, 1234);
  const double floor = floor_of(cost);

  MazeRouter router(graph);
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto from = static_cast<tile::TileId>(
        rng.uniform_int(0, graph.tile_count() - 1));
    const auto to = static_cast<tile::TileId>(
        rng.uniform_int(0, graph.tile_count() - 1));
    if (from == to) continue;
    const auto blind = router.shortest_path(from, to, cost, 0.0);
    const auto aimed = router.shortest_path(from, to, cost, floor);
    auto path_cost = [&](const std::vector<tile::TileId>& p) {
      double total = 0.0;
      for (std::size_t k = 1; k < p.size(); ++k) {
        total += cost[static_cast<std::size_t>(
            graph.edge_between(p[k - 1], p[k]))];
      }
      return total;
    };
    EXPECT_NEAR(path_cost(aimed), path_cost(blind), 1e-12);
  }
}

/// Scratch reuse: the same router object must produce identical trees on
/// repeat calls (the stamped arrays fully reset between nets).
TEST(AStarEquivalence, RouterScratchReuseIsDeterministic) {
  const circuits::RandomCircuit circuit(7);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);
  const std::vector<double> cost = jittered_costs(graph, 7);
  const double floor = floor_of(cost);

  MazeRouter reused(graph);
  for (std::size_t i = 0; i < design.nets().size(); ++i) {
    const netlist::Net& net = design.net(static_cast<netlist::NetId>(i));
    const RouteTree first = reused.route_net(net, 0.4, cost, floor);
    const RouteTree again = reused.route_net(net, 0.4, cost, floor);
    MazeRouter fresh(graph);
    const RouteTree cold = fresh.route_net(net, 0.4, cost, floor);
    EXPECT_TRUE(same_arcs(graph, first, again)) << "net " << i;
    EXPECT_TRUE(same_arcs(graph, first, cold)) << "net " << i;
  }
}

/// The satellite-1 regression: shrink and widen W(e) mid-flow (exactly
/// what an ECO perturbation does), tell the cache via
/// on_capacity_change(), and demand A* over the cache's values and
/// floor still routes bit-for-bit like blind Dijkstra.  Without the
/// capacity-aware refresh the cached values go stale and the floor can
/// sit above the true min edge cost — an inadmissible heuristic that
/// silently returns non-optimal trees.
TEST(AStarEquivalence, CacheFloorStaysAdmissibleUnderMidFlowCapacityEdits) {
  const circuits::RandomCircuit circuit(23);
  const netlist::Design design = circuit.design();
  tile::TileGraph graph = circuit.graph(design);

  // Per-edge multiplicative jitter (fixed for the test's lifetime) makes
  // shortest paths almost surely unique, so tree equality is meaningful.
  util::Rng jitter_rng(23 * 7919);
  std::vector<double> jitter(static_cast<std::size_t>(graph.edge_count()));
  for (double& j : jitter) j = jitter_rng.uniform(0.9, 1.1);
  EdgeCostCache cache(graph, [&](tile::EdgeId e) {
    return soft_wire_cost(graph, e) * jitter[static_cast<std::size_t>(e)];
  });

  // Route and commit half the nets: a realistic mid-flow usage pattern.
  MazeRouter router(graph);
  for (std::size_t i = 0; i < design.nets().size(); i += 2) {
    RouteTree tree =
        router.route_net(design.net(static_cast<netlist::NetId>(i)), 0.4,
                         cache.values(), cache.min_cost());
    tree.commit(graph, 1);
    cache.refresh_tree(tree);
  }

  // ECO sweep: shrink some edges (cost rises, possibly into the
  // overflow tier), widen others far enough that their cost drops below
  // anything the cache has seen — the floor must chase it down.
  util::Rng eco_rng(4242);
  for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
    const int roll = eco_rng.uniform_int(0, 9);
    if (roll == 0) {
      graph.set_wire_capacity(
          e, std::max<std::int32_t>(1, graph.wire_capacity(e) - 3));
    } else if (roll == 1) {
      graph.set_wire_capacity(e, graph.wire_capacity(e) + 40);
    } else {
      continue;
    }
    cache.on_capacity_change(e);
  }

  // Every cached value is exact and the floor is a true lower bound.
  double exact_min = cache[0];
  for (tile::EdgeId e = 0; e < graph.edge_count(); ++e) {
    ASSERT_DOUBLE_EQ(
        cache[e],
        soft_wire_cost(graph, e) * jitter[static_cast<std::size_t>(e)])
        << "edge " << e;
    exact_min = std::min(exact_min, cache[e]);
  }
  ASSERT_LE(cache.min_cost(), exact_min);
  ASSERT_GT(cache.min_cost(), 0.0);

  // Bit-for-bit: A* with the cache floor == blind Dijkstra.
  MazeRouter dijkstra(graph);
  MazeRouter astar(graph);
  for (std::size_t i = 1; i < design.nets().size(); i += 2) {
    const netlist::Net& net = design.net(static_cast<netlist::NetId>(i));
    const RouteTree blind =
        dijkstra.route_net(net, 0.4, cache.values(), /*astar_floor=*/0.0);
    const RouteTree aimed =
        astar.route_net(net, 0.4, cache.values(), cache.min_cost());
    const std::vector<double> values(cache.values().begin(),
                                     cache.values().end());
    EXPECT_NEAR(tree_cost(graph, aimed, values),
                tree_cost(graph, blind, values),
                1e-9 * std::max(1.0, tree_cost(graph, blind, values)))
        << "net " << i;
    EXPECT_TRUE(same_arcs(graph, blind, aimed)) << "net " << i;
  }
}

}  // namespace
}  // namespace rabid::route
