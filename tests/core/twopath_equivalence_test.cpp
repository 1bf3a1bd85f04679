#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "core/twopath.hpp"
#include "eco/incremental.hpp"
#include "obs/counters.hpp"
#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// The (tile x L) search without dominance pruning, field reuse or
/// deferred keys: every label is expanded and every search builds its own
/// goal-rooted field, aimed at the source and read at each improving
/// relaxation (an eager key, where the engine under test may defer it).
/// Keys, the strict (key, state id) order and the field's (key, tile)
/// order are those of TwoPathSearch, so a lossless engine must return
/// bit-identical routes.
class ReferenceSearch {
 public:
  explicit ReferenceSearch(const tile::TileGraph& g) : g_(g) {}

  TwoPathRoute route(tile::TileId from, tile::TileId to, std::int32_t L,
                     std::span<const double> wire,
                     std::span<const double> site, double ww,
                     double floor) {
    const auto n = static_cast<std::size_t>(g_.tile_count());
    const std::uint32_t shift =
        L <= 1 ? 0U : std::bit_width(static_cast<std::uint32_t>(L - 1));
    const std::size_t jmask = (std::size_t{1} << shift) - 1;
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(n << shift, inf);
    std::vector<std::int64_t> prev(n << shift, -2);

    // Field: (key, d, tile) ordered by (key, tile).
    using FieldEntry = std::tuple<double, double, tile::TileId>;
    const auto field_after = [](const FieldEntry& a, const FieldEntry& b) {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) > std::get<0>(b);
      }
      return std::get<2>(a) > std::get<2>(b);
    };
    std::priority_queue<FieldEntry, std::vector<FieldEntry>,
                        decltype(field_after)>
        field_heap(field_after);
    std::vector<double> fdist(n, inf);
    std::vector<std::uint8_t> settled(n, 0);
    const geom::TileCoord hot = g_.coord_of(from);
    const auto bound = [&](tile::TileId t) {
      return floor * static_cast<double>(geom::manhattan(g_.coord_of(t), hot));
    };
    const bool use_h = floor > 0.0;
    if (use_h) {
      fdist[static_cast<std::size_t>(to)] = 0.0;
      field_heap.push({bound(to), 0.0, to});
    }
    const auto h_of = [&](tile::TileId t) -> double {
      if (!use_h) return 0.0;
      const auto ti = static_cast<std::size_t>(t);
      while (!settled[ti]) {
        const auto [key, d, u] = field_heap.top();
        field_heap.pop();
        const auto ui = static_cast<std::size_t>(u);
        if (settled[ui]) continue;
        settled[ui] = 1;
        const tile::TileGraph::Adjacency* adj = g_.adjacency(u);
        for (int k = 0; k < g_.adj_count(u); ++k) {
          const double nd = d + wire[static_cast<std::size_t>(adj[k].edge)];
          const auto vi = static_cast<std::size_t>(adj[k].tile);
          if (nd < fdist[vi]) {
            fdist[vi] = nd;
            field_heap.push({nd + bound(adj[k].tile), nd, adj[k].tile});
          }
        }
      }
      return ww * fdist[ti];
    };

    // Forward: (key, d, state) ordered by (key, state).
    using Entry = std::tuple<double, double, std::size_t>;
    const auto after = [](const Entry& a, const Entry& b) {
      if (std::get<0>(a) != std::get<0>(b)) {
        return std::get<0>(a) > std::get<0>(b);
      }
      return std::get<2>(a) > std::get<2>(b);
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(after)> heap(
        after);
    const auto state_of = [&](tile::TileId t, std::int32_t j) {
      return (static_cast<std::size_t>(t) << shift) |
             static_cast<std::size_t>(j);
    };
    const auto relax = [&](std::size_t s, double d, std::size_t parent,
                           tile::TileId t) {
      if (d < dist[s]) {
        dist[s] = d;
        prev[s] = static_cast<std::int64_t>(parent);
        heap.push({d + h_of(t), d, s});
      }
    };
    const std::size_t start = state_of(from, 0);
    dist[start] = 0.0;
    prev[start] = -1;
    heap.push({h_of(from), 0.0, start});
    std::size_t goal = static_cast<std::size_t>(-1);
    while (!heap.empty()) {
      const auto [key, d, s] = heap.top();
      heap.pop();
      if (d > dist[s]) continue;
      const auto t = static_cast<tile::TileId>(s >> shift);
      const auto j = static_cast<std::int32_t>(s & jmask);
      if (t == to) {
        goal = s;
        break;
      }
      if (j > 0) {
        const double q = site[static_cast<std::size_t>(t)];
        if (std::isfinite(q)) relax(state_of(t, 0), d + q, s, t);
      }
      if (j + 1 < L) {
        const tile::TileGraph::Adjacency* adj = g_.adjacency(t);
        for (int k = 0; k < g_.adj_count(t); ++k) {
          relax(state_of(adj[k].tile, j + 1),
                d + ww * wire[static_cast<std::size_t>(adj[k].edge)], s,
                adj[k].tile);
        }
      }
    }
    TwoPathRoute out;
    if (goal == static_cast<std::size_t>(-1)) {
      route::MazeRouter fallback(g_);
      out.tiles = fallback.shortest_path(from, to, wire, floor);
      out.cost = inf;
      return out;
    }
    out.cost = dist[goal];
    tile::TileId last = tile::kNoTile;
    for (std::int64_t s = static_cast<std::int64_t>(goal); s >= 0;
         s = prev[static_cast<std::size_t>(s)]) {
      const auto t = static_cast<tile::TileId>(static_cast<std::size_t>(s) >>
                                               shift);
      if (t != last) out.tiles.insert(out.tiles.begin(), t);
      last = t;
    }
    return out;
  }

 private:
  const tile::TileGraph& g_;
};

/// A plain tree editor, the reference for TileTreeEditor and
/// TwoPathRerouter: per-tile arc lists in insertion order, and a
/// rebuild() that materializes the whole BFS tree, prunes non-sink
/// leaves on a keep-set and reassembles the survivors as a new tree.
class ReferenceEditor {
 public:
  ReferenceEditor(const route::RouteTree& tree, const tile::TileGraph& g)
      : adj_(static_cast<std::size_t>(g.tile_count())),
        sinks_(static_cast<std::size_t>(g.tile_count()), 0),
        source_(tree.node(tree.root()).tile) {
    for (const route::RouteNode& n : tree.nodes()) {
      if (n.parent != route::kNoNode) add_arc(n.tile, tree.node(n.parent).tile);
      sinks_[static_cast<std::size_t>(n.tile)] += n.sink_count;
    }
  }

  void remove_path(tile::TileId head, std::span<const tile::TileId> interior,
                   tile::TileId tail) {
    tile::TileId prev = head;
    for (const tile::TileId t : interior) {
      remove_arc(prev, t);
      prev = t;
    }
    remove_arc(prev, tail);
  }

  void add_path(std::span<const tile::TileId> tiles) {
    for (std::size_t i = 1; i < tiles.size(); ++i) {
      add_arc(tiles[i - 1], tiles[i]);
    }
  }

  route::RouteTree rebuild() const {
    route::RouteTree tree(source_);
    std::queue<tile::TileId> frontier;
    frontier.push(source_);
    while (!frontier.empty()) {
      const tile::TileId u = frontier.front();
      frontier.pop();
      const route::NodeId un = tree.node_at(u);
      for (const tile::TileId v : adj_[static_cast<std::size_t>(u)]) {
        if (tree.contains(v)) continue;
        tree.add_child(un, v);
        frontier.push(v);
      }
    }
    const std::size_t n = tree.node_count();
    std::vector<std::int32_t> sinks_at(n, 0);
    std::vector<std::int32_t> live_children(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const route::RouteNode& node = tree.node(static_cast<route::NodeId>(i));
      sinks_at[i] = sinks_[static_cast<std::size_t>(node.tile)];
      live_children[i] = node.child_count;
    }
    std::vector<bool> kept(n, false);
    for (std::size_t i = n; i-- > 0;) {
      kept[i] = sinks_at[i] > 0 || live_children[i] > 0 || i == 0;
      if (!kept[i]) {
        const route::NodeId p = tree.node(static_cast<route::NodeId>(i)).parent;
        --live_children[static_cast<std::size_t>(p)];
      }
    }
    route::RouteTree pruned(source_);
    std::vector<route::NodeId> remap(n, route::kNoNode);
    remap[0] = pruned.root();
    for (std::size_t i = 1; i < n; ++i) {
      if (!kept[i]) continue;
      const route::RouteNode& node = tree.node(static_cast<route::NodeId>(i));
      remap[i] = pruned.add_child(remap[static_cast<std::size_t>(node.parent)],
                                  node.tile);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::int32_t k = 0; k < sinks_at[i]; ++k) pruned.add_sink(remap[i]);
    }
    return pruned;
  }

 private:
  void add_arc(tile::TileId a, tile::TileId b) {
    std::vector<tile::TileId>& na = adj_[static_cast<std::size_t>(a)];
    if (std::find(na.begin(), na.end(), b) != na.end()) return;
    na.push_back(b);
    adj_[static_cast<std::size_t>(b)].push_back(a);
  }
  void remove_arc(tile::TileId a, tile::TileId b) {
    std::vector<tile::TileId>& na = adj_[static_cast<std::size_t>(a)];
    const auto it = std::find(na.begin(), na.end(), b);
    if (it == na.end()) return;
    na.erase(it);
    std::vector<tile::TileId>& nb = adj_[static_cast<std::size_t>(b)];
    nb.erase(std::find(nb.begin(), nb.end(), a));
  }

  std::vector<std::vector<tile::TileId>> adj_;
  std::vector<std::int32_t> sinks_;
  tile::TileId source_;
};

bool same_tree(const route::RouteTree& a, const route::RouteTree& b) {
  if (a.node_count() != b.node_count()) return false;
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const route::RouteNode& x = a.node(static_cast<route::NodeId>(i));
    const route::RouteNode& y = b.node(static_cast<route::NodeId>(i));
    if (x.tile != y.tile || x.parent != y.parent ||
        x.sink_count != y.sink_count) {
      return false;
    }
  }
  return true;
}

/// Per-call tallies of one differential run.
struct Tally {
  std::int64_t searches = 0;
  std::int64_t same_goal = 0;  ///< searches whose goal the previous had
  std::int64_t nets = 0;
};

/// Replays stage 4 over a stage-3 solution.  Every two-path search runs
/// three times: the unpruned reference, a fresh route_two_path(), and
/// one TwoPathSearch shared across all nets and keeping its field within
/// a net.  The rip loop is the per-rip rebuild() + two_paths() loop on a
/// fresh ReferenceEditor per net, mirrored on one shared TileTreeEditor
/// whose flat tree and next two-path must match it rip for rip; each
/// net's outcome is also checked against one TwoPathRerouter shared
/// across all nets.  Net wires move as in stage 4
/// (ripped, rerouted, recommitted), so the costs change between nets.
/// A non-empty `only` replays just those nets, in that order (an ECO
/// polish pass); the rest keep their routes.
void replay_stage4(const std::string& name, const netlist::Design& design,
                   tile::TileGraph& graph, std::vector<NetState> nets,
                   bool astar, Tally* tally,
                   std::vector<std::size_t> only = {}) {
  route::EdgeCostCache cache(graph, [&](tile::EdgeId e) {
    return route::soft_wire_cost(graph, e);
  });
  cache.refresh_all();
  std::vector<double> site(static_cast<std::size_t>(graph.tile_count()));
  for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
    site[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
  }
  ReferenceSearch reference(graph);
  TwoPathSearch shared(graph);
  TileTreeEditor shared_editor(graph);
  TwoPathRerouter rerouter(graph);

  if (only.empty()) {
    only.resize(nets.size());
    std::iota(only.begin(), only.end(), std::size_t{0});
  }
  for (const std::size_t i : only) {
    NetState& st = nets[i];
    if (st.tree.empty()) continue;
    const auto id = static_cast<netlist::NetId>(i);
    const std::int32_t L = design.length_limit(id);
    const std::int32_t width = design.net(id).width;
    for (const route::BufferPlacement& b : st.buffers) {
      const tile::TileId t = st.tree.node(b.node).tile;
      graph.remove_buffer(t);
      site[static_cast<std::size_t>(t)] = graph.buffer_cost(t, 0.0);
    }
    st.buffers.clear();
    st.tree.uncommit(graph, width);
    cache.refresh_tree(st.tree);
    const std::span<const double> wire = cache.values();
    const double floor = astar ? cache.min_cost() : 0.0;
    ++tally->nets;

    ReferenceEditor editor(st.tree, graph);
    shared_editor.reset(st.tree);
    shared.drop_field();
    route::RouteTree current = editor.rebuild();
    ASSERT_TRUE(same_tree(shared_editor.rebuild(), current))
        << name << " net " << i << ": reset editor differs at start";
    std::vector<std::pair<tile::TileId, tile::TileId>> processed;
    const std::size_t max_rips = 3 * current.two_paths().size() + 4;
    ASSERT_EQ(shared_editor.two_path_count(), current.two_paths().size())
        << name << " net " << i;
    std::vector<tile::TileId> flat_interior;
    tile::TileId last_goal = tile::kNoTile;
    for (std::size_t rip = 0; rip < max_rips; ++rip) {
      const auto paths = current.two_paths();
      const route::RouteTree::TwoPath* next = nullptr;
      std::pair<tile::TileId, tile::TileId> key;
      for (const auto& tp : paths) {
        key = {current.node(tp.head).tile, current.node(tp.tail).tile};
        if (std::find(processed.begin(), processed.end(), key) ==
            processed.end()) {
          next = &tp;
          break;
        }
      }
      const auto flat_key =
          shared_editor.first_two_path(processed, flat_interior);
      if (next == nullptr) {
        ASSERT_EQ(flat_key.first, tile::kNoTile) << name << " net " << i;
        break;
      }
      processed.push_back(key);
      std::vector<tile::TileId> interior;
      for (const route::NodeId n : next->interior) {
        interior.push_back(current.node(n).tile);
      }
      ASSERT_EQ(flat_key, key) << name << " net " << i << " rip " << rip;
      ASSERT_EQ(flat_interior, interior)
          << name << " net " << i << " rip " << rip;
      editor.remove_path(key.first, interior, key.second);
      shared_editor.remove_path(key.first, interior, key.second);

      const auto [from, to] = std::pair{key.second, key.first};
      const TwoPathRoute want =
          reference.route(from, to, L, wire, site, 1.0, floor);
      const TwoPathRoute fresh =
          route_two_path(graph, from, to, L, wire, site, 1.0, floor);
      const TwoPathRoute kept = shared.route_keeping_field(
          from, to, L, wire, site, 1.0, floor);
      ++tally->searches;
      if (to == last_goal) ++tally->same_goal;
      last_goal = to;
      const std::string where = name + " net " + std::to_string(i) +
                                " rip " + std::to_string(rip);
      ASSERT_EQ(fresh.tiles, want.tiles) << where << " (fresh search)";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fresh.cost),
                std::bit_cast<std::uint64_t>(want.cost))
          << where << " (fresh search)";
      ASSERT_EQ(kept.tiles, want.tiles) << where << " (kept field)";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(kept.cost),
                std::bit_cast<std::uint64_t>(want.cost))
          << where << " (kept field)";

      editor.add_path(want.tiles);
      shared_editor.add_path(want.tiles);
      current = editor.rebuild();
      ASSERT_TRUE(same_tree(shared_editor.rebuild(), current))
          << where << " (reused editor)";
    }
    ASSERT_TRUE(same_tree(rerouter.reroute(st.tree, L, wire, site, 1.0,
                                           floor),
                          current))
        << name << " net " << i << " (rerouter)";
    st.tree = std::move(current);
    st.tree.commit(graph, width);
    cache.refresh_tree(st.tree);
  }
}

class TwoPathEquivalenceTableOne
    : public ::testing::TestWithParam<std::string_view> {};

TEST_P(TwoPathEquivalenceTableOne, SharedEngineMatchesReferenceAfterStage3) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(GetParam());
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  Rabid rabid(design, graph, RabidOptions{});
  rabid.run_stage1();
  rabid.run_stage2();
  rabid.run_stage3();
  Tally tally;
  replay_stage4(std::string(GetParam()), design, graph, rabid.nets(),
                /*astar=*/true, &tally);
  EXPECT_GT(tally.searches, 0);
  // The kept field must actually be exercised, not just tolerated.
  EXPECT_GT(tally.same_goal, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(TableOne, TwoPathEquivalenceTableOne,
                         ::testing::Values("apte", "xerox", "hp", "ami33",
                                           "ami49", "playout", "ac3", "xc5",
                                           "hc7", "a9c3"));

class TwoPathEquivalenceRandom
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoPathEquivalenceRandom, SharedEngineMatchesReferenceAfterStage3) {
  // Both search modes: with the heuristic field, and plain Dijkstra
  // (floor 0, the --dijkstra configuration), where pruning acts alone.
  for (const bool astar : {true, false}) {
    const circuits::RandomCircuit rc(GetParam());
    const netlist::Design design = rc.design();
    tile::TileGraph graph = rc.graph(design);
    Rabid rabid(design, graph, RabidOptions{});
    rabid.run_stage1();
    rabid.run_stage2();
    rabid.run_stage3();
    Tally tally;
    replay_stage4(rc.name(), design, graph, rabid.nets(), astar, &tally);
    EXPECT_EQ(tally.nets, static_cast<std::int64_t>(design.nets().size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoPathEquivalenceRandom,
                         ::testing::Range<std::uint64_t>(1, 25));

/// The obs counters accumulated since construction; restores the
/// registry's level on exit.  Every engine in a replay feeds them.
class CounterScope {
 public:
  CounterScope() : saved_(obs::Registry::instance().level()) {
    obs::Registry::instance().set_level(obs::Level::kCounters);
    start_ = obs::Registry::instance().snapshot();
  }
  ~CounterScope() { obs::Registry::instance().set_level(saved_); }
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

  std::uint64_t operator[](obs::Counter c) const {
    return obs::Registry::instance().snapshot()[c] - start_[c];
  }

 private:
  obs::Level saved_;
  obs::Snapshot start_;
};

/// Every branch of the deferred-key path ran: pushes keyed by a bound,
/// deferred entries dropped stale, and deferred entries resolved.
void expect_deferral_exercised(const CounterScope& counters) {
  EXPECT_GT(counters[obs::Counter::kTwoPathKeysDeferred], 0u);
  EXPECT_GT(counters[obs::Counter::kTwoPathKeysDropped], 0u);
  EXPECT_GT(counters[obs::Counter::kTwoPathKeysResolved], 0u);
}

/// 96x96-tile random circuits.  On the Table-I grids the field soon
/// covers the whole search, so keys are rarely deferred; here two-paths
/// run long and the forward frontier keeps reaching unsettled tiles.
circuits::RandomCircuitOptions large_grid() {
  circuits::RandomCircuitOptions o;
  o.min_grid = 96;
  o.max_grid = 96;
  o.min_nets = 24;
  o.max_nets = 24;
  o.min_length_limit = 6;
  o.max_length_limit = 12;
  return o;
}

TEST(TwoPathEquivalenceLarge, DeferredKeysKeepEveryRouteAfterStage3) {
  const circuits::RandomCircuit rc(7, large_grid());
  const netlist::Design design = rc.design();
  tile::TileGraph graph = rc.graph(design);
  Rabid rabid(design, graph, RabidOptions{});
  rabid.run_stage1();
  rabid.run_stage2();
  rabid.run_stage3();
  const CounterScope counters;
  Tally tally;
  replay_stage4(rc.name(), design, graph, rabid.nets(), /*astar=*/true,
                &tally);
  EXPECT_EQ(tally.nets, static_cast<std::int64_t>(design.nets().size()));
  expect_deferral_exercised(counters);
}

TEST(TwoPathEquivalenceLarge, DeferredKeysKeepEveryEcoPolishRoute) {
  // Batch plan, then a seeded pin-move ECO (its polish pass included);
  // the replay runs the stage-4 searches again over the polished trees
  // of the re-planned nets.
  const circuits::RandomCircuit rc(11, large_grid());
  const netlist::Design design = rc.design();
  tile::TileGraph graph = rc.graph(design);
  const RabidOptions options;
  Rabid rabid(design, graph, options);
  rabid.run_all();
  eco::EcoOptions eco;
  eco.tech = options.tech;
  eco.buffer_library = options.buffer_library;
  eco::IncrementalPlanner planner(design, graph, rabid.nets(), eco);
  ASSERT_TRUE(
      planner.replan(eco::random_move_perturbation(planner, 0.25, 1))
          .ok_status());
  std::vector<std::size_t> replanned;
  for (std::size_t i = 0; i < planner.nets().size(); ++i) {
    if (!same_tree(planner.nets()[i].tree, rabid.nets()[i].tree)) {
      replanned.push_back(i);
    }
  }
  ASSERT_FALSE(replanned.empty());
  const CounterScope counters;
  Tally tally;
  replay_stage4(rc.name() + " eco", planner.design(), graph, planner.nets(),
                /*astar=*/true, &tally, replanned);
  EXPECT_EQ(tally.nets, static_cast<std::int64_t>(replanned.size()));
  expect_deferral_exercised(counters);
}

TEST(TwoPathEquivalence, SameGoalFromManySourcesKeepsOneField) {
  util::Rng rng(2024);
  tile::TileGraph g(geom::Rect{{0, 0}, {2400, 2400}}, 24, 24);
  g.set_uniform_wire_capacity(4);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto w = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    for (std::int32_t k = 0; k < w; ++k) g.add_wire(e);
  }
  route::EdgeCostCache cache(
      g, [&](tile::EdgeId e) { return route::soft_wire_cost(g, e); });
  cache.refresh_all();
  std::vector<double> site(static_cast<std::size_t>(g.tile_count()));
  for (double& q : site) {
    q = rng.chance(0.15) ? std::numeric_limits<double>::infinity()
                         : rng.uniform(0.05, 2.0);
  }
  ReferenceSearch reference(g);
  TwoPathSearch shared(g);
  for (int goal_round = 0; goal_round < 12; ++goal_round) {
    const auto to =
        static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    const auto L = static_cast<std::int32_t>(rng.uniform_int(2, 9));
    // Sources near and far, including the goal itself and repeats.
    for (int k = 0; k < 10; ++k) {
      const auto from =
          k == 0 ? to
                 : static_cast<tile::TileId>(
                       rng.uniform_int(0, g.tile_count() - 1));
      const TwoPathRoute want = reference.route(
          from, to, L, cache.values(), site, 1.0, cache.min_cost());
      const TwoPathRoute kept = shared.route_keeping_field(
          from, to, L, cache.values(), site, 1.0, cache.min_cost());
      ASSERT_EQ(kept.tiles, want.tiles)
          << "goal round " << goal_round << " source " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(kept.cost),
                std::bit_cast<std::uint64_t>(want.cost));
    }
  }
}

TEST(TwoPathEquivalence, RerouterNeverKeepsAFieldAcrossCalls) {
  // A single two-path net: each reroute() runs exactly one search, toward
  // the source, so two calls share their goal.  Between the calls the
  // wire costs change; the second call must not reuse the first field.
  tile::TileGraph g(geom::Rect{{0, 0}, {1600, 1600}}, 16, 16);
  g.set_uniform_wire_capacity(4);
  route::RouteTree tree(g.id_of({2, 2}));
  route::NodeId n = tree.root();
  for (std::int32_t x = 3; x <= 13; ++x) n = tree.add_child(n, g.id_of({x, 2}));
  tree.add_sink(n);
  const std::vector<double> site(static_cast<std::size_t>(g.tile_count()),
                                 0.5);
  std::vector<std::uint8_t> on_row(static_cast<std::size_t>(g.edge_count()),
                                   0);
  for (std::int32_t x = 2; x < 13; ++x) {
    on_row[static_cast<std::size_t>(
        g.edge_between(g.id_of({x, 2}), g.id_of({x + 1, 2})))] = 1;
  }
  // First costs: the net's row is cheap and everything else dear.  Then
  // the reverse: a field kept from the first call would price every
  // detour far above the now-dear row, and the search would stay on it.
  std::vector<double> before(on_row.size());
  std::vector<double> after(on_row.size());
  for (std::size_t e = 0; e < on_row.size(); ++e) {
    before[e] = on_row[e] ? 1.0 : 1000.0;
    after[e] = on_row[e] ? 20.0 : 0.25;
  }
  // One floor for both calls (a lower bound on every cost either time),
  // so only the rerouter's own rule keeps the field from being reused.
  const double floor = 0.25;
  TwoPathRerouter kept(g);
  EXPECT_TRUE(same_tree(kept.reroute(tree, 6, before, site, 1.0, floor),
                        tree));
  TwoPathRerouter fresh(g);
  const route::RouteTree want =
      fresh.reroute(tree, 6, after, site, 1.0, floor);
  EXPECT_FALSE(same_tree(want, tree));  // the costs really moved the route
  EXPECT_TRUE(same_tree(kept.reroute(tree, 6, after, site, 1.0, floor),
                        want));
}

TEST(TwoPathEquivalence, ResetEditorRebuildsLikeAFreshOne) {
  tile::TileGraph g(geom::Rect{{0, 0}, {1000, 1000}}, 10, 10);
  const auto at = [&](std::int32_t x, std::int32_t y) {
    return g.id_of({x, y});
  };
  // Tree A: an L from (0,0) to a sink at (4,3).  Tree B: a T from
  // (5,5) with sinks at (9,5) and (5,9), sharing no tile with A.
  route::RouteTree a(at(0, 0));
  route::NodeId n = a.root();
  for (std::int32_t x = 1; x <= 4; ++x) n = a.add_child(n, at(x, 0));
  for (std::int32_t y = 1; y <= 3; ++y) n = a.add_child(n, at(4, y));
  a.add_sink(n);
  route::RouteTree b(at(5, 5));
  route::NodeId e = b.root();
  for (std::int32_t x = 6; x <= 9; ++x) e = b.add_child(e, at(x, 5));
  b.add_sink(e);
  route::NodeId s = b.root();
  for (std::int32_t y = 6; y <= 9; ++y) s = b.add_child(s, at(5, y));
  b.add_sink(s);

  TileTreeEditor reused(g);
  reused.reset(a);
  // Detour A's corner through (3,1)-(3,3) so the editor touches tiles
  // tree A never had, then move on to B.
  const std::vector<tile::TileId> corner{at(4, 0), at(4, 1), at(4, 2)};
  reused.remove_path(at(3, 0), corner, at(4, 3));
  const std::vector<tile::TileId> detour{at(3, 0), at(3, 1), at(3, 2),
                                         at(3, 3), at(4, 3)};
  reused.add_path(detour);
  EXPECT_TRUE(reused.in_tree(at(3, 2)));
  reused.reset(b);
  EXPECT_FALSE(reused.in_tree(at(3, 2)));
  EXPECT_FALSE(reused.in_tree(at(0, 0)));

  TileTreeEditor fresh(b, g);
  EXPECT_TRUE(same_tree(reused.rebuild(), fresh.rebuild()));
  // Same edits on both: reroute B's east arm through row 6.
  const std::vector<tile::TileId> east{at(6, 5), at(7, 5), at(8, 5)};
  const std::vector<tile::TileId> around{at(5, 5), at(5, 6), at(6, 6),
                                         at(7, 6), at(8, 6), at(9, 6),
                                         at(9, 5)};
  for (TileTreeEditor* ed : {&reused, &fresh}) {
    ed->remove_path(at(5, 5), east, at(9, 5));
    ed->add_path(around);
  }
  const route::RouteTree got = reused.rebuild();
  EXPECT_TRUE(same_tree(got, fresh.rebuild()));
  EXPECT_EQ(got.total_sinks(), 2);
  EXPECT_TRUE(got.contains(at(7, 6)));
  EXPECT_FALSE(got.contains(at(7, 5)));
}

}  // namespace
}  // namespace rabid::core
