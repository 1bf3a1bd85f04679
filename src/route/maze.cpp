#include "route/maze.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::route {

double soft_wire_cost(const tile::TileGraph& g, tile::EdgeId e) {
  const std::int32_t w = g.wire_usage(e);
  const std::int32_t cap = g.wire_capacity(e);
  if (w < cap) {
    return static_cast<double>(w + 1) / static_cast<double>(cap - w);
  }
  return kOverflowPenalty * static_cast<double>(w - cap + 1);
}

EdgeCostCache::EdgeCostCache(const tile::TileGraph& g, EdgeCostFn base)
    : g_(g),
      base_(std::move(base)),
      values_(static_cast<std::size_t>(g.edge_count()), 0.0),
      cut_floor_(static_cast<std::size_t>(g.nx() - 1 + g.ny() - 1), 0.0) {
  refresh_all();
}

std::size_t EdgeCostCache::cut_of(tile::EdgeId e) const {
  const std::int32_t cols = g_.nx() - 1;
  const std::int32_t horizontal = cols * g_.ny();
  if (e < horizontal) return static_cast<std::size_t>(e % cols);
  return static_cast<std::size_t>(cols + (e - horizontal) / g_.nx());
}

void EdgeCostCache::refresh_all() {
  obs::count(obs::Counter::kEdgeCacheFullRefreshes);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  min_cost_ = kInf;
  std::fill(cut_floor_.begin(), cut_floor_.end(), kInf);
  const auto refresh = [this](tile::EdgeId e, double& cut) {
    const double c = base_(e);
    values_[static_cast<std::size_t>(e)] = c;
    min_cost_ = std::min(min_cost_, c);
    cut = std::min(cut, c);
  };
  // Edge ids in order, walked so that each edge's cut is a loop index
  // (cut_of()'s division per edge doubled this loop's time): horizontal
  // edges first, row-major, then vertical ones (tile/tile_graph.cpp).
  const std::int32_t nx = g_.nx();
  const std::int32_t ny = g_.ny();
  tile::EdgeId e = 0;
  for (std::int32_t y = 0; y < ny; ++y) {
    for (std::int32_t x = 0; x + 1 < nx; ++x) {
      refresh(e++, cut_floor_[static_cast<std::size_t>(x)]);
    }
  }
  for (std::int32_t y = 0; y + 1 < ny; ++y) {
    double& cut = cut_floor_[static_cast<std::size_t>(nx - 1 + y)];
    for (std::int32_t x = 0; x < nx; ++x) refresh(e++, cut);
  }
  if (!std::isfinite(min_cost_)) min_cost_ = 0.0;
}

void EdgeCostCache::refresh_edge(tile::EdgeId e) {
  obs::count(obs::Counter::kEdgeCacheInvalidations);
  const double c = base_(e);
  values_[static_cast<std::size_t>(e)] = c;
  // Only ever lower the bounds between full refreshes: raising them on
  // the strength of one edge could overestimate some other (stale-
  // cheaper) edge and break A* admissibility.
  lower_floors(e, c);
}

void EdgeCostCache::on_capacity_change(tile::EdgeId e) {
  obs::count(obs::Counter::kEdgeCacheCapacityChanges);
  const double c = base_(e);
  values_[static_cast<std::size_t>(e)] = c;
  // Same conservative discipline as refresh_edge(): the bounds may only
  // move down between full refreshes.  A capacity *increase* is the
  // dangerous direction — it lowers the true cost, so skipping this
  // update would leave min_cost() or the cut floor above the true
  // minimum and break A* admissibility (a capacity decrease only raises
  // the cost, where a stale-low bound merely weakens the heuristic).
  lower_floors(e, c);
}

template <class Lower>
void EdgeCostCache::refresh_arcs(const RouteTree& tree, Lower lower) {
  // Every node but the root contributes its parent edge; a never-routed
  // net's empty tree contributes none.
  if (tree.empty()) return;
  obs::count(obs::Counter::kEdgeCacheInvalidations, tree.node_count() - 1);
  for (const RouteNode& n : tree.nodes()) {
    if (n.parent == kNoNode) continue;
    const tile::EdgeId e = g_.edge_between(n.tile, tree.node(n.parent).tile);
    const double c = base_(e);
    values_[static_cast<std::size_t>(e)] = c;
    lower(e, c);
  }
}

void EdgeCostCache::refresh_tree(const RouteTree& tree) {
  refresh_arcs(tree, [this](tile::EdgeId e, double c) { lower_floors(e, c); });
}

void EdgeCostCache::refresh_tree_sharded(const RouteTree& tree,
                                         double& floor) {
  refresh_arcs(tree, [&floor](tile::EdgeId, double c) {
    if (c < floor) floor = c;
  });
}

void EdgeCostCache::lower_min(double floor) {
  min_cost_ = std::min(min_cost_, floor);
  // The shard wrote edges in cuts it cannot name without racing: its
  // floor bounds every one of them, so it bounds every cut.
  for (double& cut : cut_floor_) cut = std::min(cut, floor);
}

double EdgeCostCache::min_over(std::span<const tile::EdgeId> edges) const {
  double lo = std::numeric_limits<double>::infinity();
  for (const tile::EdgeId e : edges) {
    lo = std::min(lo, values_[static_cast<std::size_t>(e)]);
  }
  return std::isfinite(lo) ? lo : 0.0;
}

MazeRouter::MazeRouter(const tile::TileGraph& g)
    : g_(g),
      labels_(static_cast<std::size_t>(g.tile_count()),
              Label{0.0, 0.0, tile::kNoTile, 0, 0, 0}) {
  // Pre-size the wavefront scratch from the graph so the hot loops never
  // reallocate mid-search (kHeapRegrows counts any push that still
  // does).  A Dijkstra/A* wavefront pushes once per label improvement;
  // one slot per tile covers it in all but pathological cost fields.
  heap_.reserve(static_cast<std::size_t>(g.tile_count()));
  path_.reserve(static_cast<std::size_t>(g.nx() + g.ny()));
}

void MazeRouter::confine(tile::TileSpan span) {
  const auto paint = [&](const tile::TileSpan& s, std::uint8_t v) {
    for (std::int32_t y = s.y0; y <= s.y1; ++y) {
      for (std::int32_t x = s.x0; x <= s.x1; ++x) {
        in_region_[static_cast<std::size_t>(g_.id_of({x, y}))] = v;
      }
    }
  };
  if (in_region_.empty()) {
    in_region_.assign(static_cast<std::size_t>(g_.tile_count()), 0);
  } else {
    // confined_span_ is the last painted span even across unconfine();
    // clearing just it (not the chip) keeps per-net clips O(clip).
    paint(confined_span_, 0);
  }
  confined_ = true;
  confined_span_ = span;
  paint(span, 1);
}

std::uint64_t MazeRouter::memory_bytes() const {
  return static_cast<std::uint64_t>(labels_.capacity()) * sizeof(Label) +
         heap_.memory_bytes() +
         static_cast<std::uint64_t>(in_region_.capacity()) +
         static_cast<std::uint64_t>(targets_.capacity()) * sizeof(Target) +
         static_cast<std::uint64_t>(path_cost_.capacity()) * sizeof(double) +
         static_cast<std::uint64_t>(path_.capacity()) * sizeof(tile::TileId);
}

namespace {

/// The search cores' view of a flat per-edge cost array: one load.
struct SpanCost {
  std::span<const double> v;
  double operator()(tile::EdgeId e) const {
    return v[static_cast<std::size_t>(e)];
  }
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative slack on the bounded-wavefront cutoff.  A tile is skipped
/// only when its bound exceeds U by more than the rounding a sum of a
/// few thousand path costs can carry, so no tie that decides a route
/// is ever judged on a last-bit difference.
constexpr double kBoundSlack = 1e-9;

}  // namespace

RouteTree MazeRouter::grow(tile::TileId source_tile,
                           std::span<const tile::TileId> sink_tiles,
                           double alpha, std::span<const double> costs,
                           double astar_floor) {
  const SpanCost cost{costs};
  RouteTree tree(source_tile);

  // Unconnected sink tiles (deduplicated); multiplicity handled at the end.
  targets_.clear();
  for (const tile::TileId t : sink_tiles) {
    if (t != source_tile) targets_.push_back({t, g_.coord_of(t), kInf});
  }
  std::sort(targets_.begin(), targets_.end(),
            [](const Target& a, const Target& b) { return a.tile < b.tile; });
  targets_.erase(std::unique(targets_.begin(), targets_.end(),
                             [](const Target& a, const Target& b) {
                               return a.tile == b.tile;
                             }),
                 targets_.end());

  ++target_epoch_;
  for (Target& tg : targets_) {
    labels_[static_cast<std::size_t>(tg.tile)].target_stamp = target_epoch_;
    // Every path into the target ends on one of these edges.  Under
    // confinement only edges with both endpoints inside are read: the
    // others may belong to a concurrent shard.
    const tile::TileGraph::Adjacency* adj = g_.adjacency(tg.tile);
    for (int k = 0; k < g_.adj_count(tg.tile); ++k) {
      if (confined_ && in_region_[static_cast<std::size_t>(adj[k].tile)] == 0)
        continue;
      tg.entry = std::min(tg.entry, cost(adj[k].edge));
    }
  }

  // Congestion-cost of the tree path from the source to each node, the
  // "path length" that alpha weighs in the PD objective.
  path_cost_.assign(1, 0.0);

  // Wavefront work, accumulated in registers and flushed to the
  // observability registry once per call (the inner loop stays clean).
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t stale_pops = 0;
  std::uint64_t pruned = 0;
  std::uint64_t bound_pops = 0;

  const bool use_h = astar_floor > 0.0;
  const double step = use_h ? astar_floor : 0.0;
  while (!targets_.empty()) {
    begin_pass();
    heap_.clear();
    // Admissible remaining-cost bound, memoized per tile per pass.
    const auto h_of = [&](tile::TileId t) -> double {
      if (!use_h) return 0.0;
      Label& l = labels_[static_cast<std::size_t>(t)];
      if (l.h_stamp == epoch_) return l.h;
      const geom::TileCoord c = g_.coord_of(t);
      std::int32_t best = std::numeric_limits<std::int32_t>::max();
      for (const Target& tg : targets_)
        best = std::min(best, geom::manhattan(c, tg.coord));
      const double v = astar_floor * static_cast<double>(best);
      l.h = v;
      l.h_stamp = epoch_;
      return v;
    };
    // Wall-aware bound h+ from a non-target tile: the last step enters a
    // target over one of its edges, every earlier step costs >= step.
    const auto bound_of = [&](tile::TileId t) -> double {
      const geom::TileCoord c = g_.coord_of(t);
      double best = kInf;
      for (const Target& tg : targets_) {
        best = std::min(
            best, step * static_cast<double>(geom::manhattan(c, tg.coord) - 1) +
                      tg.entry);
      }
      return best;
    };
    // U (1 + slack), U the smallest label any target holds; infinite
    // until a relaxation first lands on a target.
    double cutoff = kInf;

    // Seed the wavefront with every tree tile at alpha-weighted path cost.
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
      const tile::TileId t = tree.node(static_cast<NodeId>(i)).tile;
      const double d = alpha * path_cost_[i];
      touch(t, d, tile::kNoTile);
      heap_push({d + h_of(t), d, t});
      ++pushes;
    }
    tile::TileId reached = tile::kNoTile;
    while (!heap_.empty()) {
      const HeapEntry top = heap_pop();
      ++pops;
      if (top.dist > labels_[static_cast<std::size_t>(top.tile)].dist) {
        ++stale_pops;
        continue;
      }
      if (is_target(top.tile)) {
        reached = top.tile;
        break;
      }
      if (cutoff != kInf && top.dist + bound_of(top.tile) > cutoff) {
        ++bound_pops;
        continue;
      }
      const tile::TileGraph::Adjacency* adj = g_.adjacency(top.tile);
      const int n = g_.adj_count(top.tile);
      for (int k = 0; k < n; ++k) {
        const tile::TileId nbr = adj[k].tile;
        // Confinement check before the cost load: a confined search
        // must not even read edges leaving the region (their cache
        // entries may be owned by a concurrent shard).
        if (confined_ && in_region_[static_cast<std::size_t>(nbr)] == 0) {
          continue;
        }
        const double nd = top.dist + cost(adj[k].edge);
        Label& nl = labels_[static_cast<std::size_t>(nbr)];
        if (nl.stamp != epoch_ || nd < nl.dist) {
          nl.dist = nd;
          nl.prev = top.tile;
          nl.stamp = epoch_;
          if (nl.target_stamp == target_epoch_) {
            cutoff = std::min(cutoff, nd * (1.0 + kBoundSlack));
          }
          heap_push({nd + h_of(nbr), nd, nbr});
          ++pushes;
        } else {
          ++pruned;
        }
      }
    }
    RABID_ASSERT_MSG(reached != tile::kNoTile,
                     "wavefront could not reach a sink tile");

    // Trace back to the tree, collect the new path (tree-side first).
    path_.clear();
    for (tile::TileId t = reached; t != tile::kNoTile;
         t = labels_[static_cast<std::size_t>(t)].prev) {
      path_.push_back(t);
      if (tree.contains(t) && t != reached) break;
    }
    std::reverse(path_.begin(), path_.end());
    RABID_ASSERT(tree.contains(path_.front()));

    NodeId anchor = tree.node_at(path_.front());
    double pc = path_cost_[static_cast<std::size_t>(anchor)];
    for (std::size_t i = 1; i < path_.size(); ++i) {
      const tile::EdgeId e = g_.edge_between(path_[i - 1], path_[i]);
      pc += cost(e);
      const NodeId existing = tree.node_at(path_[i]);
      if (existing != kNoNode) {
        anchor = existing;
        pc = path_cost_[static_cast<std::size_t>(existing)];
        continue;
      }
      anchor = tree.add_child(anchor, path_[i]);
      RABID_ASSERT(static_cast<std::size_t>(anchor) == path_cost_.size());
      path_cost_.push_back(pc);
    }

    // Newly covered targets (the reached one, plus any the path crossed).
    std::erase_if(targets_, [&](const Target& tg) {
      if (tree.contains(tg.tile)) {
        labels_[static_cast<std::size_t>(tg.tile)].target_stamp = 0;
        return true;
      }
      return false;
    });
  }

  // Attach sink multiplicity.
  for (const tile::TileId t : sink_tiles) {
    const NodeId n = tree.node_at(t);
    RABID_ASSERT(n != kNoNode);
    tree.add_sink(n);
  }

  if (obs::counting()) {
    obs::count(obs::Counter::kMazeRoutes);
    obs::count(obs::Counter::kMazeHeapPushes, pushes);
    obs::count(obs::Counter::kMazeHeapPops, pops);
    obs::count(obs::Counter::kMazeStalePops, stale_pops);
    obs::count(obs::Counter::kMazeBoundPops, bound_pops);
    obs::count(obs::Counter::kMazePrunedTouches, pruned);
    obs::count(obs::Counter::kHeapRegrows, heap_.take_regrows());
    obs::observe(obs::HistogramId::kMazePopsPerRoute, pops);
  }
  return tree;
}

RouteTree MazeRouter::route_net(const netlist::Net& net, double alpha,
                                std::span<const double> cost,
                                double astar_floor) {
  std::vector<tile::TileId> sinks;
  sinks.reserve(net.sinks.size());
  for (const netlist::Pin& p : net.sinks) {
    sinks.push_back(g_.tile_at(p.location));
  }
  return grow(g_.tile_at(net.source.location), sinks, alpha, cost,
              astar_floor);
}

std::vector<tile::TileId> MazeRouter::shortest_path(
    tile::TileId from, tile::TileId to, std::span<const double> costs,
    double astar_floor) {
  const SpanCost cost{costs};
  begin_pass();
  heap_.clear();
  const geom::TileCoord goal = g_.coord_of(to);
  const auto h_of = [&](tile::TileId t) -> double {
    if (astar_floor <= 0.0) return 0.0;
    return astar_floor *
           static_cast<double>(geom::manhattan(g_.coord_of(t), goal));
  };
  touch(from, 0.0, tile::kNoTile);
  heap_push({h_of(from), 0.0, from});
  while (!heap_.empty()) {
    const HeapEntry top = heap_pop();
    if (top.dist > labels_[static_cast<std::size_t>(top.tile)].dist) continue;
    if (top.tile == to) break;
    const tile::TileGraph::Adjacency* adj = g_.adjacency(top.tile);
    const int n = g_.adj_count(top.tile);
    for (int k = 0; k < n; ++k) {
      const tile::TileId nbr = adj[k].tile;
      if (confined_ && in_region_[static_cast<std::size_t>(nbr)] == 0) {
        continue;
      }
      const double nd = top.dist + cost(adj[k].edge);
      Label& nl = labels_[static_cast<std::size_t>(nbr)];
      if (nl.stamp != epoch_ || nd < nl.dist) {
        nl.dist = nd;
        nl.prev = top.tile;
        nl.stamp = epoch_;
        heap_push({nd + h_of(nbr), nd, nbr});
      }
    }
  }
  RABID_ASSERT_MSG(seen(to), "no path between tiles");
  std::vector<tile::TileId> path;
  for (tile::TileId t = to; t != tile::kNoTile;
       t = labels_[static_cast<std::size_t>(t)].prev) {
    path.push_back(t);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace rabid::route
