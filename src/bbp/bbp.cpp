#include "bbp/bbp.hpp"

#include "core/congestion_post.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace rabid::bbp {

namespace {

/// Staircase (x-first) tile walk from the tree node at `from` to tile
/// `target`, re-anchoring on tiles already present; returns the node at
/// `target`.  Same contract as the Stage-1 embedding walk.
route::NodeId walk_to(route::RouteTree& tree, const tile::TileGraph& g,
                      route::NodeId from, tile::TileId target) {
  route::NodeId cur = from;
  geom::TileCoord c = g.coord_of(tree.node(cur).tile);
  const geom::TileCoord t = g.coord_of(target);
  auto step = [&](geom::TileCoord next) {
    const tile::TileId nt = g.id_of(next);
    const route::NodeId existing = tree.node_at(nt);
    cur = (existing != route::kNoNode) ? existing : tree.add_child(cur, nt);
    c = next;
  };
  while (c.x != t.x) step({c.x + (t.x > c.x ? 1 : -1), c.y});
  while (c.y != t.y) step({c.x, c.y + (t.y > c.y ? 1 : -1)});
  return cur;
}

/// Straight staircase path between two tiles (both inclusive).
std::vector<tile::TileId> staircase(const tile::TileGraph& g, tile::TileId a,
                                    tile::TileId b) {
  std::vector<tile::TileId> path{a};
  geom::TileCoord c = g.coord_of(a);
  const geom::TileCoord t = g.coord_of(b);
  while (c.x != t.x) {
    c.x += (t.x > c.x ? 1 : -1);
    path.push_back(g.id_of(c));
  }
  while (c.y != t.y) {
    c.y += (t.y > c.y ? 1 : -1);
    path.push_back(g.id_of(c));
  }
  return path;
}

}  // namespace

BbpPlanner::BbpPlanner(const netlist::Design& design, tile::TileGraph& graph,
                       BbpOptions options)
    : design_(design),
      graph_(graph),
      options_(options),
      free_tile_(static_cast<std::size_t>(graph.tile_count()), true),
      tile_buffers_(static_cast<std::size_t>(graph.tile_count()), 0) {
  for (const netlist::Net& n : design.nets()) {
    RABID_ASSERT_MSG(n.sinks.size() == 1,
                     "BBP/FR operates on two-pin nets; decompose first");
  }
  // Free space = tiles whose center no macro covers: the channels and
  // dead space where buffer blocks may be erected.
  for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
    const geom::Point c = graph.center(t);
    for (const netlist::Block& b : design.blocks()) {
      if (b.shape.contains(c)) {
        free_tile_[static_cast<std::size_t>(t)] = false;
        break;
      }
    }
  }
}

bool BbpPlanner::tile_is_free(tile::TileId t) const {
  return free_tile_[static_cast<std::size_t>(t)];
}

double BbpPlanner::evenly_buffered_delay(const std::vector<tile::TileId>& path,
                                         std::int32_t k) const {
  // Chain route with k buffers at evenly spaced path indices.
  route::RouteTree tree(path.front());
  route::NodeId cur = tree.root();
  std::vector<route::NodeId> node_at(path.size());
  node_at[0] = cur;
  for (std::size_t i = 1; i < path.size(); ++i) {
    cur = tree.add_child(cur, path[i]);
    node_at[i] = cur;
  }
  tree.add_sink(cur);
  route::BufferList buffers;
  const auto n = static_cast<std::int32_t>(path.size());
  for (std::int32_t j = 1; j <= k; ++j) {
    const auto idx = static_cast<std::size_t>(
        static_cast<std::int64_t>(j) * (n - 1) / (k + 1));
    if (idx == 0) continue;  // never at the source tile
    buffers.push_back({node_at[idx], route::kNoNode});
  }
  // Deduplicate (short paths can collapse ideal spots onto one tile;
  // stacking two buffers at one point is never useful for delay).
  std::sort(buffers.begin(), buffers.end(),
            [](const route::BufferPlacement& a,
               const route::BufferPlacement& b) { return a.node < b.node; });
  buffers.erase(std::unique(buffers.begin(), buffers.end()), buffers.end());
  return timing::evaluate_delay(tree, buffers, {}, graph_, options_.tech).max_ps;
}

BbpResult BbpPlanner::run(double buffer_area_um2) {
  const auto start = std::chrono::steady_clock::now();
  BbpResult result;
  nets_.clear();
  nets_.reserve(design_.nets().size());

  double delay_sum = 0.0;
  std::size_t sink_count = 0;
  double wl_um = 0.0;

  for (const netlist::Net& net : design_.nets()) {
    const tile::TileId src = graph_.tile_at(net.source.location);
    const tile::TileId dst = graph_.tile_at(net.sinks.front().location);
    const std::vector<tile::TileId> path = staircase(graph_, src, dst);

    // Minimal k meeting gamma x optimal delay.
    double best = std::numeric_limits<double>::infinity();
    std::vector<double> delay_of_k;
    std::int32_t k_at_best = 0;
    for (std::int32_t k = 0; k <= options_.max_buffers_per_net; ++k) {
      const double d = evenly_buffered_delay(path, k);
      delay_of_k.push_back(d);
      if (d < best) {
        best = d;
        k_at_best = k;
      }
      // Delay in k is unimodal; stop once past the minimum.
      if (k >= k_at_best + 2) break;
    }
    const double constraint = options_.gamma * best;
    std::int32_t k_min = k_at_best;
    for (std::int32_t k = 0; k < static_cast<std::int32_t>(delay_of_k.size());
         ++k) {
      if (delay_of_k[static_cast<std::size_t>(k)] <= constraint) {
        k_min = k;
        break;
      }
    }

    // Feasible-region radius (in tiles) for displacing one buffer while
    // the rest stay ideal: widest when the constraint is loose.
    const auto n = static_cast<std::int32_t>(path.size());
    std::int32_t fr_radius = 0;
    if (k_min > 0) {
      const double spacing =
          static_cast<double>(n - 1) / static_cast<double>(k_min + 1);
      // The classic FR result: displacement freedom grows with the slack
      // ratio; at gamma >= 1 the half-width in tile units is roughly
      // spacing * sqrt(gamma - 1), never below one tile.
      fr_radius = std::max<std::int32_t>(
          1, static_cast<std::int32_t>(spacing * std::sqrt(options_.gamma - 1.0)));
    }

    // Snap each ideal spot to free space: nearest free tile, preferring
    // the feasible region.
    std::vector<tile::TileId> waypoints;
    for (std::int32_t j = 1; j <= k_min; ++j) {
      const auto idx = static_cast<std::size_t>(
          static_cast<std::int64_t>(j) * (n - 1) / (k_min + 1));
      if (idx == 0) continue;
      const tile::TileId ideal = path[idx];
      tile::TileId chosen = tile::kNoTile;
      std::int64_t chosen_score = std::numeric_limits<std::int64_t>::max();
      for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
        if (!tile_is_free(t)) continue;
        const std::int32_t d = graph_.tile_distance(ideal, t);
        // Inside the FR distance is free-ish; outside it dominates.
        const std::int64_t score =
            d <= fr_radius ? d : static_cast<std::int64_t>(d) * 1000;
        if (score < chosen_score) {
          chosen_score = score;
          chosen = t;
        }
      }
      if (chosen == tile::kNoTile) chosen = ideal;  // no free space at all
      if (chosen != src && (waypoints.empty() || waypoints.back() != chosen)) {
        waypoints.push_back(chosen);
      }
    }

    // Route source -> waypoints -> sink and place the buffers.
    BbpNetState state;
    state.constraint_ps = constraint;
    state.tree = route::RouteTree(src);
    route::NodeId cur = state.tree.root();
    for (const tile::TileId w : waypoints) {
      cur = walk_to(state.tree, graph_, cur, w);
      // A zig-zagging walk can revisit a node; one driving buffer each.
      const bool already =
          std::any_of(state.buffers.begin(), state.buffers.end(),
                      [&](const route::BufferPlacement& b) {
                        return b.node == cur;
                      });
      if (cur == state.tree.root() || already) continue;
      state.buffers.push_back({cur, route::kNoNode});
      ++tile_buffers_[static_cast<std::size_t>(w)];
    }
    cur = walk_to(state.tree, graph_, cur, dst);
    state.tree.add_sink(cur);
    state.tree.commit(graph_);
    state.delay = timing::evaluate_delay(state.tree, state.buffers, {}, graph_,
                                         options_.tech);

    result.buffers += static_cast<std::int64_t>(state.buffers.size());
    if (state.delay.max_ps > constraint) ++result.nets_missing_constraint;
    delay_sum += state.delay.sum_ps;
    sink_count += state.delay.sink_delays_ps.size();
    result.max_delay_ps = std::max(result.max_delay_ps, state.delay.max_ps);
    wl_um += state.tree.wirelength_um(graph_);
    nets_.push_back(std::move(state));
  }

  const tile::CongestionStats cs = graph_.stats();
  result.max_wire_congestion = cs.max_wire_congestion;
  result.avg_wire_congestion = cs.avg_wire_congestion;
  result.overflow = cs.overflow;
  result.wirelength_mm = wl_um / 1000.0;
  result.avg_delay_ps =
      sink_count == 0 ? 0.0 : delay_sum / static_cast<double>(sink_count);
  result.mtap_pct = mtap_pct(graph_, tile_buffers_, buffer_area_um2);
  result.cpu_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return result;
}

BbpResult BbpPlanner::congestion_post(double buffer_area_um2) {
  const auto start = std::chrono::steady_clock::now();
  RABID_ASSERT_MSG(!nets_.empty(), "run() must precede congestion_post()");

  // Buffer tiles per net: pinned during re-embedding, then used to remap
  // the placements onto the rebuilt trees.
  std::vector<std::vector<tile::TileId>> buffer_tiles(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    for (const route::BufferPlacement& b : nets_[i].buffers) {
      buffer_tiles[i].push_back(nets_[i].tree.node(b.node).tile);
    }
  }

  std::vector<route::RouteTree> trees;
  trees.reserve(nets_.size());
  for (BbpNetState& n : nets_) trees.push_back(std::move(n.tree));
  const core::PinnedFn pinned = [&](std::size_t net, tile::TileId t) {
    const auto& tiles = buffer_tiles[net];
    return std::find(tiles.begin(), tiles.end(), t) != tiles.end();
  };
  core::minimize_congestion(graph_, trees, 3, pinned);

  BbpResult result;
  double delay_sum = 0.0;
  std::size_t sink_count = 0;
  double wl_um = 0.0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    BbpNetState& state = nets_[i];
    state.tree = std::move(trees[i]);
    state.buffers.clear();
    for (const tile::TileId t : buffer_tiles[i]) {
      const route::NodeId n = state.tree.node_at(t);
      RABID_ASSERT_MSG(n != route::kNoNode,
                       "pinned buffer tile lost in post-pass");
      state.buffers.push_back({n, route::kNoNode});
    }
    state.delay = timing::evaluate_delay(state.tree, state.buffers, {}, graph_,
                                         options_.tech);
    result.buffers += static_cast<std::int64_t>(state.buffers.size());
    if (state.delay.max_ps > state.constraint_ps) {
      ++result.nets_missing_constraint;
    }
    delay_sum += state.delay.sum_ps;
    sink_count += state.delay.sink_delays_ps.size();
    result.max_delay_ps = std::max(result.max_delay_ps, state.delay.max_ps);
    wl_um += state.tree.wirelength_um(graph_);
  }

  const tile::CongestionStats cs = graph_.stats();
  result.max_wire_congestion = cs.max_wire_congestion;
  result.avg_wire_congestion = cs.avg_wire_congestion;
  result.overflow = cs.overflow;
  result.wirelength_mm = wl_um / 1000.0;
  result.avg_delay_ps =
      sink_count == 0 ? 0.0 : delay_sum / static_cast<double>(sink_count);
  result.mtap_pct = mtap_pct(graph_, tile_buffers_, buffer_area_um2);
  result.cpu_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return result;
}

double mtap_pct(const tile::TileGraph& g,
                std::span<const std::int32_t> buffers_per_tile,
                double buffer_area_um2) {
  RABID_ASSERT(static_cast<std::int32_t>(buffers_per_tile.size()) ==
               g.tile_count());
  const double tile_area = g.tile_width() * g.tile_height();
  std::int32_t max_count = 0;
  for (const std::int32_t c : buffers_per_tile) {
    max_count = std::max(max_count, c);
  }
  return 100.0 * static_cast<double>(max_count) * buffer_area_um2 / tile_area;
}

std::int32_t count_buffer_blocks(
    const tile::TileGraph& g, std::span<const std::int32_t> buffers_per_tile,
    std::int32_t min_buffers) {
  RABID_ASSERT(static_cast<std::int32_t>(buffers_per_tile.size()) ==
               g.tile_count());
  std::vector<bool> dense(buffers_per_tile.size(), false);
  for (std::size_t i = 0; i < buffers_per_tile.size(); ++i) {
    dense[i] = buffers_per_tile[i] >= min_buffers;
  }
  std::vector<bool> seen(buffers_per_tile.size(), false);
  std::int32_t components = 0;
  std::vector<tile::TileId> stack;
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    if (!dense[static_cast<std::size_t>(t)] ||
        seen[static_cast<std::size_t>(t)]) {
      continue;
    }
    ++components;
    stack.push_back(t);
    seen[static_cast<std::size_t>(t)] = true;
    while (!stack.empty()) {
      const tile::TileId u = stack.back();
      stack.pop_back();
      tile::TileId nbr[4];
      const int n = g.neighbors(u, nbr);
      for (int k = 0; k < n; ++k) {
        const auto i = static_cast<std::size_t>(nbr[k]);
        if (dense[i] && !seen[i]) {
          seen[i] = true;
          stack.push_back(nbr[k]);
        }
      }
    }
  }
  return components;
}

}  // namespace rabid::bbp
