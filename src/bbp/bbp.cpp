#include "bbp/bbp.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "buffer/brute_force.hpp"
#include "core/congestion_post.hpp"
#include "util/assert.hpp"

namespace rabid::bbp {

namespace {

/// Delay constraint = kGamma x optimal achievable delay (paper: 1.05-1.2).
constexpr double kGamma = 1.10;
/// Upper bound on buffers per two-pin net (safety rail).
constexpr std::int32_t kMaxBuffersPerNet = 64;

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

/// Delay of a chain route along `path` with k buffers at evenly spaced
/// path indices.
double evenly_buffered_delay(const tile::TileGraph& g,
                             const std::vector<tile::TileId>& path,
                             std::int32_t k, const timing::Technology& tech) {
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
  return timing::evaluate_delay(tree, buffers, {}, g, tech).max_ps;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

BbpAllocator::BbpAllocator(const netlist::Design& design,
                           tile::TileGraph& graph, core::RabidOptions options)
    : Allocator(design, graph, std::move(options)),
      free_tile_(static_cast<std::size_t>(graph.tile_count()), true) {
  RABID_ASSERT_MSG(options_.deadline_ms == 0.0,
                   "BBP/FR does not support deadlines");
  options_.threads = 1;
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

std::vector<core::StageStats> BbpAllocator::plan() {
  RABID_ASSERT_MSG(stage_history_.empty(), "plan() already ran");
  auto start = std::chrono::steady_clock::now();
  constraint_ps_.assign(nets_.size(), 0.0);
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    plan_net(static_cast<netlist::NetId>(i));
  }
  stage_history_.push_back(core::solution_snapshot(
      graph_, nets_, "bbp", seconds_since(start), threads()));
  if (options_.congestion_post_after_stage2) {
    start = std::chrono::steady_clock::now();
    congestion_post();
    stage_history_.push_back(core::solution_snapshot(
        graph_, nets_, "post", seconds_since(start), threads()));
  }
  maybe_audit("final", /*final_stage=*/true);
  return stage_history_;
}

void BbpAllocator::plan_net(netlist::NetId id) {
  const netlist::Net& net = design_.net(id);
  const timing::Technology tech =
      timing::scaled_for_width(options_.tech, net.width);
  const tile::TileId src = graph_.tile_at(net.source.location);
  const tile::TileId dst = graph_.tile_at(net.sinks.front().location);
  const std::vector<tile::TileId> path = staircase(graph_, src, dst);

  // Minimal k meeting kGamma x optimal delay.
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> delay_of_k;
  std::int32_t k_at_best = 0;
  for (std::int32_t k = 0; k <= kMaxBuffersPerNet; ++k) {
    const double d = evenly_buffered_delay(graph_, path, k, tech);
    delay_of_k.push_back(d);
    if (d < best) {
      best = d;
      k_at_best = k;
    }
    // Delay in k is unimodal; stop once past the minimum.
    if (k >= k_at_best + 2) break;
  }
  const double constraint = kGamma * best;
  std::int32_t k_min = k_at_best;
  for (std::int32_t k = 0; k < static_cast<std::int32_t>(delay_of_k.size());
       ++k) {
    if (delay_of_k[static_cast<std::size_t>(k)] <= constraint) {
      k_min = k;
      break;
    }
  }
  constraint_ps_[static_cast<std::size_t>(id)] = constraint;

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
        1, static_cast<std::int32_t>(spacing * std::sqrt(kGamma - 1.0)));
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
      if (!free_tile_[static_cast<std::size_t>(t)]) continue;
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

  // Route source -> waypoints -> sink, placing and booking the buffers.
  core::NetState& state = nets_[static_cast<std::size_t>(id)];
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
    graph_.add_buffer_unchecked(w);
  }
  cur = walk_to(state.tree, graph_, cur, dst);
  state.tree.add_sink(cur);
  state.tree.commit(graph_, net.width);
  evaluate(id);
}

void BbpAllocator::congestion_post() {
  // Buffer tiles per re-embedded net: pinned during re-embedding, then
  // used to remap the placements onto the rebuilt trees.  The pass edits
  // usage one track at a time, so wide-wire nets keep their routes.
  std::vector<std::size_t> eligible;
  std::vector<std::vector<tile::TileId>> buffer_tiles;
  std::vector<route::RouteTree> trees;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (design_.net(static_cast<netlist::NetId>(i)).width != 1) continue;
    core::NetState& state = nets_[i];
    eligible.push_back(i);
    std::vector<tile::TileId>& tiles = buffer_tiles.emplace_back();
    for (const route::BufferPlacement& b : state.buffers) {
      tiles.push_back(state.tree.node(b.node).tile);
    }
    trees.push_back(std::move(state.tree));
  }
  const core::PinnedFn pinned = [&](std::size_t k, tile::TileId t) {
    const std::vector<tile::TileId>& tiles = buffer_tiles[k];
    return std::find(tiles.begin(), tiles.end(), t) != tiles.end();
  };
  core::minimize_congestion(graph_, trees, 3, pinned);

  for (std::size_t k = 0; k < eligible.size(); ++k) {
    core::NetState& state = nets_[eligible[k]];
    state.tree = std::move(trees[k]);
    state.buffers.clear();
    for (const tile::TileId t : buffer_tiles[k]) {
      const route::NodeId n = state.tree.node_at(t);
      RABID_ASSERT_MSG(n != route::kNoNode,
                       "pinned buffer tile lost in post-pass");
      state.buffers.push_back({n, route::kNoNode});
    }
    evaluate(static_cast<netlist::NetId>(eligible[k]));
  }
}

void BbpAllocator::evaluate(netlist::NetId id) {
  core::NetState& state = nets_[static_cast<std::size_t>(id)];
  state.meets_length_rule = buffer::placement_is_legal(
      state.tree, state.buffers, design_.length_limit(id));
  state.delay = timing::evaluate_delay(
      state.tree, state.buffers, {}, graph_,
      timing::scaled_for_width(options_.tech, design_.net(id).width));
}

core::AuditOptions BbpAllocator::audit_options() const {
  core::AuditOptions opt;
  opt.tech = options_.tech;
  // Capacity overload IS the measured phenomenon (Fig. 1 / Table V):
  // congestion-blind staircase routes and buffers piled into channels.
  // Integrity invariants stay hard errors.
  opt.wire_overflow_severity = core::AuditSeverity::kWarning;
  opt.buffer_overflow_severity = core::AuditSeverity::kWarning;
  return opt;
}

double mtap_pct(const tile::TileGraph& g, double buffer_area_um2) {
  const double tile_area = g.tile_width() * g.tile_height();
  std::int32_t max_count = 0;
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    max_count = std::max(max_count, g.site_usage(t));
  }
  return 100.0 * static_cast<double>(max_count) * buffer_area_um2 / tile_area;
}

std::int32_t count_buffer_blocks(const tile::TileGraph& g,
                                 std::int32_t min_buffers) {
  const auto tiles = static_cast<std::size_t>(g.tile_count());
  auto dense = [&](tile::TileId t) { return g.site_usage(t) >= min_buffers; };
  std::vector<bool> seen(tiles, false);
  std::int32_t components = 0;
  std::vector<tile::TileId> stack;
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    if (!dense(t) || seen[static_cast<std::size_t>(t)]) continue;
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
        if (dense(nbr[k]) && !seen[i]) {
          seen[i] = true;
          stack.push_back(nbr[k]);
        }
      }
    }
  }
  return components;
}

}  // namespace rabid::bbp
