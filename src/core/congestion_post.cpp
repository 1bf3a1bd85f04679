#include "core/congestion_post.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/twopath.hpp"
#include "route/maze.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {

/// Min-cost monotone staircase between two tiles under soft eq. (1)
/// costs; returns the tile path (both endpoints inclusive) and its cost.
std::pair<std::vector<tile::TileId>, double> best_monotone(
    const tile::TileGraph& g, tile::TileId from, tile::TileId to) {
  const geom::TileCoord a = g.coord_of(from);
  const geom::TileCoord b = g.coord_of(to);
  const std::int32_t nx = std::abs(b.x - a.x);
  const std::int32_t ny = std::abs(b.y - a.y);
  const std::int32_t sx = b.x >= a.x ? 1 : -1;
  const std::int32_t sy = b.y >= a.y ? 1 : -1;

  const auto w = static_cast<std::size_t>(nx) + 1;
  const auto h = static_cast<std::size_t>(ny) + 1;
  auto at = [&](std::size_t i, std::size_t j) { return j * w + i; };
  auto tile_of = [&](std::size_t i, std::size_t j) {
    return g.id_of({a.x + sx * static_cast<std::int32_t>(i),
                    a.y + sy * static_cast<std::int32_t>(j)});
  };

  std::vector<double> cost(w * h,
                           std::numeric_limits<double>::infinity());
  std::vector<std::uint8_t> from_x(w * h, 0);  // 1 = came via x-step
  cost[at(0, 0)] = 0.0;
  for (std::size_t j = 0; j < h; ++j) {
    for (std::size_t i = 0; i < w; ++i) {
      if (i + j == 0) continue;
      if (i > 0) {
        const tile::EdgeId e =
            g.edge_between(tile_of(i - 1, j), tile_of(i, j));
        const double c = cost[at(i - 1, j)] + route::soft_wire_cost(g, e);
        if (c < cost[at(i, j)]) {
          cost[at(i, j)] = c;
          from_x[at(i, j)] = 1;
        }
      }
      if (j > 0) {
        const tile::EdgeId e =
            g.edge_between(tile_of(i, j - 1), tile_of(i, j));
        const double c = cost[at(i, j - 1)] + route::soft_wire_cost(g, e);
        if (c < cost[at(i, j)]) {
          cost[at(i, j)] = c;
          from_x[at(i, j)] = 0;
        }
      }
    }
  }

  std::vector<tile::TileId> path;
  std::size_t i = w - 1, j = h - 1;
  path.push_back(tile_of(i, j));
  while (i + j > 0) {
    if (from_x[at(i, j)] != 0) {
      --i;
    } else {
      --j;
    }
    path.push_back(tile_of(i, j));
  }
  std::reverse(path.begin(), path.end());
  return {std::move(path), cost[at(w - 1, h - 1)]};
}

}  // namespace

CongestionPostResult minimize_congestion(tile::TileGraph& g,
                                         std::span<route::RouteTree> trees,
                                         std::int32_t max_passes,
                                         const PinnedFn& pinned) {
  CongestionPostResult result;
  result.before = g.stats();
  TileTreeEditor editor(g);  // O(chip) scratch: one for every swap

  for (std::int32_t pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (std::size_t ti = 0; ti < trees.size(); ++ti) {
      route::RouteTree& tree = trees[ti];
      // Re-derive two-paths after each accepted swap on this net.
      bool net_changed = true;
      std::int32_t guard = 0;
      std::vector<std::pair<tile::TileId, tile::TileId>> done;
      while (net_changed && guard++ < 64) {
        net_changed = false;
        // Candidate runs: two-paths, split at pinned interior tiles
        // (e.g. tiles carrying this net's buffers) — those tiles become
        // fixed endpoints and the segments between them re-embed freely.
        std::vector<std::vector<tile::TileId>> runs;
        for (const route::RouteTree::TwoPath& tp : tree.two_paths()) {
          std::vector<tile::TileId> run{tree.node(tp.head).tile};
          for (const route::NodeId n : tp.interior) {
            const tile::TileId t = tree.node(n).tile;
            run.push_back(t);
            if (pinned && pinned(ti, t)) {
              runs.push_back(run);
              run = {t};
            }
          }
          run.push_back(tree.node(tp.tail).tile);
          runs.push_back(std::move(run));
        }

        for (const std::vector<tile::TileId>& old_path : runs) {
          const tile::TileId head = old_path.front();
          const tile::TileId tail = old_path.back();
          if (std::find(done.begin(), done.end(),
                        std::make_pair(head, tail)) != done.end()) {
            continue;
          }
          const auto len = static_cast<std::int32_t>(old_path.size()) - 1;
          const std::int32_t manh = g.tile_distance(head, tail);
          // Only monotone, bend-capable paths can be re-embedded at
          // constant length.
          if (len != manh || manh < 2) continue;
          const std::vector<tile::TileId> interior(old_path.begin() + 1,
                                                   old_path.end() - 1);
          for (std::size_t k = 1; k < old_path.size(); ++k) {
            g.remove_wire(g.edge_between(old_path[k - 1], old_path[k]));
          }
          double old_cost = 0.0;
          for (std::size_t k = 1; k < old_path.size(); ++k) {
            old_cost += route::soft_wire_cost(
                g, g.edge_between(old_path[k - 1], old_path[k]));
          }
          auto [new_path, new_cost] = best_monotone(g, head, tail);

          if (new_cost + 1e-12 < old_cost) {
            // Swap: restore the old usage, rebuild the tree around the
            // new path, and re-commit it wholesale.
            for (std::size_t k = 1; k < old_path.size(); ++k) {
              g.add_wire(g.edge_between(old_path[k - 1], old_path[k]));
            }
            tree.uncommit(g);
            editor.reset(tree);
            editor.remove_path(head, interior, tail);
            editor.add_path(new_path);
            // Pinned tiles (buffer stubs) must survive the prune even
            // when they end a non-sink leaf.
            tree = editor.rebuild([&](tile::TileId t) {
              return pinned && pinned(ti, t);
            });
            tree.commit(g);
            ++result.replaced;
            net_changed = true;
            changed = true;
            done.emplace_back(head, tail);
            break;  // two-path list invalidated; re-derive
          }
          // Reject: restore usage.
          for (std::size_t k = 1; k < old_path.size(); ++k) {
            g.add_wire(g.edge_between(old_path[k - 1], old_path[k]));
          }
          done.emplace_back(head, tail);
        }
      }
    }
    if (!changed) break;
  }
  result.after = g.stats();
  return result;
}

}  // namespace rabid::core
