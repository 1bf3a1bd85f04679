#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/twopath.hpp"
#include "route/maze.hpp"
#include "util/rng.hpp"

namespace rabid::core {
namespace {

/// Exhaustive reference for the (tile x L) Dijkstra: enumerate all
/// simple-per-state walks by DFS with cost pruning.  Tiny grids only.
double brute_force_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            std::span<const double> wire_cost,
                            std::span<const double> buffer_cost) {
  // Dynamic program over the same state space but computed by value
  // iteration (Bellman-Ford style) — an independent formulation.
  const auto n_states =
      static_cast<std::size_t>(g.tile_count()) * static_cast<std::size_t>(L);
  auto state_of = [&](tile::TileId t, std::int32_t j) {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(L) +
           static_cast<std::size_t>(j);
  };
  std::vector<double> dist(n_states,
                           std::numeric_limits<double>::infinity());
  dist[state_of(from, 0)] = 0.0;
  for (std::size_t round = 0; round <= n_states; ++round) {
    bool changed = false;
    for (tile::TileId t = 0; t < g.tile_count(); ++t) {
      for (std::int32_t j = 0; j < L; ++j) {
        const double d = dist[state_of(t, j)];
        if (!std::isfinite(d)) continue;
        if (j > 0) {
          const double q = buffer_cost[static_cast<std::size_t>(t)];
          if (std::isfinite(q) && d + q < dist[state_of(t, 0)] - 1e-15) {
            dist[state_of(t, 0)] = d + q;
            changed = true;
          }
        }
        if (j + 1 < L) {
          tile::TileId nbr[4];
          const int cnt = g.neighbors(t, nbr);
          for (int k = 0; k < cnt; ++k) {
            const double nd = d + wire_cost[static_cast<std::size_t>(
                                      g.edge_between(t, nbr[k]))];
            if (nd < dist[state_of(nbr[k], j + 1)] - 1e-15) {
              dist[state_of(nbr[k], j + 1)] = nd;
              changed = true;
            }
          }
        }
      }
    }
    if (!changed) break;
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::int32_t j = 0; j < L; ++j) {
    best = std::min(best, dist[state_of(to, j)]);
  }
  return best;
}

class TwoPathOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoPathOptimality, DijkstraMatchesValueIteration) {
  util::Rng rng(GetParam() * 104729);
  tile::TileGraph g(geom::Rect{{0, 0}, {500, 500}}, 5, 5);
  g.set_uniform_wire_capacity(3);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto w = static_cast<std::int32_t>(rng.uniform_int(0, 2));
    for (std::int32_t k = 0; k < w; ++k) g.add_wire(e);
  }
  std::vector<double> qv(static_cast<std::size_t>(g.tile_count()));
  for (double& q : qv) {
    q = rng.chance(0.2) ? std::numeric_limits<double>::infinity()
                        : rng.uniform(0.1, 4.0);
  }
  std::vector<double> wire(static_cast<std::size_t>(g.edge_count()));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    wire[static_cast<std::size_t>(e)] = route::soft_wire_cost(g, e);
  }

  for (int probe = 0; probe < 6; ++probe) {
    const auto a =
        static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    const auto b =
        static_cast<tile::TileId>(rng.uniform_int(0, g.tile_count() - 1));
    const auto L = static_cast<std::int32_t>(rng.uniform_int(2, 5));
    const TwoPathRoute got = route_two_path(g, a, b, L, wire, qv);
    const double want = brute_force_two_path(g, a, b, L, wire, qv);
    if (std::isinf(want)) {
      EXPECT_TRUE(std::isinf(got.cost));
    } else {
      EXPECT_NEAR(got.cost, want, 1e-9)
          << "seed=" << GetParam() << " a=" << a << " b=" << b << " L=" << L;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoPathOptimality,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rabid::core
