#include <gtest/gtest.h>

#include <vector>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "netlist/validate.hpp"
#include "route/maze.hpp"

namespace rabid {
namespace {

// Degenerate and boundary configurations the main tests never hit.

TEST(EdgeCases, OneByOneTileGraph) {
  tile::TileGraph g(geom::Rect{{0, 0}, {100, 100}}, 1, 1);
  EXPECT_EQ(g.tile_count(), 1);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.tile_at({50, 50}), 0);
  const tile::CongestionStats s = g.stats();
  EXPECT_DOUBLE_EQ(s.max_wire_congestion, 0.0);
  EXPECT_TRUE(g.wire_feasible());
}

TEST(EdgeCases, SingleTileDesignFullFlow) {
  // Every pin in one tile: no wires, no buffers, everything feasible.
  netlist::Design d("dot", geom::Rect{{0, 0}, {1000, 1000}});
  d.set_default_length_limit(2);
  netlist::Net n;
  n.name = "n";
  n.source = {{100, 100}, netlist::PinKind::kFree, netlist::kNoBlock};
  n.sinks = {{{200, 200}, netlist::PinKind::kFree, netlist::kNoBlock},
             {{300, 300}, netlist::PinKind::kFree, netlist::kNoBlock}};
  d.add_net(n);
  tile::TileGraph g(d.outline(), 2, 2);
  g.set_uniform_wire_capacity(2);
  g.set_site_supply(0, 1);
  core::Rabid rabid(d, g);
  const auto stats = rabid.run_all();
  EXPECT_EQ(stats.back().buffers, 0);
  EXPECT_EQ(stats.back().failed_nets, 0);
  EXPECT_DOUBLE_EQ(stats.back().wirelength_mm, 0.0);
  EXPECT_GT(stats.back().max_delay_ps, 0.0);  // driver + 2 sink loads
}

TEST(EdgeCases, NetAcrossFullDiagonalOfThinGrid) {
  // 1-row grid: no detour freedom at all.
  netlist::Design d("thin", geom::Rect{{0, 0}, {10000, 500}});
  d.set_default_length_limit(3);
  netlist::Net n;
  n.name = "n";
  n.source = {{50, 250}, netlist::PinKind::kFree, netlist::kNoBlock};
  n.sinks = {{{9950, 250}, netlist::PinKind::kFree, netlist::kNoBlock}};
  d.add_net(n);
  tile::TileGraph g(d.outline(), 20, 1);
  g.set_uniform_wire_capacity(1);
  for (tile::TileId t = 0; t < g.tile_count(); ++t) g.set_site_supply(t, 1);
  core::Rabid rabid(d, g);
  const auto stats = rabid.run_all();
  EXPECT_EQ(stats.back().overflow, 0);
  EXPECT_EQ(stats.back().failed_nets, 0);
  // 19 arcs under L=3 need ceil(19/3)-1 = 6 buffers at least.
  EXPECT_GE(stats.back().buffers, 6);
}

TEST(EdgeCases, ZeroCapacityEdgeCostIsOverflowTier) {
  tile::TileGraph g(geom::Rect{{0, 0}, {300, 100}}, 3, 1);
  g.set_uniform_wire_capacity(0);
  EXPECT_GE(route::soft_wire_cost(g, 0), route::kOverflowPenalty);
  // Routing still completes (with overflow) rather than hanging.
  route::MazeRouter router(g);
  const std::vector<double> cost(static_cast<std::size_t>(g.edge_count()),
                                 route::soft_wire_cost(g, 0));
  const auto path =
      router.shortest_path(g.id_of({0, 0}), g.id_of({2, 0}), cost);
  EXPECT_EQ(path.size(), 3U);
}

TEST(EdgeCases, OverBlockCapacityFactorReducesOnlyCoveredEdges) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design d = circuits::generate_design(spec);
  circuits::TilingOptions opt;
  opt.over_block_capacity_factor = 0.5;
  const tile::TileGraph g = circuits::build_tile_graph(d, spec, opt);
  const tile::TileGraph base = circuits::build_tile_graph(d, spec);
  std::int32_t reduced = 0, untouched = 0;
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.wire_capacity(e) < base.wire_capacity(e)) {
      ++reduced;
      EXPECT_EQ(g.wire_capacity(e), base.wire_capacity(e) / 2);
    } else {
      EXPECT_EQ(g.wire_capacity(e), base.wire_capacity(e));
      ++untouched;
    }
  }
  // hp's macros cover most of the die: many reduced edges, some channels.
  EXPECT_GT(reduced, 100);
  EXPECT_GT(untouched, 50);
  // Site distribution unchanged (same stream).
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    EXPECT_EQ(g.site_supply(t), base.site_supply(t));
  }
}

TEST(EdgeCases, FullFlowSurvivesReducedOverBlockCapacity) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design d = circuits::generate_design(spec);
  circuits::TilingOptions opt;
  opt.over_block_capacity_factor = 0.6;
  tile::TileGraph g = circuits::build_tile_graph(d, spec, opt);
  core::Rabid rabid(d, g);
  const auto stats = rabid.run_all();
  // Tighter fabric, but stage 2/4 must still resolve it.
  EXPECT_EQ(stats.back().overflow, 0);
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

TEST(EdgeCases, PinExactlyOnChipCorner) {
  netlist::Design d("corner", geom::Rect{{0, 0}, {1000, 1000}});
  d.set_default_length_limit(4);
  netlist::Net n;
  n.name = "n";
  n.source = {{0, 0}, netlist::PinKind::kPad, netlist::kNoBlock};
  n.sinks = {{{1000, 1000}, netlist::PinKind::kPad, netlist::kNoBlock}};
  d.add_net(n);
  EXPECT_TRUE(netlist::validate_design(d));
  tile::TileGraph g(d.outline(), 4, 4);
  g.set_uniform_wire_capacity(2);
  for (tile::TileId t = 0; t < g.tile_count(); ++t) g.set_site_supply(t, 1);
  core::Rabid rabid(d, g);
  const auto stats = rabid.run_all();
  EXPECT_EQ(stats.back().failed_nets, 0);
  EXPECT_EQ(rabid.nets()[0].tree.node(rabid.nets()[0].tree.root()).tile,
            g.id_of({0, 0}));
  EXPECT_TRUE(rabid.nets()[0].tree.contains(g.id_of({3, 3})));
}

}  // namespace
}  // namespace rabid
