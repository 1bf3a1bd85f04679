#include "bbp/bbp.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"

namespace rabid::bbp {
namespace {

/// Two-pin design with one macro block occupying the middle of the die.
struct Fixture {
  netlist::Design design;
  tile::TileGraph graph;

  Fixture() : design("bbp-toy", geom::Rect{{0, 0}, {10000, 10000}}),
              graph(design.outline(), 10, 10) {
    design.set_default_length_limit(4);
    design.add_block(
        {"big", geom::Rect{{2000, 2000}, {8000, 8000}}, 0.0});
    auto add2 = [&](geom::Point a, geom::Point b) {
      netlist::Net n;
      n.name = "n";
      n.source = {a, netlist::PinKind::kFree, netlist::kNoBlock};
      n.sinks = {{b, netlist::PinKind::kFree, netlist::kNoBlock}};
      design.add_net(std::move(n));
    };
    add2({500, 500}, {9500, 9500});
    add2({500, 9500}, {9500, 500});
    add2({500, 5000}, {9500, 5000});
    add2({5000, 500}, {5000, 9500});
    graph.set_uniform_wire_capacity(4);
  }
};

TEST(Bbp, RequiresTwoPinNets) {
  Fixture f;
  // (Multi-pin rejection is a contract assertion; valid input runs.)
  BbpAllocator bbp(f.design, f.graph);
  const std::vector<core::StageStats> stats = bbp.plan();
  ASSERT_EQ(stats.size(), 1U);
  EXPECT_EQ(stats.back().stage, "bbp");
  EXPECT_EQ(bbp.nets().size(), 4U);
  EXPECT_GT(stats.back().wirelength_mm, 0.0);
}

TEST(Bbp, BuffersOnlyInFreeSpace) {
  Fixture f;
  BbpAllocator(f.design, f.graph).plan();
  const geom::Rect block{{2000, 2000}, {8000, 8000}};
  for (tile::TileId t = 0; t < f.graph.tile_count(); ++t) {
    if (f.graph.site_usage(t) > 0) {
      EXPECT_FALSE(block.contains(f.graph.center(t)))
          << "buffer inside the macro at tile " << t;
    }
  }
}

TEST(Bbp, LongNetsGetBuffers) {
  Fixture f;
  const core::StageStats s = BbpAllocator(f.design, f.graph).plan().back();
  // 14+ mm nets in 0.18um need repeaters under a 1.1x-optimal constraint.
  EXPECT_GT(s.buffers, 0);
  EXPECT_GT(mtap_pct(f.graph, 400.0), 0.0);
}

TEST(Bbp, DelaysNearConstraint) {
  Fixture f;
  BbpAllocator bbp(f.design, f.graph);
  bbp.plan();
  ASSERT_EQ(bbp.constraints_ps().size(), bbp.nets().size());
  for (std::size_t i = 0; i < bbp.nets().size(); ++i) {
    const double constraint = bbp.constraints_ps()[i];
    EXPECT_GT(constraint, 0.0);
    // Snapping can miss the constraint, but never absurdly (5x).
    EXPECT_LT(bbp.nets()[i].delay.max_ps, 5.0 * constraint);
  }
}

TEST(Bbp, MtapComputation) {
  tile::TileGraph g(geom::Rect{{0, 0}, {1000, 1000}}, 2, 2);
  for (int k = 0; k < 10; ++k) g.add_buffer_unchecked(1);
  for (int k = 0; k < 3; ++k) g.add_buffer_unchecked(2);
  // Tile area 250000 um^2; 10 buffers x 400 um^2 = 4000 -> 1.6%.
  EXPECT_DOUBLE_EQ(mtap_pct(g, 400.0), 1.6);
}

TEST(Bbp, DeterministicOnBenchmarkCircuit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design base = circuits::generate_design(spec);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(base);
  tile::TileGraph g1 = circuits::build_tile_graph(two, spec);
  tile::TileGraph g2 = circuits::build_tile_graph(two, spec);
  const core::StageStats r1 = BbpAllocator(two, g1).plan().back();
  const core::StageStats r2 = BbpAllocator(two, g2).plan().back();
  EXPECT_EQ(r1.buffers, r2.buffers);
  EXPECT_DOUBLE_EQ(r1.wirelength_mm, r2.wirelength_mm);
  EXPECT_DOUBLE_EQ(r1.max_delay_ps, r2.max_delay_ps);
}

TEST(Bbp, BenchmarkCircuitShapeChecks) {
  // The qualitative Table V signature on a real circuit: buffers
  // concentrated (MTAP well above RABID's sub-1% level).
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design base = circuits::generate_design(spec);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(base);
  tile::TileGraph g = circuits::build_tile_graph(two, spec);
  const core::StageStats r = BbpAllocator(two, g).plan().back();
  EXPECT_GT(r.buffers, 100);
  EXPECT_GT(mtap_pct(g, circuits::kBufferSiteAreaUm2), 1.0);
  EXPECT_GT(r.max_delay_ps, 0.0);
  EXPECT_LE(r.avg_delay_ps, r.max_delay_ps);
}


TEST(Bbp, CongestionPostReducesOverflowKeepsBuffers) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami33");
  const netlist::Design base = circuits::generate_design(spec);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(base);
  tile::TileGraph g = circuits::build_tile_graph(two, spec);
  core::RabidOptions options;
  options.congestion_post_after_stage2 = true;
  BbpAllocator bbp(two, g, options);
  const std::vector<core::StageStats> stats = bbp.plan();
  ASSERT_EQ(stats.size(), 2U);
  const core::StageStats& before = stats[0];
  const core::StageStats& after = stats[1];
  EXPECT_EQ(after.stage, "post");
  EXPECT_LE(after.overflow, before.overflow);
  EXPECT_EQ(after.buffers, before.buffers);  // buffers pinned
  // Wirelength never grows (monotone re-embedding + stub pruning).
  EXPECT_LE(after.wirelength_mm, before.wirelength_mm + 1e-9);
  // Remapped placements, refreshed flags and delays match the books.
  EXPECT_EQ(bbp.audit().error_count(), 0U);
}

TEST(Bbp, TwoPinContractEnforced) {
  netlist::Design d("multi", geom::Rect{{0, 0}, {1000, 1000}});
  netlist::Net n;
  n.name = "n";
  n.source = {{10, 10}, netlist::PinKind::kFree, netlist::kNoBlock};
  n.sinks = {{{900, 900}, netlist::PinKind::kFree, netlist::kNoBlock},
             {{900, 100}, netlist::PinKind::kFree, netlist::kNoBlock}};
  d.add_net(n);
  tile::TileGraph g(d.outline(), 4, 4);
  g.set_uniform_wire_capacity(4);
  EXPECT_DEATH(BbpAllocator(d, g), "two-pin");
}


TEST(Bbp, BufferBlockCounting) {
  tile::TileGraph g(geom::Rect{{0, 0}, {500, 500}}, 5, 5);
  auto book = [&](geom::TileCoord c, int count) {
    for (int k = 0; k < count; ++k) g.add_buffer_unchecked(g.id_of(c));
  };
  // Two clusters: a 2x2 dense patch and one isolated dense tile.
  book({0, 0}, 5);
  book({1, 0}, 6);
  book({0, 1}, 4);
  book({1, 1}, 9);
  book({4, 4}, 4);
  // Below-threshold tiles do not join or bridge clusters.
  book({2, 0}, 3);
  book({3, 0}, 5);
  EXPECT_EQ(count_buffer_blocks(g, 4), 3);
  // Lowering the threshold bridges (2,0): the row merges into one block.
  EXPECT_EQ(count_buffer_blocks(g, 3), 2);
  // Raising it dissolves everything but the 5/6/9 tiles.
  EXPECT_EQ(count_buffer_blocks(g, 9), 1);
  EXPECT_EQ(count_buffer_blocks(g, 10), 0);
}

/// One Table V BBP/FR row (table5_bbp's columns minus CPU).
struct Table5Row {
  double max_wire_congestion;
  double avg_wire_congestion;
  std::int64_t overflow;
  std::int64_t buffers;
  std::int32_t blocks;
  double mtap_pct;
  double wirelength_mm;
  double max_delay_ps;
  double avg_delay_ps;
};

Table5Row table5_bbp_row(std::string_view circuit, bool post) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(
      circuits::generate_design(spec));
  tile::TileGraph graph = circuits::build_tile_graph(two, spec);
  core::RabidOptions options;
  options.congestion_post_after_stage2 = post;
  const core::StageStats r = BbpAllocator(two, graph, options).plan().back();
  return {r.max_wire_congestion, r.avg_wire_congestion, r.overflow,
          r.buffers, count_buffer_blocks(graph),
          mtap_pct(graph, circuits::kBufferSiteAreaUm2), r.wirelength_mm,
          r.max_delay_ps, r.avg_delay_ps};
}

void expect_row(const Table5Row& got, const Table5Row& want) {
  EXPECT_DOUBLE_EQ(got.max_wire_congestion, want.max_wire_congestion);
  EXPECT_DOUBLE_EQ(got.avg_wire_congestion, want.avg_wire_congestion);
  EXPECT_EQ(got.overflow, want.overflow);
  EXPECT_EQ(got.buffers, want.buffers);
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_DOUBLE_EQ(got.mtap_pct, want.mtap_pct);
  EXPECT_DOUBLE_EQ(got.wirelength_mm, want.wirelength_mm);
  EXPECT_DOUBLE_EQ(got.max_delay_ps, want.max_delay_ps);
  EXPECT_DOUBLE_EQ(got.avg_delay_ps, want.avg_delay_ps);
}

// Table V's BBP/FR rows on apte and hp, with and without the post-pass,
// pinned bit for bit (table5_bbp prints them rounded).
TEST(BbpTable5, ApteRowPinned) {
  expect_row(table5_bbp_row("apte", /*post=*/false),
             {2.25, 0.25176056338028169, 291, 309, 19, 1.1111111111111112,
              2316.5999999999999, 2160.7490000000003, 904.18502127659565});
}

TEST(BbpTable5, ApteRowWithPostPinned) {
  expect_row(table5_bbp_row("apte", /*post=*/true),
             {1.75, 0.24771778821074597, 122, 309, 19, 1.1111111111111112,
              2279.4000000000001, 2374.9090000000001, 948.81918439716276});
}

TEST(BbpTable5, HpRowPinned) {
  expect_row(table5_bbp_row("hp", /*post=*/false),
             {2.7000000000000002, 0.2498850574712653, 295, 378, 24,
              1.1428571428571428, 2817.8260556677374, 2043.5069779793876,
              795.53707634785394});
}

TEST(BbpTable5, HpRowWithPostPinned) {
  expect_row(table5_bbp_row("hp", /*post=*/true),
             {1.6000000000000001, 0.24528735632183876, 50, 378, 24,
              1.1428571428571428, 2765.9801300804756, 2863.9619053371803,
              844.62696244855351});
}

TEST(Bbp, EmergentBlocksConcentratedVsDiffuse) {
  // The Fig. 1 phenomenon, quantified on a benchmark: BBP/FR piles
  // buffers into few dense clusters, RABID's site usage stays diffuse.
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami33");
  const netlist::Design base = circuits::generate_design(spec);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(base);

  tile::TileGraph bg = circuits::build_tile_graph(two, spec);
  BbpAllocator(two, bg).plan();
  tile::TileGraph rg = circuits::build_tile_graph(two, spec);
  core::Rabid(two, rg).run_all();
  // Discrete buffer blocks exist on the BBP side (Fig. 1 shows dozens).
  EXPECT_GT(count_buffer_blocks(bg), 5);
  // The discriminator is concentration, not component count: BBP's
  // hottest tile holds several times more buffers than RABID's.
  std::int32_t bbp_peak = 0, rabid_peak = 0;
  for (tile::TileId t = 0; t < bg.tile_count(); ++t) {
    bbp_peak = std::max(bbp_peak, bg.site_usage(t));
    rabid_peak = std::max(rabid_peak, rg.site_usage(t));
  }
  EXPECT_GE(bbp_peak, 2 * rabid_peak);
}

TEST(Bbp, WideNetBooksAuditClean) {
  // A two-track net books width units of w(e) on every edge it crosses
  // and is timed under the width-scaled technology, with or without the
  // post-pass (which leaves the wide net's route alone).
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  netlist::Design two = netlist::Design::decompose_to_two_pin(
      circuits::generate_design(spec));
  two.mutable_nets()[0].width = 2;
  for (const bool post : {false, true}) {
    tile::TileGraph g = circuits::build_tile_graph(two, spec);
    core::RabidOptions options;
    options.congestion_post_after_stage2 = post;
    BbpAllocator bbp(two, g, options);
    bbp.plan();
    const core::AuditReport report = bbp.audit();
    EXPECT_EQ(report.error_count(), 0U) << report.summary();
  }
}

}  // namespace
}  // namespace rabid::bbp
