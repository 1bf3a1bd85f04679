#include <gtest/gtest.h>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "netlist/io.hpp"
#include "timing/delay.hpp"

namespace rabid {
namespace {

TEST(WideWires, ScaledTechnologyPhysics) {
  const timing::Technology w1 = timing::kTech180nm;
  const timing::Technology w2 = timing::scaled_for_width(w1, 2);
  EXPECT_DOUBLE_EQ(w2.wire_res_per_um, w1.wire_res_per_um / 2.0);
  EXPECT_DOUBLE_EQ(w2.wire_cap_per_um, w1.wire_cap_per_um * 1.65);
  // Buffers unchanged.
  EXPECT_DOUBLE_EQ(w2.buffer_res, w1.buffer_res);
  // Width 1 is the identity.
  EXPECT_DOUBLE_EQ(timing::scaled_for_width(w1, 1).wire_res_per_um,
                   w1.wire_res_per_um);
}

TEST(WideWires, FasterWhenWireResistanceDominates) {
  // The distributed-RC product drops (r/2 * 1.65c = 0.825 rc), so wide
  // wires win exactly when wire resistance dominates — i.e. behind a
  // strong driver (which is how thick-metal routes are driven).  Behind
  // a weak driver the extra capacitance can cancel the gain; both
  // regimes are asserted.
  tile::TileGraph g(geom::Rect{{0, 0}, {16000, 1000}}, 16, 1);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 15; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);

  timing::Technology strong = timing::kTech180nm;
  strong.driver_res = 20.0;  // repeater-class driver
  const double thin = timing::evaluate_delay(t, g, strong).max_ps;
  const double wide =
      timing::evaluate_delay(t, g, timing::scaled_for_width(strong, 2))
          .max_ps;
  EXPECT_LT(wide, thin);

  // Weak-driver regime: the 1.65x capacitance costs more than the
  // halved resistance saves; wide is NOT automatically better.
  const double thin_weak = timing::evaluate_delay(t, g).max_ps;
  const double wide_weak =
      timing::evaluate_delay(
          t, g, timing::scaled_for_width(timing::kTech180nm, 2))
          .max_ps;
  EXPECT_GT(wide_weak, thin_weak * 0.95);
}

TEST(WideWires, CommitConsumesWidthTracks) {
  tile::TileGraph g(geom::Rect{{0, 0}, {400, 100}}, 4, 1);
  g.set_uniform_wire_capacity(4);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  cur = t.add_child(cur, g.id_of({1, 0}));
  cur = t.add_child(cur, g.id_of({2, 0}));
  t.add_sink(cur);
  t.commit(g, 2);
  EXPECT_EQ(g.wire_usage(g.edge_between(g.id_of({0, 0}), g.id_of({1, 0}))),
            2);
  t.uncommit(g, 2);
  EXPECT_EQ(g.wire_usage(0), 0);
}

TEST(WideWires, IoRoundTripsWidthAndLimit) {
  netlist::Design d("w", geom::Rect{{0, 0}, {1000, 1000}});
  d.set_default_length_limit(4);
  netlist::Net bus;
  bus.name = "bus";
  bus.width = 2;
  bus.length_limit = 6;
  bus.source = {{10, 10}, netlist::PinKind::kFree, netlist::kNoBlock};
  bus.sinks = {{{900, 900}, netlist::PinKind::kFree, netlist::kNoBlock}};
  d.add_net(bus);
  netlist::Net wide_default_l;
  wide_default_l.name = "wdl";
  wide_default_l.width = 3;
  wide_default_l.source = {{20, 20}, netlist::PinKind::kFree,
                           netlist::kNoBlock};
  wide_default_l.sinks = {{{800, 800}, netlist::PinKind::kFree,
                           netlist::kNoBlock}};
  d.add_net(wide_default_l);

  const netlist::Design back =
      netlist::design_from_string_checked(netlist::to_string(d)).value();
  EXPECT_EQ(back.nets()[0].width, 2);
  EXPECT_EQ(back.nets()[0].length_limit, 6);
  EXPECT_EQ(back.nets()[1].width, 3);
  EXPECT_EQ(back.nets()[1].length_limit, 0);  // defaulted
}

TEST(WideWires, DecompositionKeepsWidth) {
  netlist::Design d("w2", geom::Rect{{0, 0}, {1000, 1000}});
  netlist::Net n;
  n.name = "n";
  n.width = 2;
  n.source = {{10, 10}, netlist::PinKind::kFree, netlist::kNoBlock};
  n.sinks = {{{900, 900}, netlist::PinKind::kFree, netlist::kNoBlock},
             {{900, 100}, netlist::PinKind::kFree, netlist::kNoBlock}};
  d.add_net(n);
  const netlist::Design two = netlist::Design::decompose_to_two_pin(d);
  EXPECT_EQ(two.nets()[0].width, 2);
  EXPECT_EQ(two.nets()[1].width, 2);
}

TEST(WideWires, FullFlowWithThickMetalVariation) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  circuits::DesignVariations var;
  var.thick_metal_fraction = 0.25;
  var.thick_metal_scale = 2.0;
  const netlist::Design d = circuits::generate_design(spec, var);
  std::int32_t wide_nets = 0;
  for (const netlist::Net& n : d.nets()) {
    if (n.width == 2) {
      ++wide_nets;
      EXPECT_EQ(n.length_limit, 12);
    }
  }
  ASSERT_GT(wide_nets, 5);

  tile::TileGraph g = circuits::build_tile_graph(d, spec);
  core::Rabid rabid(d, g);
  const auto stats = rabid.run_all();
  // Width-aware bookkeeping must balance exactly.
  EXPECT_TRUE(rabid::test::books_balance(rabid));
  EXPECT_EQ(stats.back().overflow, 0);
  // Wide nets are allowed 2x the spacing: fewer buffers per tile-length.
  double wide_rate = 0.0, thin_rate = 0.0;
  std::int64_t wwl = 0, twl = 0, wb = 0, tb = 0;
  for (std::size_t i = 0; i < rabid.nets().size(); ++i) {
    const core::NetState& n = rabid.nets()[i];
    if (d.nets()[i].width == 2) {
      wwl += n.tree.wirelength_tiles();
      wb += static_cast<std::int64_t>(n.buffers.size());
    } else {
      twl += n.tree.wirelength_tiles();
      tb += static_cast<std::int64_t>(n.buffers.size());
    }
  }
  ASSERT_GT(wwl, 0);
  wide_rate = static_cast<double>(wb) / static_cast<double>(wwl);
  thin_rate = static_cast<double>(tb) / static_cast<double>(twl);
  EXPECT_LT(wide_rate, thin_rate);
}

TEST(WideWires, CongestionPostSkipsWideNets) {
  // With the post-pass on, wide-net usage bookkeeping must still balance.
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  circuits::DesignVariations var;
  var.thick_metal_fraction = 0.3;
  const netlist::Design d = circuits::generate_design(spec, var);
  tile::TileGraph g = circuits::build_tile_graph(d, spec);
  core::RabidOptions opt;
  opt.congestion_post_after_stage2 = true;
  core::Rabid rabid(d, g, opt);
  rabid.run_stage1();
  rabid.run_stage2();
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

}  // namespace
}  // namespace rabid
