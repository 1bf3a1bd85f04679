#include "netlist/design.hpp"

#include <gtest/gtest.h>

#include "netlist/validate.hpp"

namespace rabid::netlist {
namespace {

Design make_design() {
  Design d{"t", geom::Rect{{0, 0}, {100, 100}}};
  d.add_block({"b0", geom::Rect{{10, 10}, {40, 40}}, 0.05});
  d.add_block({"b1", geom::Rect{{60, 60}, {90, 90}}, 0.0});
  Net n1;
  n1.name = "n1";
  n1.source = {{15, 15}, PinKind::kBlock, 0};
  n1.sinks = {{{70, 70}, PinKind::kBlock, 1}, {{0, 50}, PinKind::kPad, kNoBlock}};
  d.add_net(n1);
  Net n2;
  n2.name = "n2";
  n2.source = {{100, 0}, PinKind::kPad, kNoBlock};
  n2.sinks = {{{30, 30}, PinKind::kBlock, 0}};
  n2.length_limit = 9;
  d.add_net(n2);
  return d;
}

TEST(Design, CountsPinsAndSinks) {
  const Design d = make_design();
  EXPECT_EQ(d.nets().size(), 2U);
  EXPECT_EQ(d.blocks().size(), 2U);
  EXPECT_EQ(d.total_sinks(), 3U);
  EXPECT_EQ(d.pad_count(), 2U);
}

TEST(Design, LengthLimitFallsBackToDefault) {
  Design d = make_design();
  d.set_default_length_limit(5);
  EXPECT_EQ(d.length_limit(0), 5);  // n1 uses the default
  EXPECT_EQ(d.length_limit(1), 9);  // n2 has its own
}

TEST(Design, InvariantsHoldForValidDesign) {
  const Design d = make_design();
  EXPECT_TRUE(validate_design(d));
}

TEST(Design, TwoPinDecompositionSplitsEverySink) {
  const Design d = make_design();
  const Design two = Design::decompose_to_two_pin(d);
  EXPECT_EQ(two.nets().size(), 3U);  // 2 + 1 sinks
  EXPECT_EQ(two.total_sinks(), 3U);
  for (const Net& n : two.nets()) {
    EXPECT_EQ(n.sinks.size(), 1U);
  }
  // Sources replicate; per-net length limits survive.
  EXPECT_EQ(two.net(0).source.location, d.net(0).source.location);
  EXPECT_EQ(two.net(1).source.location, d.net(0).source.location);
  EXPECT_EQ(two.net(2).length_limit, 9);
  // Blocks carried over.
  EXPECT_EQ(two.blocks().size(), 2U);
}

TEST(Design, TwoPinDecompositionPreservesDefaults) {
  Design d = make_design();
  d.set_default_length_limit(7);
  const Design two = Design::decompose_to_two_pin(d);
  EXPECT_EQ(two.default_length_limit(), 7);
  EXPECT_EQ(two.length_limit(0), 7);
}

}  // namespace
}  // namespace rabid::netlist
