#include "netlist/io.hpp"

#include <gtest/gtest.h>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "netlist/validate.hpp"

namespace rabid::netlist {
namespace {

Design sample() {
  Design d{"demo", geom::Rect{{0, 0}, {5000, 4000}}};
  d.set_default_length_limit(5);
  d.add_block({"alu", geom::Rect{{100, 100}, {2000, 2000}}, 0.05});
  d.add_block({"rom", geom::Rect{{2500, 2500}, {4500, 3800}}, 0.0});
  Net n1;
  n1.name = "clk_gate";
  n1.source = {{150, 150}, PinKind::kBlock, 0};
  n1.sinks = {{{2600, 2600}, PinKind::kBlock, 1},
              {{0, 3000}, PinKind::kPad, kNoBlock}};
  d.add_net(n1);
  Net n2;
  n2.name = "scan";
  n2.length_limit = 9;
  n2.source = {{5000, 0}, PinKind::kPad, kNoBlock};
  n2.sinks = {{{1000, 1000}, PinKind::kFree, kNoBlock}};
  d.add_net(n2);
  return d;
}

TEST(DesignIo, RoundTripPreservesEverything) {
  const Design a = sample();
  const Design b = design_from_string_checked(to_string(a)).value();
  EXPECT_EQ(b.name(), a.name());
  EXPECT_EQ(b.outline(), a.outline());
  EXPECT_EQ(b.default_length_limit(), a.default_length_limit());
  ASSERT_EQ(b.blocks().size(), a.blocks().size());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(b.blocks()[i].name, a.blocks()[i].name);
    EXPECT_EQ(b.blocks()[i].shape, a.blocks()[i].shape);
    EXPECT_DOUBLE_EQ(b.blocks()[i].site_fraction,
                     a.blocks()[i].site_fraction);
  }
  ASSERT_EQ(b.nets().size(), a.nets().size());
  for (std::size_t i = 0; i < a.nets().size(); ++i) {
    const Net& na = a.nets()[i];
    const Net& nb = b.nets()[i];
    EXPECT_EQ(nb.name, na.name);
    EXPECT_EQ(nb.length_limit, na.length_limit);
    EXPECT_EQ(nb.source.location, na.source.location);
    EXPECT_EQ(nb.source.kind, na.source.kind);
    EXPECT_EQ(nb.source.block, na.source.block);
    ASSERT_EQ(nb.sinks.size(), na.sinks.size());
    for (std::size_t s = 0; s < na.sinks.size(); ++s) {
      EXPECT_EQ(nb.sinks[s].location, na.sinks[s].location);
      EXPECT_EQ(nb.sinks[s].kind, na.sinks[s].kind);
    }
  }
}

TEST(DesignIo, RoundTripIsIdempotent) {
  const Design a = sample();
  const std::string once = to_string(a);
  const std::string twice =
      to_string(design_from_string_checked(once).value());
  EXPECT_EQ(once, twice);
}

/// A negative per-net limit is written out, so the reread design is
/// rejected for the same reason the original fails validate_design.
TEST(DesignIo, NegativeNetLimitStaysInvalidOnARoundTrip) {
  Design a = sample();
  a.mutable_nets()[1].length_limit = -1;
  const core::Status original = validate_design(a);
  ASSERT_FALSE(original);
  const std::string text = to_string(a);
  EXPECT_NE(text.find("net scan -1\n"), std::string::npos) << text;
  const core::Result<Design> reread = design_from_string_checked(text);
  ASSERT_FALSE(reread.ok());
  EXPECT_EQ(reread.status().message(), original.message());
}

TEST(DesignIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "design t\n"
      "\n"
      "outline 0 0 100 100   # trailing comment\n"
      "length_limit 4\n"
      "net n1\n"
      "  source 10 10 free\n"
      "  sink 90 90 free\n"
      "end\n";
  const Design d = design_from_string_checked(text).value();
  EXPECT_EQ(d.name(), "t");
  EXPECT_EQ(d.default_length_limit(), 4);
  EXPECT_EQ(d.nets().size(), 1U);
}

TEST(DesignIo, GeneratedBenchmarkRoundTrips) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const Design a = circuits::generate_design(spec);
  const Design b = design_from_string_checked(to_string(a)).value();
  EXPECT_EQ(b.nets().size(), a.nets().size());
  EXPECT_EQ(b.total_sinks(), a.total_sinks());
  EXPECT_EQ(b.pad_count(), a.pad_count());
  EXPECT_EQ(b.blocks().size(), a.blocks().size());
  // Exact coordinate fidelity (printed at max precision).
  for (std::size_t i = 0; i < a.nets().size(); ++i) {
    EXPECT_EQ(b.nets()[i].source.location, a.nets()[i].source.location);
  }
}

}  // namespace
}  // namespace rabid::netlist
