#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "eco/stream.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "netlist/design.hpp"
#include "tile/tile_graph.hpp"

namespace rabid::eco {
namespace {

/// A 4x1 corridor: exactly one path between any two tiles, which makes
/// park/drain behavior fully deterministic.
constexpr std::int32_t kTiles = 4;

tile::TileGraph corridor(std::int32_t wire_capacity,
                         std::int32_t sites_per_tile) {
  tile::TileGraph g(geom::Rect({0.0, 0.0}, {400.0, 100.0}), kTiles, 1);
  g.set_uniform_wire_capacity(wire_capacity);
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    g.set_site_supply(t, sites_per_tile);
  }
  return g;
}

/// The session's net-less design: the corridor's outline, no blocks.
netlist::Design session(std::int32_t default_length_limit) {
  netlist::Design d("stream", geom::Rect({0.0, 0.0}, {400.0, 100.0}));
  d.set_default_length_limit(default_length_limit);
  return d;
}

netlist::Net span_net(const tile::TileGraph& g, const char* name,
                      tile::TileId from, tile::TileId to) {
  netlist::Net net;
  net.name = name;
  net.source.location = g.center(from);
  net.sinks.push_back({g.center(to)});
  return net;
}

/// Recording sink: every (net, event) transition in order.
struct EventLog {
  std::vector<std::pair<netlist::NetId, StreamEvent>> events;
  StreamSink sink() {
    return [this](netlist::NetId id, StreamEvent e) {
      events.emplace_back(id, e);
    };
  }
  std::vector<StreamEvent> of(netlist::NetId id) const {
    std::vector<StreamEvent> out;
    for (const auto& [eid, e] : events) {
      if (eid == id) out.push_back(e);
    }
    return out;
  }
};

TEST(StreamPlanner, PlansDisjointNetsAsTheyArrive) {
  tile::TileGraph g = corridor(/*wire_capacity=*/1, /*sites_per_tile=*/0);
  StreamPlanner planner(session(8), g);
  EventLog log;
  planner.set_event_sink(log.sink());

  const auto a = planner.add_net(span_net(g, "a", 0, 1));
  const auto b = planner.add_net(span_net(g, "b", 2, 3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(planner.is_planned(a.value()));
  EXPECT_TRUE(planner.is_planned(b.value()));
  EXPECT_EQ(planner.parked_count(), 0u);
  EXPECT_EQ(planner.stats().admitted, 2);
  EXPECT_EQ(planner.stats().planned, 2);
  EXPECT_EQ(planner.stats().parked, 0);
  const std::vector<StreamEvent> expected = {StreamEvent::kAdmitted,
                                             StreamEvent::kPlanned};
  EXPECT_EQ(log.of(a.value()), expected);
  EXPECT_EQ(log.of(b.value()), expected);
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, ParksWhenWiresFullAndDrainsOnRemove) {
  tile::TileGraph g = corridor(1, 0);
  StreamPlanner planner(session(8), g);
  EventLog log;
  planner.set_event_sink(log.sink());

  const netlist::NetId a = planner.add_net(span_net(g, "a", 0, 3)).value();
  const netlist::NetId b = planner.add_net(span_net(g, "b", 0, 3)).value();
  EXPECT_TRUE(planner.is_planned(a));
  EXPECT_TRUE(planner.is_parked(b));
  EXPECT_EQ(planner.parked_count(), 1u);
  // Parked nets leave no footprint in the books.
  EXPECT_TRUE(planner.audit().clean());

  ASSERT_TRUE(planner.remove_net(a).ok_status());
  EXPECT_TRUE(planner.is_planned(b));
  EXPECT_EQ(planner.parked_count(), 0u);
  const std::vector<StreamEvent> expected = {
      StreamEvent::kAdmitted, StreamEvent::kParked, StreamEvent::kRetried,
      StreamEvent::kPlanned};
  EXPECT_EQ(log.of(b), expected);
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, DrainsOnWireCapacityRaise) {
  tile::TileGraph g = corridor(1, 0);
  StreamPlanner planner(session(8), g);
  const netlist::NetId a = planner.add_net(span_net(g, "a", 0, 3)).value();
  const netlist::NetId b = planner.add_net(span_net(g, "b", 0, 3)).value();
  EXPECT_TRUE(planner.is_planned(a));
  EXPECT_TRUE(planner.is_parked(b));

  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    planner.set_wire_capacity(e, 2);
  }
  EXPECT_TRUE(planner.is_planned(b));
  EXPECT_EQ(planner.parked_count(), 0u);
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, ParksOnBufferShortageAndDrainsOnSiteRaise) {
  // L = 2 but the net spans 3 tile units: a buffer is mandatory, and
  // with zero site supply the net must park with its wires rolled back.
  tile::TileGraph g = corridor(4, 0);
  StreamPlanner planner(session(2), g);
  const netlist::NetId id = planner.add_net(span_net(g, "long", 0, 3)).value();
  EXPECT_TRUE(planner.is_parked(id));
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(g.wire_usage(e), 0) << "parked net left wires committed";
  }

  planner.set_site_supply(1, 1);
  planner.set_site_supply(2, 1);
  EXPECT_TRUE(planner.is_planned(id));
  EXPECT_FALSE(planner.nets()[static_cast<std::size_t>(id)].buffers.empty());
  EXPECT_GE(g.site_usage(1) + g.site_usage(2), 1);
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, RemoveHandlesParkedAndRejectsDoubleRemove) {
  tile::TileGraph g = corridor(1, 0);
  StreamPlanner planner(session(8), g);
  const netlist::NetId a = planner.add_net(span_net(g, "a", 0, 3)).value();
  const netlist::NetId b = planner.add_net(span_net(g, "b", 0, 3)).value();
  ASSERT_TRUE(planner.is_parked(b));

  ASSERT_TRUE(planner.remove_net(b).ok_status());
  EXPECT_EQ(planner.parked_count(), 0u);
  EXPECT_FALSE(planner.is_planned(b));
  EXPECT_FALSE(planner.remove_net(b).ok_status());
  EXPECT_FALSE(
      planner.remove_net(static_cast<netlist::NetId>(99)).ok_status());
  EXPECT_TRUE(planner.is_planned(a));
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, NoNetIsLostOrDuplicatedAcrossTheSession) {
  tile::TileGraph g = corridor(2, 0);
  StreamPlanner planner(session(8), g);
  EventLog log;
  planner.set_event_sink(log.sink());

  std::vector<netlist::NetId> ids;
  for (int i = 0; i < 5; ++i) {
    const auto r =
        planner.add_net(span_net(g, ("n" + std::to_string(i)).c_str(), 0, 3));
    ASSERT_TRUE(r.ok());
    ids.push_back(r.value());
  }
  // Corridor capacity 2: exactly two fit, three park.
  EXPECT_EQ(planner.parked_count(), 3u);
  ASSERT_TRUE(planner.remove_net(ids[0]).ok_status());
  EXPECT_EQ(planner.parked_count(), 2u);

  std::map<netlist::NetId, int> admitted;
  for (const auto& [id, e] : log.events) {
    if (e == StreamEvent::kAdmitted) ++admitted[id];
  }
  EXPECT_EQ(admitted.size(), ids.size());
  for (const netlist::NetId id : ids) {
    EXPECT_EQ(admitted[id], 1) << "net " << id;
  }
  // Every admitted net is in exactly one steady state.
  int planned = 0, parked = 0, removed = 0;
  for (const netlist::NetId id : ids) {
    if (planner.is_planned(id)) {
      ++planned;
    } else if (planner.is_parked(id)) {
      ++parked;
    } else {
      ++removed;
    }
  }
  EXPECT_EQ(planned, 2);
  EXPECT_EQ(parked, 2);
  EXPECT_EQ(removed, 1);
  EXPECT_TRUE(planner.audit().clean());
}

TEST(StreamPlanner, RejectsStructurallyInvalidNets) {
  tile::TileGraph g = corridor(2, 0);
  StreamPlanner planner(session(8), g);
  netlist::Net sinkless;
  sinkless.name = "sinkless";
  sinkless.source.location = g.center(0);
  EXPECT_FALSE(planner.add_net(sinkless).ok());

  netlist::Net off_chip = span_net(g, "off", 0, 3);
  off_chip.sinks[0].location = {9999.0, 9999.0};
  EXPECT_FALSE(planner.add_net(off_chip).ok());

  netlist::Net zero_width = span_net(g, "zw", 0, 3);
  zero_width.width = 0;
  EXPECT_FALSE(planner.add_net(zero_width).ok());

  EXPECT_EQ(planner.stats().admitted, 0);
  EXPECT_EQ(planner.design().nets().size(), 0u);
}

/// The stream admits what the ECO planner and validate_design admit: a
/// negative length limit is an input error, not a request for the
/// default limit.
TEST(StreamPlanner, RejectsNegativeLengthLimit) {
  tile::TileGraph g = corridor(2, 0);
  StreamPlanner planner(session(8), g);
  netlist::Net negative = span_net(g, "negative", 0, 3);
  negative.length_limit = -1;
  const core::Result<netlist::NetId> r = planner.add_net(negative);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidInput);
  EXPECT_EQ(r.status().context(), "stream");
  EXPECT_EQ(planner.stats().admitted, 0);
  EXPECT_EQ(planner.design().nets().size(), 0u);
  EXPECT_TRUE(planner.add_net(span_net(g, "ok", 0, 3)).ok());
}

}  // namespace
}  // namespace rabid::eco
