#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"
#include "eco/stream.hpp"
#include "netlist/design.hpp"
#include "netlist/io.hpp"
#include "netlist/validate.hpp"
#include "tile/tile_graph.hpp"

// One net-validity rule (netlist::validate_net) at every boundary a net
// crosses: the design reader, validate_design, an ECO's moved and added
// nets, and a streamed net.  Each boundary must give the same verdict.

namespace rabid::eco {
namespace {

const geom::Rect kOutline{{0.0, 0.0}, {400.0, 400.0}};

/// A net-less design with one block: the host every case net joins.
netlist::Design host() {
  netlist::Design d("host", kOutline);
  d.set_default_length_limit(4);
  d.add_block({"b0", geom::Rect{{0.0, 0.0}, {200.0, 200.0}}, 0.1});
  return d;
}

tile::TileGraph graph_for(const netlist::Design& d) {
  tile::TileGraph g(d.outline(), 4, 4);
  g.set_uniform_wire_capacity(4);
  for (tile::TileId t = 0; t < g.tile_count(); ++t) g.set_site_supply(t, 2);
  return g;
}

/// A valid three-pin net: a block source, two free sinks.
netlist::Net valid_net() {
  netlist::Net n;
  n.name = "n";
  n.source = {{50.0, 50.0}, netlist::PinKind::kBlock, 0};
  n.sinks = {{{350.0, 50.0}, netlist::PinKind::kFree, netlist::kNoBlock},
             {{250.0, 350.0}, netlist::PinKind::kFree, netlist::kNoBlock}};
  return n;
}

void write_pin(std::ostream& out, const char* tag, const netlist::Pin& p) {
  static const char* const kKinds[] = {"block", "pad", "free"};
  out << "  " << tag << ' ' << p.location.x << ' ' << p.location.y << ' '
      << kKinds[static_cast<int>(p.kind)];
  if (p.kind == netlist::PinKind::kBlock) out << ' ' << p.block;
  out << '\n';
}

/// `host()` plus `net` as design text.  The net line always carries the
/// limit and width (write_design omits a non-positive limit); a nameless
/// net is a bare `net` line, the only way the format can spell it.
std::string design_text(const netlist::Net& net) {
  std::ostringstream out;
  netlist::write_design(out, host());
  out << "net " << net.name;
  if (!net.name.empty()) out << ' ' << net.length_limit << ' ' << net.width;
  out << '\n';
  write_pin(out, "source", net.source);
  for (const netlist::Pin& s : net.sinks) write_pin(out, "sink", s);
  out << "end\n";
  return out.str();
}

/// A host with one planned net ("base"), adopted by an ECO planner.
struct Planned {
  std::unique_ptr<tile::TileGraph> graph;
  std::unique_ptr<IncrementalPlanner> planner;
};

Planned planned() {
  netlist::Design d = host();
  netlist::Net base = valid_net();
  base.name = "base";
  d.add_net(base);
  Planned p;
  p.graph = std::make_unique<tile::TileGraph>(graph_for(d));
  core::Rabid rabid(d, *p.graph);
  rabid.run_all();
  p.planner = std::make_unique<IncrementalPlanner>(d, *p.graph, rabid.nets());
  return p;
}

struct Verdicts {
  bool reader = false;
  bool validate = false;
  bool eco_move = false;
  bool eco_add = false;
  bool stream = false;
};

Verdicts verdicts(const netlist::Net& net) {
  Verdicts v;
  v.reader = netlist::design_from_string_checked(design_text(net)).ok();

  netlist::Design whole = host();
  whole.mutable_nets().push_back(net);  // add_net would assert on no sinks
  v.validate = static_cast<bool>(netlist::validate_design(whole));

  Planned move = planned();
  Perturbation p_move;
  p_move.moved_nets.push_back({0, net});
  v.eco_move = move.planner->replan(p_move).ok_status();

  Planned add = planned();
  Perturbation p_add;
  p_add.added_nets.push_back(net);
  v.eco_add = add.planner->replan(p_add).ok_status();

  const netlist::Design header = host();
  tile::TileGraph g = graph_for(header);
  StreamPlanner stream(header, g);
  v.stream = stream.add_net(net).ok();
  return v;
}

struct Case {
  const char* name;
  bool valid;
  void (*mutate)(netlist::Net&);
};

TEST(InputContract, EveryBoundaryGivesTheSameVerdict) {
  const Case cases[] = {
      {"valid", true, [](netlist::Net&) {}},
      {"duplicate sink", true,
       [](netlist::Net& n) { n.sinks.push_back(n.sinks.front()); }},
      {"no sinks", false, [](netlist::Net& n) { n.sinks.clear(); }},
      {"width 0", false, [](netlist::Net& n) { n.width = 0; }},
      {"negative limit", false, [](netlist::Net& n) { n.length_limit = -1; }},
      {"NaN coordinate", false,
       [](netlist::Net& n) {
         n.sinks.front().location.x = std::numeric_limits<double>::quiet_NaN();
       }},
      {"pin outside the outline", false,
       [](netlist::Net& n) { n.sinks.front().location = {999.0, 50.0}; }},
      {"unknown block", false, [](netlist::Net& n) { n.source.block = 5; }},
      {"empty name", false, [](netlist::Net& n) { n.name.clear(); }},
  };
  for (const Case& c : cases) {
    netlist::Net net = valid_net();
    c.mutate(net);
    const Verdicts v = verdicts(net);
    EXPECT_EQ(v.reader, c.valid) << c.name << ": design reader";
    EXPECT_EQ(v.validate, c.valid) << c.name << ": validate_design";
    EXPECT_EQ(v.eco_move, c.valid) << c.name << ": ECO move";
    EXPECT_EQ(v.eco_add, c.valid) << c.name << ": ECO add";
    EXPECT_EQ(v.stream, c.valid) << c.name << ": stream";
  }
}

/// A stream session knows its blocks: every apte net (all pins on
/// blocks or pads) is admitted, and the session's design validates.
TEST(InputContract, StreamedAptePassesValidateDesign) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  netlist::Design header = design;
  header.mutable_nets().clear();
  StreamPlanner planner(std::move(header), graph);
  for (const netlist::Net& net : design.nets()) {
    EXPECT_TRUE(planner.add_net(net).ok()) << net.name;
  }
  planner.finish();
  EXPECT_EQ(planner.design().nets().size(), design.nets().size());
  const core::Status s = netlist::validate_design(planner.design());
  EXPECT_TRUE(s) << s.to_string();
  EXPECT_TRUE(planner.audit().clean());
}

/// An ECO move that snaps two sinks of one net onto the same location
/// (as random_move_perturbation can) leaves a design that validates.
TEST(InputContract, EcoMoveCreatingADuplicateSinkKeepsTheDesignValid) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  IncrementalPlanner planner(design, graph, rabid.nets());

  netlist::NetId id = 0;
  while (design.net(id).sinks.size() < 2) ++id;
  NetMove move{id, design.net(id)};
  move.replacement.sinks[1] = move.replacement.sinks[0];
  Perturbation p;
  p.moved_nets.push_back(move);
  ASSERT_TRUE(planner.replan(p).ok_status());
  const core::Status s = netlist::validate_design(planner.design());
  EXPECT_TRUE(s) << s.to_string();
  const core::AuditReport audit = planner.audit();
  EXPECT_TRUE(audit.clean()) << audit.summary();
}

/// A planned design whose nets repeat a sink survives both text formats
/// byte for byte, and the reloaded solution audits clean.
TEST(InputContract, DuplicateSinkDesignRoundTripsBothFormats) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  netlist::Design design = circuits::generate_design(spec);
  for (std::size_t i = 0; i < design.nets().size(); i += 7) {
    netlist::Net& n = design.mutable_nets()[i];
    n.sinks.push_back(n.sinks.front());
  }
  ASSERT_TRUE(netlist::validate_design(design));
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  const core::AuditReport flow_audit = rabid.audit();
  EXPECT_TRUE(flow_audit.clean()) << flow_audit.summary();

  const std::string design_dump = netlist::to_string(design);
  const core::Result<netlist::Design> reread =
      netlist::design_from_string_checked(design_dump);
  ASSERT_TRUE(reread.ok()) << reread.status().to_string();
  EXPECT_EQ(netlist::to_string(reread.value()), design_dump);

  std::stringstream first;
  core::write_solution(first, design, graph, rabid.nets());
  const std::string solution_dump = first.str();
  const core::Result<core::LoadedSolution> loaded =
      core::read_solution_checked(first, design, graph);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  std::ostringstream second;
  core::write_solution(second, design, graph, loaded.value().nets);
  EXPECT_EQ(second.str(), solution_dump);
  const core::AuditReport audit =
      core::SolutionAuditor(design, graph).audit(loaded.value().nets);
  EXPECT_TRUE(audit.clean()) << audit.summary();
}

}  // namespace
}  // namespace rabid::eco
