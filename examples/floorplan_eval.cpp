// Floorplan evaluation — the paper's motivating use case (Section II):
// "Buffer and wire planning must be efficiently performed first, then
//  the design can be timed to provide a meaningful worst slack."
//
// Two candidate floorplans of the same netlist are compared.  Timing the
// *unbuffered* designs makes them indistinguishable (both absurdly slow,
// like the paper's -40ns vs -43ns anecdote); running RABID first
// separates them meaningfully.
//
//   $ ./floorplan_eval

#include <algorithm>
#include <cstdio>

#include "circuits/floorplan.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "report/table.hpp"
#include "util/rng.hpp"

namespace {

using namespace rabid;

/// Re-floorplans the blocks of `base` with a different seed, remapping
/// every block pin into the corresponding new block shape.
netlist::Design refloorplan(const netlist::Design& base, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto shapes = circuits::slicing_floorplan(
      base.outline(), static_cast<std::int32_t>(base.blocks().size()), rng);

  netlist::Design out{base.name() + "-alt", base.outline()};
  out.set_default_length_limit(base.default_length_limit());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    netlist::Block b = base.blocks()[i];
    b.shape = shapes[i];
    out.add_block(b);
  }
  auto remap = [&](netlist::Pin p) {
    if (p.kind != netlist::PinKind::kBlock) return p;
    const geom::Rect& from = base.block(p.block).shape;
    const geom::Rect& to = out.block(p.block).shape;
    const double fx = from.width() > 0
                          ? (p.location.x - from.lo().x) / from.width()
                          : 0.5;
    const double fy = from.height() > 0
                          ? (p.location.y - from.lo().y) / from.height()
                          : 0.5;
    p.location = {to.lo().x + fx * to.width(), to.lo().y + fy * to.height()};
    return p;
  };
  for (const netlist::Net& n : base.nets()) {
    netlist::Net copy = n;
    copy.source = remap(copy.source);
    for (netlist::Pin& s : copy.sinks) s = remap(s);
    out.add_net(std::move(copy));
  }
  return out;
}

struct Evaluation {
  double unbuffered_max_ps;
  double unbuffered_worst_slack_ps;
  double planned_worst_slack_ps;
  core::StageStats planned;
};

Evaluation evaluate(const netlist::Design& design,
                    const circuits::CircuitSpec& spec) {
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  // Worst register-to-register slack: every block pin is a register
  // boundary, so each net is one stage of a 5 ns clock with 150 ps
  // clock-to-q and 100 ps setup.
  auto slack = [&]() {
    double worst_delay = 0.0;
    for (const core::NetState& n : rabid.nets()) {
      worst_delay = std::max(worst_delay, n.delay.max_ps);
    }
    return 5000.0 - (150.0 + worst_delay + 100.0);
  };
  const core::StageStats s1 = rabid.run_stage1();
  rabid.run_stage2();
  const double unbuffered_slack = slack();
  rabid.run_stage3();
  Evaluation e;
  e.unbuffered_max_ps = s1.max_delay_ps;
  e.unbuffered_worst_slack_ps = unbuffered_slack;
  e.planned = rabid.run_stage4();
  e.planned_worst_slack_ps = slack();
  return e;
}

}  // namespace

int main() {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("hp");
  const netlist::Design plan_a = circuits::generate_design(spec);
  const netlist::Design plan_b = refloorplan(plan_a, 0xF100F);

  const Evaluation a = evaluate(plan_a, spec);
  const Evaluation b = evaluate(plan_b, spec);

  std::printf("comparing two floorplans of '%s'\n\n", spec.name.data());
  report::Table table({"metric", "floorplan A", "floorplan B"});
  auto row = [&](const char* name, double va, double vb, int prec) {
    table.add_row({name, report::fmt(va, prec), report::fmt(vb, prec)});
  };
  row("unbuffered max delay (ps)", a.unbuffered_max_ps, b.unbuffered_max_ps,
      0);
  row("unbuffered worst slack (ps)", a.unbuffered_worst_slack_ps,
      b.unbuffered_worst_slack_ps, 0);
  row("planned   worst slack (ps)", a.planned_worst_slack_ps,
      b.planned_worst_slack_ps, 0);
  row("planned   max delay (ps)", a.planned.max_delay_ps,
      b.planned.max_delay_ps, 0);
  row("planned   avg delay (ps)", a.planned.avg_delay_ps,
      b.planned.avg_delay_ps, 0);
  row("wirelength (mm)", a.planned.wirelength_mm, b.planned.wirelength_mm, 0);
  row("buffers", static_cast<double>(a.planned.buffers),
      static_cast<double>(b.planned.buffers), 0);
  row("length failures", a.planned.failed_nets, b.planned.failed_nets, 0);
  row("max wire congestion", a.planned.max_wire_congestion,
      b.planned.max_wire_congestion, 2);
  table.print();

  std::printf(
      "\nreading: unbuffered delays are uniformly terrible — they cannot\n"
      "rank floorplans. After buffer/wire planning the delay, congestion\n"
      "and buffer columns expose the floorplans' real difference.\n");
  return 0;
}
