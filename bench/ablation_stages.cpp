// Ablation study for the design choices DESIGN.md calls out:
//   (a) Prim-Dijkstra alpha (0 = MST, 0.4 = paper, 1 = SPT) in Stage 1;
//   (b) eq.-(1) congestion cost vs plain shortest-path in Stage 2;
//   (c) Stage 4 on/off.
//
// Not a paper table; this quantifies why each ingredient is there.
//
// Usage: ablation_stages [circuit]   (default: hp)

#include <cstdio>
#include <string>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "report/table.hpp"
#include "route/maze.hpp"

namespace {

struct Row {
  std::string label;
  rabid::core::StageStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rabid;
  const std::string circuit = argc > 1 ? argv[1] : "hp";
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);

  std::printf("Ablations on %s\n\n", circuit.c_str());
  report::Table table({"variant", "wireC max", "overflows", "#bufs",
                       "#fails", "wl (mm)", "delay max", "delay avg"});

  auto run = [&](const std::string& label, core::RabidOptions opt,
                 bool stage4, std::int32_t blocked_span = 9) {
    circuits::TilingOptions topt;
    topt.blocked_span = blocked_span;
    tile::TileGraph graph = circuits::build_tile_graph(design, spec, topt);
    core::Rabid rabid(design, graph, opt);
    rabid.run_stage1();
    rabid.run_stage2();
    core::StageStats s = rabid.run_stage3();
    if (stage4) s = rabid.run_stage4();
    using report::fmt;
    table.add_row({label, fmt(s.max_wire_congestion, 2), fmt(s.overflow),
                   fmt(s.buffers), fmt(static_cast<std::int64_t>(s.failed_nets)),
                   fmt(s.wirelength_mm, 0), fmt(s.max_delay_ps, 0),
                   fmt(s.avg_delay_ps, 0)});
  };

  // (a) alpha sweep.
  for (const double alpha : {0.0, 0.4, 1.0}) {
    core::RabidOptions opt;
    opt.pd_alpha = alpha;
    run("alpha=" + report::fmt(alpha, 1), opt, /*stage4=*/true);
  }
  table.add_rule();

  // (b) stage-2 iteration budget (0 = congestion-blind routing kept).
  for (const std::int32_t iters : {0, 1, 3}) {
    core::RabidOptions opt;
    opt.reroute_iterations = iters;
    run("reroute_iters=" + std::to_string(iters), opt, /*stage4=*/true);
  }
  table.add_rule();

  // (c) stage 4 on/off.
  run("no stage 4", {}, /*stage4=*/false);
  run("full RABID", {}, /*stage4=*/true);
  table.add_rule();

  // (b'') stage-3 net ordering (Section III-C picks descending delay).
  {
    core::RabidOptions opt;
    opt.stage3_order = core::Stage3Order::kAscendingDelay;
    run("stage3 order: asc delay", opt, /*stage4=*/true);
    opt.stage3_order = core::Stage3Order::kAsGiven;
    run("stage3 order: netlist", opt, /*stage4=*/true);
  }
  table.add_rule();

  // (c'') footnote 7: stage-4 cost blend (wire weight : buffer weight).
  for (const double ww : {0.25, 1.0, 4.0}) {
    core::RabidOptions opt;
    opt.stage4_wire_weight = ww;
    run("stage4 wire:buf = " + report::fmt(ww, 2) + ":1", opt,
        /*stage4=*/true);
  }
  table.add_rule();

  // (d) the blocked cache region: how many length failures does it cause?
  run("no blocked region", {}, /*stage4=*/true, /*blocked_span=*/0);

  table.print();
  std::printf(
      "\nreading: alpha trades wirelength vs delay; zero reroute\n"
      "iterations leaves overflow; stage 4 trims buffers and failures.\n");
  return 0;
}
