// Late-flow ECO scenario: what the paper says happens *after* early
// planning (Section II): "nets which generate suboptimal performance or
// lie in timing-critical paths should be re-optimized using more
// accurate timing constraints."
//
// Flow demonstrated on the ami33 benchmark:
//   1. early planning         — the four RABID stages (length rule);
//   2. timing-driven ECO      — van Ginneken rebuffering of the worst
//                               nets, picking power levels and
//                               inverting repeaters per buffer;
//   3. site legalization      — every buffer lands on a concrete
//                               physical site inside its tile;
//   4. spare-site audit       — leftover sites become ECO spares/decap.
//
//   $ ./eco_rebuffer

#include <cstdio>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "report/table.hpp"
#include "tile/sites.hpp"
#include "timing/slew.hpp"

int main() {
  using namespace rabid;
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami33");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  const tile::SiteMap sites = circuits::generate_site_map(spec, graph);

  // 1. Early planning.
  core::Rabid rabid(design, graph);
  rabid.run_all();
  const core::StageStats planned = rabid.snapshot("planned", 0.0);

  // 2. Timing-driven ECO on the 30 worst nets (inverters allowed).
  const core::StageStats eco = rabid.rebuffer_timing_driven(
      30, buffer::BufferLibrary::standard_180nm());

  report::Table table({"step", "#bufs", "max delay (ps)", "avg delay (ps)",
                       "max slew (ps)"});
  auto slews = [&]() {
    double worst = 0.0;
    for (const core::NetState& n : rabid.nets()) {
      worst = std::max(
          worst, timing::evaluate_slews(n.tree, n.buffers, graph).max_ps);
    }
    return worst;
  };
  table.add_row({"after planning", report::fmt(planned.buffers),
                 report::fmt(planned.max_delay_ps, 0),
                 report::fmt(planned.avg_delay_ps, 0),
                 report::fmt(slews(), 0)});
  table.add_row({"after timing ECO", report::fmt(eco.buffers),
                 report::fmt(eco.max_delay_ps, 0),
                 report::fmt(eco.avg_delay_ps, 0),
                 report::fmt(slews(), 0)});
  table.print();

  // The library mix the ECO chose.
  std::int64_t inverters = 0, upsized = 0, total_sized = 0;
  for (const core::NetState& n : rabid.nets()) {
    for (const buffer::BufferType& t : n.buffer_types) {
      ++total_sized;
      if (t.inverting) ++inverters;
      if (t.size > 1.0) ++upsized;
    }
  }
  std::printf(
      "\nECO library mix: %lld sized repeaters (%lld inverting, %lld "
      "above 1x drive)\n",
      static_cast<long long>(total_sized), static_cast<long long>(inverters),
      static_cast<long long>(upsized));

  // 3. Legalize every buffer onto a concrete site.
  std::vector<tile::SiteRequest> requests;
  for (const core::NetState& n : rabid.nets()) {
    for (const route::BufferPlacement& b : n.buffers) {
      const tile::TileId t = n.tree.node(b.node).tile;
      requests.push_back({t, graph.center(t)});
    }
  }
  const tile::LegalizationResult legal =
      tile::legalize_buffers(sites, requests);
  std::printf(
      "legalized %zu buffers onto physical sites "
      "(max displacement %.0f um)\n",
      legal.assignment.size(), legal.max_displacement_um);

  // 4. What's left becomes ECO spares / decap (Section I-B).  MOS decap
  //    at 0.18 um gives ~1.2 pF per unused 400 um^2 site.
  long long free_sites = 0;
  int dry_tiles = 0;  // tiles with sites but none left free
  for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
    if (graph.site_supply(t) == 0) continue;
    const std::int32_t free = graph.site_supply(t) - graph.site_usage(t);
    free_sites += free;
    if (free == 0) ++dry_tiles;
  }
  std::printf(
      "spare sites: %lld (%.1f nF of decap chip-wide; %d tiles fully "
      "consumed)\n",
      free_sites, static_cast<double>(free_sites) * 1.2 / 1000.0, dry_tiles);
  return 0;
}
