// Seed-to-instance mapping checks (run by ctest in this package):
//   * one seed gives byte-identical netlist::to_string output twice;
//   * two seeds give different netlists;
//   * every seeded copy keeps the spec's nets, sinks, grid, L and sites.

#include <cstdio>
#include <string>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "netlist/io.hpp"
#include "seeds.hpp"

namespace {

using namespace rabid;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

std::string text(const circuits::CircuitSpec& spec) {
  return netlist::to_string(circuits::generate_design(spec));
}

}  // namespace

int main() {
  expect(perfbench::seeded_name("apte", 0) == "apte", "seed 0 keeps the name");
  expect(perfbench::seeded_name("apte", 7) == "apte-s7", "seed 7 renames");
  expect(perfbench::derive_seed(3, 1) == perfbench::derive_seed(3, 1) &&
             perfbench::derive_seed(3, 1) != perfbench::derive_seed(3, 2) &&
             perfbench::derive_seed(3, 1) != perfbench::derive_seed(4, 1),
         "derive_seed is a function of both arguments");

  const perfbench::SeededCircuits seed7(circuits::table1_specs(), 7);
  const perfbench::SeededCircuits seed7_again(circuits::table1_specs(), 7);
  const perfbench::SeededCircuits seed8(circuits::table1_specs(), 8);
  const perfbench::SeededCircuits seed0(circuits::table1_specs(), 0);
  for (std::size_t i = 0; i < seed7.size(); ++i) {
    const circuits::CircuitSpec& base = circuits::table1_specs()[i];
    const std::string name(base.name);
    expect(text(seed0[i]) == text(base), name + ": seed 0 is the canonical circuit");
    const std::string a = text(seed7[i]);
    expect(a == text(seed7_again[i]), name + ": seed 7 is reproducible");
    expect(a != text(seed8[i]), name + ": seeds 7 and 8 differ");

    for (const perfbench::SeededCircuits* s : {&seed7, &seed8}) {
      const circuits::CircuitSpec& spec = (*s)[i];
      const netlist::Design d = circuits::generate_design(spec);
      const tile::TileGraph g = circuits::build_tile_graph(d, spec);
      expect(static_cast<std::int32_t>(d.nets().size()) == base.nets,
             name + ": net count");
      expect(static_cast<std::int32_t>(d.total_sinks()) == base.sinks,
             name + ": sink count");
      expect(g.nx() == base.grid_x && g.ny() == base.grid_y, name + ": grid");
      expect(d.default_length_limit() == base.length_limit, name + ": L");
      expect(g.total_site_supply() == base.buffer_sites, name + ": sites");
    }
  }
  if (failures == 0) std::printf("seeds_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
