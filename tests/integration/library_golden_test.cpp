#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "books.hpp"
#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"

namespace rabid {
namespace {

/// The library-equivalence goldens: an *explicit* unit buffer library
/// (the "unit" preset, which is also the RabidOptions default) must
/// reproduce the historical single-type flow byte for byte — same
/// buffers / failed-net / arc pins, and the same solution dump to the
/// last character.  This is the contract that lets one multi-type
/// engine serve the paper's single-type flow: nothing upstream or
/// downstream of the DP may notice the library plumbing at all.

std::string run_and_dump(const char* circuit, const core::RabidOptions& opt,
                         std::int64_t* buffers, std::int64_t* fails,
                         std::int64_t* arcs) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph, opt);
  const auto stats = rabid.run_all();
  *buffers = stats[3].buffers;
  *fails = stats[3].failed_nets;
  *arcs = 0;
  for (const core::NetState& n : rabid.nets()) {
    *arcs += n.tree.wirelength_tiles();
  }
  std::ostringstream out;
  core::write_solution(out, design, graph, rabid.nets());
  return out.str();
}

void check_circuit(const char* circuit, std::int64_t want_buffers,
                   std::int64_t want_fails, std::int64_t want_arcs) {
  core::RabidOptions defaults;
  core::RabidOptions explicit_unit;
  ASSERT_TRUE(
      buffer::BufferLibrary::preset("unit", &explicit_unit.buffer_library));

  std::int64_t b0 = 0, f0 = 0, a0 = 0;
  std::int64_t b1 = 0, f1 = 0, a1 = 0;
  const std::string base = run_and_dump(circuit, defaults, &b0, &f0, &a0);
  const std::string unit = run_and_dump(circuit, explicit_unit, &b1, &f1, &a1);

  // The historical pins (see golden_test.cpp / EXPERIMENTS.md)...
  EXPECT_EQ(b0, want_buffers) << circuit;
  EXPECT_EQ(f0, want_fails) << circuit;
  EXPECT_EQ(a0, want_arcs) << circuit;
  // ...hold identically under the explicit library...
  EXPECT_EQ(b1, want_buffers) << circuit;
  EXPECT_EQ(f1, want_fails) << circuit;
  EXPECT_EQ(a1, want_arcs) << circuit;
  // ...and the dumps agree to the byte.
  EXPECT_EQ(base, unit) << circuit << ": dumps diverge";
}

TEST(LibraryGolden, ApteUnitLibraryIsByteIdentical) {
  check_circuit("apte", 483, 6, 2823);
}

TEST(LibraryGolden, HpUnitLibraryIsByteIdentical) {
  check_circuit("hp", 467, 7, 2907);
}

TEST(LibraryGolden, Ami49UnitLibraryIsByteIdentical) {
  check_circuit("ami49", 1458, 27, 8542);
}

/// A multi-type run differs from the unit run only in ways the library
/// is *supposed* to cause: the flow completes, the audit-relevant
/// invariants hold (checked in depth elsewhere), and every committed
/// buffer carries a type tag from the library.
TEST(LibraryGolden, Paper4RunTagsEveryBuffer) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions opt;
  ASSERT_TRUE(buffer::BufferLibrary::preset("paper4", &opt.buffer_library));
  core::Rabid rabid(design, graph, opt);
  const auto stats = rabid.run_all();
  EXPECT_GT(stats[3].buffers, 0);
  for (const core::NetState& n : rabid.nets()) {
    // A multi-type run tags one cell per buffer; only bufferless nets
    // may have an empty tag list.
    if (n.buffer_types.empty()) {
      EXPECT_TRUE(n.buffers.empty());
    } else {
      EXPECT_EQ(n.buffer_types.size(), n.buffers.size());
    }
  }
  EXPECT_TRUE(rabid::test::books_balance(rabid));
}

}  // namespace
}  // namespace rabid
