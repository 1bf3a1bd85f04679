#include "core/solution_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace rabid::core {
namespace {

struct Fixture {
  netlist::Design design;
  tile::TileGraph graph;

  Fixture()
      : design("dump-toy", geom::Rect{{0, 0}, {8000, 8000}}),
        graph(design.outline(), 8, 8) {
    design.set_default_length_limit(3);
    util::Rng rng(99);
    for (int i = 0; i < 10; ++i) {
      netlist::Net n;
      n.name = "n" + std::to_string(i);
      n.source = {{rng.uniform(0, 8000), rng.uniform(0, 8000)},
                  netlist::PinKind::kFree,
                  netlist::kNoBlock};
      n.sinks.push_back({{rng.uniform(0, 8000), rng.uniform(0, 8000)},
                         netlist::PinKind::kFree,
                         netlist::kNoBlock});
      design.add_net(std::move(n));
    }
    graph.set_uniform_wire_capacity(6);
    for (tile::TileId t = 0; t < graph.tile_count(); ++t) {
      graph.set_site_supply(t, 3);
    }
  }
};

TEST(SolutionIo, SummaryMatchesSolution) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();

  std::ostringstream out;
  write_solution(out, f.design, f.graph, rabid.nets());
  std::istringstream in(out.str());
  const LoadedSolution loaded =
      read_solution_checked(in, f.design, f.graph).value();

  EXPECT_EQ(loaded.design, "dump-toy");
  EXPECT_EQ(loaded.nx, 8);
  EXPECT_EQ(loaded.ny, 8);
  ASSERT_EQ(loaded.nets.size(), 10U);
  for (std::size_t i = 0; i < rabid.nets().size(); ++i) {
    const NetState& back = loaded.nets[i];
    EXPECT_EQ(back.tree.wirelength_tiles(),
              rabid.nets()[i].tree.wirelength_tiles());
    EXPECT_EQ(back.buffers.size(), rabid.nets()[i].buffers.size());
    EXPECT_EQ(back.meets_length_rule, rabid.nets()[i].meets_length_rule);
  }
}

TEST(SolutionIo, BufferRolesAndCellsPrinted) {
  Fixture f;
  Rabid rabid(f.design, f.graph);
  rabid.run_all();
  rabid.rebuffer_timing_driven(3);

  std::ostringstream out;
  write_solution(out, f.design, f.graph, rabid.nets());
  const std::string text = out.str();
  EXPECT_NE(text.find("buffer "), std::string::npos);
  // The rebuffered nets carry named library cells.
  bool has_cell = text.find("BUF_X") != std::string::npos ||
                  text.find("INV_X") != std::string::npos;
  EXPECT_TRUE(has_cell);
}

TEST(SolutionIo, EmptySolution) {
  netlist::Design d{"empty", geom::Rect{{0, 0}, {100, 100}}};
  tile::TileGraph g(d.outline(), 2, 2);
  std::ostringstream out;
  write_solution(out, d, g, {});
  std::istringstream in(out.str());
  const LoadedSolution s = read_solution_checked(in, d, g).value();
  EXPECT_EQ(s.design, "empty");
  EXPECT_TRUE(s.nets.empty());
}

}  // namespace
}  // namespace rabid::core
