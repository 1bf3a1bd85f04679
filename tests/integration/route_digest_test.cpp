#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"

namespace rabid {
namespace {

/// Route-identity goldens: a 64-bit FNV-1a digest of the whole solution
/// dump (core::write_solution) for runs whose routes must not move under
/// a pure speed change.  The dump holds only integer tile arcs and
/// buffer placements, so the digest is independent of the compiler and
/// the platform.  A search or pruning change that claims to leave every
/// route bit-identical keeps these values; an intended algorithm change
/// re-pins them and says why in the same commit.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

struct Pin {
  std::string_view circuit;
  std::uint64_t digest;
};

void PrintTo(const Pin& pin, std::ostream* os) { *os << pin.circuit; }

/// Default options, every Table-I circuit.
constexpr Pin kTableOne[] = {
    {"apte", 0x941326cfb671e353ULL},    {"xerox", 0xfab62cba40db8436ULL},
    {"hp", 0x2d01c1e2bf676f35ULL},      {"ami33", 0x50c3d56f8135ab80ULL},
    {"ami49", 0xb0ef22b93de552c3ULL},   {"playout", 0xb26a70945a6650cdULL},
    {"ac3", 0xce828451ada689dbULL},     {"xc5", 0x04e77da422a6635eULL},
    {"hc7", 0x5c6ae9f2a00b298dULL},     {"a9c3", 0x97893080bca945f2ULL},
};

/// ami49 batch plan, then one seeded ECO: random_move_perturbation over
/// 5% of the nets, seed 1, re-planned by the incremental planner (its
/// default stage-4 polish included).
constexpr std::uint64_t kAmi49Eco = 0xac55421a3598a880ULL;

class RouteDigestTableOne : public ::testing::TestWithParam<Pin> {};

TEST_P(RouteDigestTableOne, SolutionDumpMatchesGolden) {
  const Pin pin = GetParam();
  const circuits::CircuitSpec& spec = circuits::spec_by_name(pin.circuit);
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  std::ostringstream dump;
  core::write_solution(dump, design, graph, rabid.nets());
  EXPECT_EQ(hex(fnv1a64(dump.str())), hex(pin.digest)) << pin.circuit;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, RouteDigestTableOne, ::testing::ValuesIn(kTableOne),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.circuit);
    });

TEST(RouteDigest, Ami49EcoReplanMatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami49");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  const core::RabidOptions options;
  core::Rabid rabid(design, graph, options);
  rabid.run_all();
  eco::EcoOptions eco;
  eco.tech = options.tech;
  eco.buffer_library = options.buffer_library;
  eco::IncrementalPlanner planner(design, graph, rabid.nets(), eco);
  const eco::Perturbation p =
      eco::random_move_perturbation(planner, 0.05, /*seed=*/1);
  ASSERT_FALSE(p.moved_nets.empty());
  ASSERT_TRUE(planner.replan(p).ok_status());
  std::ostringstream dump;
  core::write_solution(dump, planner.design(), planner.graph(),
                       planner.nets());
  EXPECT_EQ(hex(fnv1a64(dump.str())), hex(kAmi49Eco));
}

}  // namespace
}  // namespace rabid
