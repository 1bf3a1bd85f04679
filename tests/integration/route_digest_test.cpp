#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"
#include "eco/stream.hpp"
#include "mcf/mcf.hpp"

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

/// The multi-type paths: every buffer in these dumps carries its cell
/// name, so the digests pin the chosen types as well as the routes.
constexpr Pin kPaper4[] = {
    {"apte", 0xdb9b83c312ec852dULL},
    {"hp", 0x02289a45f53acd89ULL},
};
/// ami33, then the 30 worst nets rebuffered by van Ginneken over the
/// standard 0.18 um library with inverters.
constexpr std::uint64_t kAmi33VgInverters = 0x154a269f70470308ULL;
/// apte planned by the MCF backend with the paper4 library.
constexpr std::uint64_t kApteMcfPaper4 = 0xa6b2553cf76129b6ULL;
/// apte's nets streamed one at a time, in design order, through the
/// streaming planner with the paper4 library.
constexpr std::uint64_t kApteStreamPaper4 = 0xb1f7e4c98fc99ef0ULL;
/// kAmi49Eco with the paper4 library on both the batch plan and the ECO.
constexpr std::uint64_t kAmi49EcoPaper4 = 0x8e15255030466278ULL;

std::string digest(const netlist::Design& design, const tile::TileGraph& graph,
                   std::span<const core::NetState> nets) {
  std::ostringstream dump;
  core::write_solution(dump, design, graph, nets);
  return hex(fnv1a64(dump.str()));
}

core::RabidOptions paper4_options() {
  core::RabidOptions options;
  EXPECT_TRUE(buffer::BufferLibrary::preset("paper4", &options.buffer_library));
  return options;
}

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

/// Batch plan of ami49 under `options`, then the seeded 5% move ECO.
std::string ami49_eco_digest(const core::RabidOptions& options) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami49");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph, options);
  rabid.run_all();
  eco::EcoOptions eco;
  eco.tech = options.tech;
  eco.buffer_library = options.buffer_library;
  eco::IncrementalPlanner planner(design, graph, rabid.nets(), eco);
  const eco::Perturbation p =
      eco::random_move_perturbation(planner, 0.05, /*seed=*/1);
  EXPECT_FALSE(p.moved_nets.empty());
  EXPECT_TRUE(planner.replan(p).ok_status());
  return digest(planner.design(), planner.graph(), planner.nets());
}

TEST(RouteDigest, Ami49EcoReplanMatchesGolden) {
  EXPECT_EQ(ami49_eco_digest({}), hex(kAmi49Eco));
}

class RouteDigestPaper4 : public ::testing::TestWithParam<Pin> {};

TEST_P(RouteDigestPaper4, SolutionDumpMatchesGolden) {
  const Pin pin = GetParam();
  const circuits::CircuitSpec& spec = circuits::spec_by_name(pin.circuit);
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph, paper4_options());
  rabid.run_all();
  EXPECT_EQ(digest(design, graph, rabid.nets()), hex(pin.digest))
      << pin.circuit;
}

INSTANTIATE_TEST_SUITE_P(
    Paper4, RouteDigestPaper4, ::testing::ValuesIn(kPaper4),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.circuit);
    });

TEST(RouteDigest, Ami33VgInvertersMatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami33");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  rabid.rebuffer_timing_driven(30, buffer::BufferLibrary::standard_180nm(),
                               /*use_inverters=*/true);
  EXPECT_EQ(digest(design, graph, rabid.nets()), hex(kAmi33VgInverters));
}

TEST(RouteDigest, ApteMcfPaper4MatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  mcf::McfAllocator alloc(design, graph, paper4_options());
  alloc.plan();
  EXPECT_EQ(digest(design, graph, alloc.nets()), hex(kApteMcfPaper4));
}

TEST(RouteDigest, ApteStreamPaper4MatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  eco::StreamOptions options;
  options.buffer_library = paper4_options().buffer_library;
  eco::StreamPlanner planner(design.name(), design.outline(),
                             design.default_length_limit(), graph, options);
  for (const netlist::Net& net : design.nets()) {
    ASSERT_TRUE(planner.add_net(net).ok());
  }
  planner.finish();
  EXPECT_EQ(digest(planner.design(), planner.graph(), planner.nets()),
            hex(kApteStreamPaper4));
}

/// Type tags are values: a copy of a multi-type solution stays valid
/// after the Rabid that planned it is gone.  The adopting planner holds
/// an equal library of its own, and its audit and dump read every tag.
TEST(LibraryLifetime, AdoptedTagsOutliveTheirRabid) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  std::vector<core::NetState> nets;
  {
    core::Rabid rabid(design, graph, paper4_options());
    rabid.run_all();
    nets = rabid.nets();
  }
  eco::EcoOptions eco;
  eco.buffer_library = paper4_options().buffer_library;
  eco::IncrementalPlanner planner(design, graph, std::move(nets), eco);
  const core::AuditReport report = planner.audit();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(digest(planner.design(), planner.graph(), planner.nets()),
            hex(kPaper4[0].digest));
}

TEST(RouteDigest, Ami49EcoPaper4ReplanMatchesGolden) {
  EXPECT_EQ(ami49_eco_digest(paper4_options()), hex(kAmi49EcoPaper4));
}

}  // namespace
}  // namespace rabid
