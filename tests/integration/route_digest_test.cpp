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
#include "circuits/random_circuit.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"
#include "eco/stream.hpp"
#include "mcf/mcf.hpp"
#include "obs/counters.hpp"

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
/// The same flow rebuffered with the library's non-inverting cells only
/// (the rebuffer_timing_driven default and rabid_cli --vg).
constexpr std::uint64_t kAmi33VgBuffers = 0xd9fdb89f03ee1fc0ULL;
/// apte planned by the MCF backend with the paper4 library.
constexpr std::uint64_t kApteMcfPaper4 = 0xa6b2553cf76129b6ULL;
/// apte's nets streamed one at a time, in design order, through the
/// streaming planner with the paper4 library.
constexpr std::uint64_t kApteStreamPaper4 = 0xb1f7e4c98fc99ef0ULL;
/// kAmi49Eco with the paper4 library on both the batch plan and the ECO.
constexpr std::uint64_t kAmi49EcoPaper4 = 0x8e15255030466278ULL;

/// Paths that share the per-net re-plan steps (core/replan.hpp) and had
/// no digest of their own: xerox with region-sharded stage 2 (K = 4) on
/// two threads; apte with the stage-4 wire weight at 0.5; apte streamed
/// with the unit library; an MCF plan whose legalization needs repair
/// reroutes; and three chained ECO steps on ami49.
constexpr std::uint64_t kXeroxShards4 = 0x8ad3c048ec8e5cc9ULL;
constexpr std::uint64_t kApteWireWeightHalf = 0xc5b31332ebadbbf3ULL;
constexpr std::uint64_t kApteStreamUnit = 0xaca68ae350fae1e1ULL;
constexpr std::uint64_t kMcfRepair = 0x2ae42603a7ceed68ULL;
constexpr std::uint64_t kAmi49ChainedEco = 0xd709e299111ae280ULL;

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
  rabid.rebuffer_timing_driven(30, buffer::BufferLibrary::standard_180nm());
  EXPECT_EQ(digest(design, graph, rabid.nets()), hex(kAmi33VgInverters));
}

TEST(RouteDigest, Ami33VgBuffersMatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami33");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  rabid.rebuffer_timing_driven(
      30, buffer::BufferLibrary::standard_180nm().buffers_only());
  EXPECT_EQ(digest(design, graph, rabid.nets()), hex(kAmi33VgBuffers));
}

TEST(RouteDigest, ApteMcfPaper4MatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  mcf::McfAllocator alloc(design, graph, paper4_options());
  alloc.plan();
  EXPECT_EQ(digest(design, graph, alloc.nets()), hex(kApteMcfPaper4));
}

/// apte's nets streamed one at a time, in design order, then drained.
std::string apte_stream_digest(const buffer::BufferLibrary& library) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  eco::StreamOptions options;
  options.buffer_library = library;
  netlist::Design header = design;
  header.mutable_nets().clear();
  eco::StreamPlanner planner(std::move(header), graph, options);
  for (const netlist::Net& net : design.nets()) {
    EXPECT_TRUE(planner.add_net(net).ok());
  }
  planner.finish();
  return digest(planner.design(), planner.graph(), planner.nets());
}

TEST(RouteDigest, ApteStreamPaper4MatchesGolden) {
  EXPECT_EQ(apte_stream_digest(paper4_options().buffer_library),
            hex(kApteStreamPaper4));
}

TEST(RouteDigest, ApteStreamUnitMatchesGolden) {
  EXPECT_EQ(apte_stream_digest(buffer::BufferLibrary{}), hex(kApteStreamUnit));
}

/// Full flow of `circuit` under `options`.
std::string flow_digest(std::string_view circuit,
                        const core::RabidOptions& options) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph, options);
  rabid.run_all();
  return digest(design, graph, rabid.nets());
}

TEST(RouteDigest, XeroxShards4MatchesGolden) {
  core::RabidOptions options;
  options.stage2_shards = 4;
  options.threads = 2;
  EXPECT_EQ(flow_digest("xerox", options), hex(kXeroxShards4));
}

TEST(RouteDigest, ApteWireWeightHalfMatchesGolden) {
  core::RabidOptions options;
  options.stage4_wire_weight = 0.5;
  EXPECT_EQ(flow_digest("apte", options), hex(kApteWireWeightHalf));
}

/// RandomCircuit 101 at 0.6 target congestion: rounding leaves overflow
/// that the MCF repair loop rips up and reroutes.
TEST(RouteDigest, McfRepairMatchesGolden) {
  circuits::RandomCircuitOptions rc_options;
  rc_options.target_avg_congestion = 0.6;
  const circuits::RandomCircuit rc(101, rc_options);
  const netlist::Design design = rc.design();
  tile::TileGraph graph = rc.graph(design);
  const obs::Level saved = obs::Registry::instance().level();
  obs::Registry::instance().set_level(obs::Level::kCounters);
  const std::uint64_t before =
      obs::Registry::instance().snapshot()[obs::Counter::kMcfRepairReroutes];
  mcf::McfAllocator alloc(design, graph);
  alloc.plan();
  const std::uint64_t repairs =
      obs::Registry::instance().snapshot()[obs::Counter::kMcfRepairReroutes] -
      before;
  obs::Registry::instance().set_level(saved);
  EXPECT_GT(repairs, 0U);
  EXPECT_EQ(digest(design, graph, alloc.nets()), hex(kMcfRepair));
}

/// ami49 planned, then three chained ECO steps, each re-planned:
///   1. every wire edge at net 0's source tile drops to half its usage
///      (overflow no reroute can clear, so the closure loop escalates
///      through all its iterations); net 3 leaves;
///   2. the tile holding the most buffers loses every site; a copy of
///      net 10 joins;
///   3. a seeded 2% pin move, and a copy of net 30 joins.
TEST(RouteDigest, Ami49ChainedEcoMatchesGolden) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("ami49");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::Rabid rabid(design, graph);
  rabid.run_all();
  eco::IncrementalPlanner planner(design, graph, rabid.nets());
  const auto copy_of = [&](netlist::NetId id, std::string name) {
    netlist::Net net = planner.design().net(id);
    net.name = std::move(name);
    return net;
  };

  eco::Perturbation cut;
  const tile::TileId hub =
      graph.tile_at(planner.design().net(0).source.location);
  tile::TileId around[4];
  for (int k = 0, n = graph.neighbors(hub, around); k < n; ++k) {
    const tile::EdgeId e = graph.edge_between(hub, around[k]);
    cut.wire_edits.push_back({e, graph.wire_usage(e) / 2});
  }
  cut.removed_nets.push_back(3);
  ASSERT_TRUE(planner.replan(cut).ok_status());

  eco::Perturbation sites;
  tile::TileId fullest = 0;
  for (tile::TileId t = 1; t < graph.tile_count(); ++t) {
    if (graph.site_usage(t) > graph.site_usage(fullest)) fullest = t;
  }
  ASSERT_GT(graph.site_usage(fullest), 0);
  sites.site_edits.push_back({fullest, 0});
  sites.added_nets.push_back(copy_of(10, "eco_added_10"));
  ASSERT_TRUE(planner.replan(sites).ok_status());

  eco::Perturbation move =
      eco::random_move_perturbation(planner, 0.02, /*seed=*/3);
  move.added_nets.push_back(copy_of(30, "eco_added_30"));
  ASSERT_TRUE(planner.replan(move).ok_status());

  EXPECT_EQ(digest(planner.design(), planner.graph(), planner.nets()),
            hex(kAmi49ChainedEco));
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
