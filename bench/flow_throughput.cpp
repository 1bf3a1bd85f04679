// Throughput microbenchmark for the full planning flow and its stages —
// the engineering counterpart of Table II's CPU column.  Useful for
// catching performance regressions: Section IV-A observes CPU time is
// "almost exclusively dominated by the two rerouting stages", which the
// per-stage timings verify.

#include <benchmark/benchmark.h>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/rabid.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace {

using namespace rabid;

// The observability contract: the default options record nothing, so
// every benchmark here measures the uninstrumented hot paths and the
// BENCH_baseline gate stays meaningful.  Checked at startup — options
// hold a buffer library now, so the check can't be constexpr.
const bool kObsDefaultsOff = [] {
  RABID_ASSERT_MSG(core::RabidOptions{}.obs_level == obs::Level::kOff,
                   "benchmarks assume observability defaults to off");
  return true;
}();

void BM_FullFlow(benchmark::State& state, const char* circuit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  const tile::TileGraph prototype = circuits::build_tile_graph(design, spec);
  for (auto _ : state) {
    tile::TileGraph graph = prototype;
    core::Rabid rabid(design, graph);
    benchmark::DoNotOptimize(rabid.run_all());
  }
}
BENCHMARK_CAPTURE(BM_FullFlow, apte, "apte");
BENCHMARK_CAPTURE(BM_FullFlow, xerox, "xerox");
BENCHMARK_CAPTURE(BM_FullFlow, ami49, "ami49");

void BM_Stage(benchmark::State& state, const char* circuit, int stage) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  const tile::TileGraph prototype = circuits::build_tile_graph(design, spec);
  for (auto _ : state) {
    state.PauseTiming();
    tile::TileGraph graph = prototype;
    core::Rabid rabid(design, graph);
    if (stage >= 2) rabid.run_stage1();
    if (stage >= 3) rabid.run_stage2();
    if (stage >= 4) rabid.run_stage3();
    state.ResumeTiming();
    switch (stage) {
      case 1: benchmark::DoNotOptimize(rabid.run_stage1()); break;
      case 2: benchmark::DoNotOptimize(rabid.run_stage2()); break;
      case 3: benchmark::DoNotOptimize(rabid.run_stage3()); break;
      default: benchmark::DoNotOptimize(rabid.run_stage4()); break;
    }
  }
}
BENCHMARK_CAPTURE(BM_Stage, apte_stage1, "apte", 1);
BENCHMARK_CAPTURE(BM_Stage, apte_stage2, "apte", 2);
BENCHMARK_CAPTURE(BM_Stage, apte_stage3, "apte", 3);
BENCHMARK_CAPTURE(BM_Stage, apte_stage4, "apte", 4);

// Thread scaling of the full flow and of the two parallel per-net
// stages (Arg = RabidOptions::threads).  The solution is bit-identical
// at every point, so the curves chart pure wall-clock scaling.
void BM_FullFlowThreads(benchmark::State& state, const char* circuit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  const tile::TileGraph prototype = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.threads = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    tile::TileGraph graph = prototype;
    core::Rabid rabid(design, graph, options);
    benchmark::DoNotOptimize(rabid.run_all());
  }
}
BENCHMARK_CAPTURE(BM_FullFlowThreads, ami49, "ami49")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void BM_StageThreads(benchmark::State& state, const char* circuit,
                     int stage) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  const tile::TileGraph prototype = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.threads = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tile::TileGraph graph = prototype;
    core::Rabid rabid(design, graph, options);
    if (stage >= 3) {
      rabid.run_stage1();
      rabid.run_stage2();
    }
    state.ResumeTiming();
    if (stage == 1) {
      benchmark::DoNotOptimize(rabid.run_stage1());
    } else {
      benchmark::DoNotOptimize(rabid.run_stage3());
    }
  }
}
BENCHMARK_CAPTURE(BM_StageThreads, ami49_stage1, "ami49", 1)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_StageThreads, ami49_stage3, "ami49", 3)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// The same flow with counters on: the spread against BM_FullFlow/apte
// is the total counting overhead (a relaxed level load per record site
// plus one sharded fetch_add per flush), expected in the noise.  Runs
// last-alphabetically irrelevant: the registry level is raised for the
// run and restored after, so the obs-off benchmarks above stay honest
// regardless of registration order.
void BM_FullFlowObs(benchmark::State& state, const char* circuit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  const netlist::Design design = circuits::generate_design(spec);
  const tile::TileGraph prototype = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.obs_level = obs::Level::kCounters;
  for (auto _ : state) {
    tile::TileGraph graph = prototype;
    core::Rabid rabid(design, graph, options);
    benchmark::DoNotOptimize(rabid.run_all());
  }
  obs::Registry::instance().set_level(obs::Level::kOff);
  obs::Registry::instance().reset();
  RABID_ASSERT_MSG(!obs::counting(),
                   "obs level must return to off after BM_FullFlowObs");
}
BENCHMARK_CAPTURE(BM_FullFlowObs, apte, "apte");

void BM_Generator(benchmark::State& state, const char* circuit) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name(circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::generate_design(spec));
  }
}
BENCHMARK_CAPTURE(BM_Generator, playout, "playout");

}  // namespace

BENCHMARK_MAIN();
