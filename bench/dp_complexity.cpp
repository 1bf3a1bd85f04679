// Microbenchmark for Section III-C's complexity claims:
//   single-sink length-based DP ............ O(n L)
//   multi-sink with joins .................. O(m L^2 + n L)
// versus the van Ginneken-style unconstrained candidate set, which the
// array DP degenerates to when L ~ n (arrays of size n -> O(n^2)).  The
// DP keeps dominance-pruned frontiers instead of arrays, so these are
// upper bounds: on random costs the L ~ n chain stays near-linear.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <vector>

#include "buffer/insertion.hpp"
#include "buffer/single_sink.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace rabid;

tile::TileGraph chain_graph(std::int32_t n) {
  return tile::TileGraph(geom::Rect{{0, 0}, {n * 100.0, 100.0}}, n, 1);
}

route::RouteTree chain_tree(const tile::TileGraph& g, std::int32_t len) {
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t x = 1; x <= len; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  t.add_sink(cur);
  return t;
}

std::vector<double> random_costs(std::int32_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> q(static_cast<std::size_t>(n));
  for (double& v : q) v = rng.uniform(0.1, 10.0);
  return q;
}

/// Fig. 6 transcription on chains of growing length; expect ~linear time.
void BM_SingleSinkChain(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const std::vector<double> q = random_costs(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::single_sink_insertion(q, 6));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SingleSinkChain)->Range(64, 8192)->Complexity(benchmark::oN);

/// General tree DP on chains with fixed L: also ~linear.
void BM_TreeDpChainFixedL(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const tile::TileGraph g = chain_graph(n + 1);
  const route::RouteTree t = chain_tree(g, n);
  const std::vector<double> q = random_costs(n + 1, 7);
  const buffer::TileCostFn cost = [&](tile::TileId tl) {
    return q[static_cast<std::size_t>(tl)];
  };
  const buffer::BufferLibrary unit = buffer::BufferLibrary::single_unit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::insert_buffers(t, 6, cost, unit));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TreeDpChainFixedL)->Range(64, 4096)->Complexity(benchmark::oN);

/// The same DP with L ~ n: the unconstrained van Ginneken-style
/// candidate set, quadratic in the worst case (a frontier of n states
/// per node).  Random costs keep the pruned frontiers short.
void BM_TreeDpChainUnconstrainedL(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const tile::TileGraph g = chain_graph(n + 1);
  const route::RouteTree t = chain_tree(g, n);
  const std::vector<double> q = random_costs(n + 1, 7);
  const buffer::TileCostFn cost = [&](tile::TileId tl) {
    return q[static_cast<std::size_t>(tl)];
  };
  const buffer::BufferLibrary unit = buffer::BufferLibrary::single_unit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::insert_buffers(t, n, cost, unit));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TreeDpChainUnconstrainedL)
    ->Range(64, 2048)
    ->Complexity(benchmark::oNSquared);

/// Multi-sink: a comb with m teeth; join work is O(m L^2).
void BM_TreeDpComb(benchmark::State& state) {
  const auto m = static_cast<std::int32_t>(state.range(0));
  tile::TileGraph g(geom::Rect{{0, 0}, {(m + 1) * 200.0, 800.0}},
                    2 * (m + 1), 8);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t k = 1; k <= m; ++k) {
    cur = t.add_child(cur, g.id_of({2 * k - 1, 0}));
    cur = t.add_child(cur, g.id_of({2 * k, 0}));
    route::NodeId tooth = t.add_child(cur, g.id_of({2 * k, 1}));
    tooth = t.add_child(tooth, g.id_of({2 * k, 2}));
    t.add_sink(tooth);
  }
  t.add_sink(cur);
  const buffer::TileCostFn cost = [](tile::TileId) { return 1.0; };
  const buffer::BufferLibrary unit = buffer::BufferLibrary::single_unit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::insert_buffers(t, 6, cost, unit));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_TreeDpComb)->Range(8, 512)->Complexity(benchmark::oN);

/// The DP across library sizes on a realistic mixed tree (a comb):
/// 1 type is what stage 3 runs per net by default; 4 types the real
/// multi-type cost.  Dominance pruning keeps the per-node frontiers
/// near-linear in L, so growing b should scale the time far slower
/// than b x.
void BM_BufferDp(benchmark::State& state, const char* preset) {
  buffer::BufferLibrary lib;
  if (!buffer::BufferLibrary::preset(preset, &lib)) std::abort();
  const std::int32_t m = 64;
  tile::TileGraph g(geom::Rect{{0, 0}, {(m + 1) * 200.0, 800.0}},
                    2 * (m + 1), 8);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t k = 1; k <= m; ++k) {
    cur = t.add_child(cur, g.id_of({2 * k - 1, 0}));
    cur = t.add_child(cur, g.id_of({2 * k, 0}));
    route::NodeId tooth = t.add_child(cur, g.id_of({2 * k, 1}));
    tooth = t.add_child(tooth, g.id_of({2 * k, 2}));
    t.add_sink(tooth);
  }
  t.add_sink(cur);
  const std::vector<double> q = random_costs(g.tile_count(), 13);
  const buffer::TileCostFn cost = [&](tile::TileId tl) {
    return q[static_cast<std::size_t>(tl)];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer::insert_buffers(t, 6, cost, lib));
  }
}
BENCHMARK_CAPTURE(BM_BufferDp, 1types, "unit");
BENCHMARK_CAPTURE(BM_BufferDp, 2types, "paper2");
BENCHMARK_CAPTURE(BM_BufferDp, 4types, "paper4");

/// Stage 3's per-net call with the default library on the same tree,
/// through the explicit single_unit() library the flow passes.  The
/// same call as BM_BufferDp/1types; the row keeps its historical name,
/// under which the per-net unit-library cost has always been tracked.
void BM_BufferDpPlannedUnit(benchmark::State& state) {
  const std::int32_t m = 64;
  tile::TileGraph g(geom::Rect{{0, 0}, {(m + 1) * 200.0, 800.0}},
                    2 * (m + 1), 8);
  route::RouteTree t(g.id_of({0, 0}));
  route::NodeId cur = t.root();
  for (std::int32_t k = 1; k <= m; ++k) {
    cur = t.add_child(cur, g.id_of({2 * k - 1, 0}));
    cur = t.add_child(cur, g.id_of({2 * k, 0}));
    route::NodeId tooth = t.add_child(cur, g.id_of({2 * k, 1}));
    tooth = t.add_child(tooth, g.id_of({2 * k, 2}));
    t.add_sink(tooth);
  }
  t.add_sink(cur);
  const std::vector<double> q = random_costs(g.tile_count(), 13);
  const buffer::TileCostFn cost = [&](tile::TileId tl) {
    return q[static_cast<std::size_t>(tl)];
  };
  const buffer::BufferLibrary lib = buffer::BufferLibrary::single_unit();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        buffer::insert_buffers(t, 6, cost, lib));
  }
}
BENCHMARK(BM_BufferDpPlannedUnit);

}  // namespace

BENCHMARK_MAIN();
