#include "mcf/mcf.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "buffer/insertion.hpp"
#include "core/buffer_commit.hpp"
#include "core/replan.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rabid::mcf {

namespace {

/// Price stand-in for a zero-capacity resource: large enough that the
/// oracle never elects it while any real alternative exists, finite so
/// the wavefront always completes.
constexpr double kBlockedPrice = route::kOverflowPenalty;

/// Nets per parallel oracle task.  Fixed — not derived from the thread
/// count — so the block decomposition (and with it every result) is
/// identical at any thread count; large enough to amortize one
/// MazeRouter's scratch across the block.
constexpr std::size_t kOracleBlock = 64;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_tree(const route::RouteTree& a, const route::RouteTree& b) {
  if (a.node_count() != b.node_count()) return false;
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    const route::RouteNode& x = a.node(static_cast<route::NodeId>(i));
    const route::RouteNode& y = b.node(static_cast<route::NodeId>(i));
    if (x.tile != y.tile || x.parent != y.parent ||
        x.sink_count != y.sink_count) {
      return false;
    }
  }
  return true;
}

}  // namespace

McfAllocator::McfAllocator(const netlist::Design& design,
                           tile::TileGraph& graph,
                           core::RabidOptions options, McfOptions mcf)
    : Allocator(design, graph, std::move(options)), mcf_(mcf) {
  RABID_ASSERT_MSG(options_.deadline_ms == 0.0,
                   "MCF does not support deadlines");
  RABID_ASSERT_MSG(mcf_.phases > 0, "MCF needs at least one phase");
  wire_price_.resize(static_cast<std::size_t>(graph_.edge_count()));
  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const std::int32_t cap = graph_.wire_capacity(e);
    wire_price_[static_cast<std::size_t>(e)] =
        cap > 0 ? 1.0 / static_cast<double>(cap) : kBlockedPrice;
  }
  site_price_.resize(static_cast<std::size_t>(graph_.tile_count()));
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    const std::int32_t supply = graph_.site_supply(t);
    site_price_[static_cast<std::size_t>(t)] =
        supply > 0 ? 1.0 / static_cast<double>(supply) : kBlockedPrice;
  }
  candidates_.resize(design_.nets().size());
}

void McfAllocator::run_phase(util::ThreadPool* pool) {
  const std::size_t n = design_.nets().size();
  // Step 1: the frozen snapshot IS wire_price_/site_price_ — prices only
  // move in step 4, after every oracle call of the phase returned.
  const std::span<const double> wire_cost(wire_price_);
  double floor = kBlockedPrice;
  for (const double p : wire_price_) floor = std::min(floor, p);
  const auto q = [this](tile::TileId t) {
    return site_price_[static_cast<std::size_t>(t)];
  };

  // Step 2: the per-net buffered-path oracle, in fixed-size blocks.
  std::vector<OracleResult> results(n);
  const auto run_block = [&](std::size_t begin) {
    route::MazeRouter router(graph_);
    const std::size_t end = std::min(n, begin + kOracleBlock);
    for (std::size_t i = begin; i < end; ++i) {
      const auto id = static_cast<netlist::NetId>(i);
      const netlist::Net& net = design_.net(id);
      route::RouteTree tree =
          router.route_net(net, options_.pd_alpha, wire_cost, floor);
      buffer::InsertionResult ins = buffer::insert_buffers_relaxed(
          tree, design_.length_limit(id), q, options_.buffer_library);
      results[i] = {std::move(tree), std::move(ins)};
    }
  };
  if (pool != nullptr) {
    std::vector<std::future<void>> futures;
    for (std::size_t b = 0; b < n; b += kOracleBlock) {
      futures.push_back(pool->submit([&run_block, b] { run_block(b); }));
    }
    for (std::future<void>& f : futures) f.get();
  } else {
    for (std::size_t b = 0; b < n; b += kOracleBlock) run_block(b);
  }
  obs::count(obs::Counter::kMcfOracleRoutes, n);

  // Step 3: pool candidates and accumulate integer phase usage, serial
  // in net order.
  std::vector<std::int64_t> use_w(static_cast<std::size_t>(graph_.edge_count()),
                                  0);
  std::vector<std::int64_t> use_b(static_cast<std::size_t>(graph_.tile_count()),
                                  0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<netlist::NetId>(i);
    OracleResult& r = results[i];
    const std::int32_t width = design_.net(id).width;
    for (const route::RouteNode& node : r.tree.nodes()) {
      if (node.parent == route::kNoNode) continue;
      const tile::EdgeId e =
          graph_.edge_between(node.tile, r.tree.node(node.parent).tile);
      use_w[static_cast<std::size_t>(e)] += width;
    }
    for (const route::BufferPlacement& b : r.insertion.buffers) {
      use_b[static_cast<std::size_t>(r.tree.node(b.node).tile)] += 1;
    }

    std::vector<Candidate>& cands = candidates_[i];
    const auto match =
        std::find_if(cands.begin(), cands.end(), [&](const Candidate& c) {
          return same_tree(c.tree, r.tree) &&
                 c.insertion.buffers == r.insertion.buffers &&
                 c.insertion.types == r.insertion.types;
        });
    if (match != cands.end()) {
      ++match->count;
    } else {
      Candidate c;
      c.tree = std::move(r.tree);
      c.insertion = std::move(r.insertion);
      c.count = 1;
      cands.push_back(std::move(c));
      obs::count(obs::Counter::kMcfCandidatesKept);
    }
  }

  // Step 4: multiplicative price bump by phase usage over capacity.
  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const std::int32_t cap = graph_.wire_capacity(e);
    if (cap <= 0) continue;
    wire_price_[static_cast<std::size_t>(e)] *=
        1.0 + mcf_.epsilon *
                  static_cast<double>(use_w[static_cast<std::size_t>(e)]) /
                  static_cast<double>(cap);
  }
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    const std::int32_t supply = graph_.site_supply(t);
    if (supply <= 0) continue;
    site_price_[static_cast<std::size_t>(t)] *=
        1.0 + mcf_.epsilon *
                  static_cast<double>(use_b[static_cast<std::size_t>(t)]) /
                  static_cast<double>(supply);
  }
  obs::count(obs::Counter::kMcfPhases);
}

bool McfAllocator::fits(const netlist::NetId id, const Candidate& cand) const {
  const std::int32_t width = design_.net(id).width;
  const auto full = [&](tile::EdgeId e) {
    return graph_.wire_usage(e) + width > graph_.wire_capacity(e);
  };
  return !core::any_arc(graph_, cand.tree, full) &&
         core::buffers_fit(graph_, cand.tree, cand.insertion.buffers);
}

std::vector<core::StageStats> McfAllocator::plan() {
  RABID_ASSERT_MSG(stage_history_.empty(), "plan() already ran");
  const auto start = std::chrono::steady_clock::now();
  const std::size_t workers = util::resolve_thread_count(options_.threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (workers >= 2) pool = std::make_unique<util::ThreadPool>(workers);

  // Fractional epsilon-approximate solve.
  for (std::int32_t p = 0; p < mcf_.phases; ++p) run_phase(pool.get());

  // Randomized rounding: sample each net's candidate with probability
  // count/P from a per-net stream — independent of thread count and of
  // every other net.
  const std::size_t n = design_.nets().size();
  std::vector<std::size_t> choice(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Candidate>& cands = candidates_[i];
    std::int64_t total = 0;
    for (const Candidate& c : cands) total += c.count;
    util::Rng rng(mcf_.round_seed ^
                  (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(i) + 1)));
    std::int64_t pick = rng.uniform_int(0, total - 1);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      pick -= cands[c].count;
      if (pick < 0) {
        choice[i] = c;
        break;
      }
    }
  }

  // Hard-capacity legalization, serial in net order: the rounded choice
  // first, the remaining candidates by fractional weight, a fresh
  // congestion-aware route when nothing fits.
  route::MazeRouter router(graph_);
  route::EdgeCostCache cache(
      graph_, [this](tile::EdgeId e) { return route::soft_wire_cost(graph_, e); });
  cache.refresh_all();
  // Fresh congestion-aware route for a net no candidate fits (or one
  // under repair), buffered under live eq. (2) costs: infinite at full
  // tiles, so b(v) <= B(v) holds by construction.
  const auto route_fallback = [&](netlist::NetId id) {
    core::NetState& state = nets_[static_cast<std::size_t>(id)];
    core::maze_route(graph_, state, design_.net(id), options_.pd_alpha,
                     router, cache);
    core::buffer_net(graph_, state, design_.length_limit(id),
                     options_.buffer_library);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<netlist::NetId>(i);
    const std::vector<Candidate>& cands = candidates_[i];
    std::vector<std::size_t> order(cands.size());
    for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cands[a].count > cands[b].count;
                     });
    const auto chosen = std::find(order.begin(), order.end(), choice[i]);
    if (chosen != order.end()) order.erase(chosen);
    order.insert(order.begin(), choice[i]);

    const auto fitting = [&](std::size_t c) { return fits(id, cands[c]); };
    const auto fit = std::ranges::find_if(order, fitting);
    if (fit == order.end()) {
      obs::count(obs::Counter::kMcfRoundingFallbacks);
      route_fallback(id);
      continue;
    }
    // fits() held, so the candidate's buffering books on the first try.
    const Candidate& cand = cands[*fit];
    core::NetState& state = nets_[i];
    state.tree = cand.tree;
    core::commit_wires(graph_, state, design_.net(id).width, cache);
    core::commit_buffers(graph_, state, design_.length_limit(id),
                         options_.buffer_library,
                         [&](std::span<const tile::TileId>) {
                           return cand.insertion;
                         });
  }
  core::refresh_delays(graph_, design_, nets_, options_.tech, pool.get());
  stage_history_.push_back(core::solution_snapshot(
      graph_, nets_, "mcf-round", seconds_since(start), threads()));

  // Bounded overflow repair: rip up and reroute nets riding an edge
  // whose usage exceeds capacity (possible only via fallback routes).
  const auto repair_start = std::chrono::steady_clock::now();
  for (std::int32_t iter = 0; iter < mcf_.repair_iterations; ++iter) {
    std::vector<std::uint8_t> over(static_cast<std::size_t>(graph_.edge_count()),
                                   0);
    bool any = false;
    for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
      if (graph_.wire_usage(e) > graph_.wire_capacity(e)) {
        over[static_cast<std::size_t>(e)] = 1;
        any = true;
      }
    }
    if (!any) break;
    const auto crossed = [&](tile::EdgeId e) {
      return over[static_cast<std::size_t>(e)] != 0;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!core::any_arc(graph_, nets_[i].tree, crossed)) continue;
      const auto id = static_cast<netlist::NetId>(i);
      obs::count(obs::Counter::kMcfRepairReroutes);
      core::rip_net(graph_, nets_[i], design_.net(id).width, cache);
      route_fallback(id);
    }
  }
  core::refresh_delays(graph_, design_, nets_, options_.tech, pool.get());
  stage_history_.push_back(core::solution_snapshot(
      graph_, nets_, "mcf-repair", seconds_since(repair_start), threads()));

  maybe_audit("final", /*final_stage=*/true);
  return stage_history_;
}

}  // namespace rabid::mcf
