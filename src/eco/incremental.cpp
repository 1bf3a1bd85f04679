#include "eco/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/replan.hpp"
#include "core/twopath.hpp"
#include "netlist/validate.hpp"
#include "obs/counters.hpp"
#include "route/maze.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rabid::eco {

namespace {

/// Rip-up/reroute iterations of the closure loop: the stage-2 cap
/// (RabidOptions::reroute_iterations).
constexpr std::int32_t kClosureIterations = 3;

core::Status bad(std::string message) {
  return core::Status::invalid_input(std::move(message), "perturbation");
}

}  // namespace

IncrementalPlanner::IncrementalPlanner(netlist::Design design,
                                       tile::TileGraph& graph,
                                       std::vector<core::NetState> solution,
                                       EcoOptions options)
    : design_(std::move(design)),
      graph_(graph),
      nets_(std::move(solution)),
      options_(options) {
  RABID_ASSERT_MSG(nets_.size() == design_.nets().size(),
                   "adopted solution must hold one state per design net");
}

core::Status IncrementalPlanner::validate(const Perturbation& p) const {
  const auto admit = [this](const netlist::Net& net, const char* what) {
    return netlist::validate_net(design_, net, what, "perturbation");
  };
  for (const WireEdit& we : p.wire_edits) {
    if (we.edge < 0 || we.edge >= graph_.edge_count()) {
      return bad("wire edit names edge " + std::to_string(we.edge) +
                 " outside the tile graph");
    }
    if (we.new_capacity < 0) {
      return bad("wire edit on edge " + std::to_string(we.edge) +
                 " asks for a negative capacity");
    }
  }
  for (const SiteEdit& se : p.site_edits) {
    if (se.tile < 0 || se.tile >= graph_.tile_count()) {
      return bad("site edit names tile " + std::to_string(se.tile) +
                 " outside the tile graph");
    }
    if (se.new_supply < 0) {
      return bad("site edit on tile " + std::to_string(se.tile) +
                 " asks for a negative supply");
    }
  }
  // Each pre-edit net id may be named by at most one move/removal: the
  // ids refer to the same (pre-perturbation) numbering, so "move it and
  // also remove it" has no coherent meaning.
  std::vector<std::uint8_t> touched(nets_.size(), 0);
  const auto net_count = static_cast<netlist::NetId>(nets_.size());
  for (const NetMove& m : p.moved_nets) {
    if (m.id < 0 || m.id >= net_count) {
      return bad("moved net id " + std::to_string(m.id) +
                 " outside the design");
    }
    if (touched[static_cast<std::size_t>(m.id)]++) {
      return bad("net " + std::to_string(m.id) +
                 " is moved or removed more than once");
    }
    if (core::Status s = admit(m.replacement, "moved"); !s) return s;
  }
  for (const netlist::NetId id : p.removed_nets) {
    if (id < 0 || id >= net_count) {
      return bad("removed net id " + std::to_string(id) +
                 " outside the design");
    }
    if (touched[static_cast<std::size_t>(id)]++) {
      return bad("net " + std::to_string(id) +
                 " is moved or removed more than once");
    }
  }
  for (const netlist::Net& n : p.added_nets) {
    if (core::Status s = admit(n, "added"); !s) return s;
  }
  return core::Status::ok();
}

core::Status IncrementalPlanner::replan(const Perturbation& p,
                                        ReplanStats* stats) {
  if (core::Status s = validate(p); !s) return s;
  obs::count(obs::Counter::kEcoReplans);

  route::EdgeCostCache cache(graph_, [this](tile::EdgeId e) {
    return route::soft_wire_cost(graph_, e);
  });
  const auto net_of = [this](std::size_t i) -> const netlist::Net& {
    return design_.net(static_cast<netlist::NetId>(i));
  };
  const auto length_limit = [this](std::size_t i) {
    return design_.length_limit(static_cast<netlist::NetId>(i));
  };

  // --- capacity edits -------------------------------------------------
  // Wire edits go through on_capacity_change: a raised capacity can
  // drop an edge's true cost below the cached A* floors, and only this
  // entry point lowers the floors with it (route/maze.hpp).  The per-
  // edge and per-tile marks are allocated only when there are edits, so
  // a step without any does no O(chip) work here.
  std::vector<std::uint8_t> edge_dirty;
  bool any_edge_dirty = false;
  std::int64_t capacity_edits = 0;
  for (const WireEdit& we : p.wire_edits) {
    const double before = cache[we.edge];
    graph_.set_wire_capacity(we.edge, we.new_capacity);
    cache.on_capacity_change(we.edge);
    ++capacity_edits;
    const bool overflowed = graph_.wire_usage(we.edge) > we.new_capacity;
    if (overflowed || std::abs(cache[we.edge] - before) >
                          core::kDirtyCostThreshold * before) {
      edge_dirty.resize(static_cast<std::size_t>(graph_.edge_count()), 0);
      edge_dirty[static_cast<std::size_t>(we.edge)] = 1;
      any_edge_dirty = true;
    }
  }
  std::vector<std::uint8_t> tile_over;
  bool any_tile_over = false;
  for (const SiteEdit& se : p.site_edits) {
    graph_.set_site_supply(se.tile, se.new_supply);
    ++capacity_edits;
    if (graph_.site_usage(se.tile) > se.new_supply) {
      tile_over.resize(static_cast<std::size_t>(graph_.tile_count()), 0);
      tile_over[static_cast<std::size_t>(se.tile)] = 1;
      any_tile_over = true;
    }
  }
  obs::count(obs::Counter::kEcoCapacityEdits,
             static_cast<std::uint64_t>(capacity_edits));

  // --- seed dirty set (pre-edit net ids) ------------------------------
  std::vector<std::uint8_t> dirty(nets_.size(), 0);
  for (const NetMove& m : p.moved_nets) {
    dirty[static_cast<std::size_t>(m.id)] = 1;
  }
  for (const netlist::NetId id : p.removed_nets) {
    dirty[static_cast<std::size_t>(id)] = 1;
  }
  const auto edited = [&](tile::EdgeId e) {
    return edge_dirty[static_cast<std::size_t>(e)] != 0;
  };
  std::uint64_t trees_walked = 0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (dirty[i]) continue;
    const core::NetState& st = nets_[i];
    // A net never planned (e.g. a deadline-cancelled batch run) is
    // planned now.
    if (st.tree.empty()) {
      dirty[i] = 1;
      continue;
    }
    // Only an edited edge or an over-used site can recruit a planned
    // net, so without either no tree is walked.
    if (!any_edge_dirty && !any_tile_over) continue;
    ++trees_walked;
    const auto on_cut_site = [&](const route::BufferPlacement& b) {
      const tile::TileId t = st.tree.node(b.node).tile;
      return tile_over[static_cast<std::size_t>(t)] != 0;
    };
    if ((any_edge_dirty && core::any_arc(graph_, st.tree, edited)) ||
        (any_tile_over && std::ranges::any_of(st.buffers, on_cut_site))) {
      dirty[i] = 1;
    }
  }
  obs::count(obs::Counter::kEcoSeedTreesWalked, trees_walked);

  // --- rip the seed set (before the design edits: uncommit must use
  // the *old* width, and a moved net's buffers must leave the books) ---
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (dirty[i]) core::rip_net(graph_, nets_[i], net_of(i).width, cache);
  }

  // --- design edits ---------------------------------------------------
  for (const NetMove& m : p.moved_nets) {
    design_.mutable_nets()[static_cast<std::size_t>(m.id)] = m.replacement;
  }
  std::vector<netlist::NetId> removed = p.removed_nets;
  std::sort(removed.begin(), removed.end(), std::greater<>());
  for (const netlist::NetId id : removed) {
    design_.mutable_nets().erase(design_.mutable_nets().begin() + id);
    nets_.erase(nets_.begin() + id);
    dirty.erase(dirty.begin() + id);
  }
  for (const netlist::Net& n : p.added_nets) {
    design_.add_net(n);
    nets_.emplace_back();
    dirty.push_back(1);
  }

  // --- closure loop: the stage-2 dirty filter, seeded ------------------
  // Iteration 0 rips exactly the perturbation's seed set; later
  // iterations grow the closure only through *overflowed* edges — the
  // hard violations this loop exists to clear — and evict only the
  // overflow excess, not every rider.  The batch filter's soft
  // cost-movement criterion would cascade here: re-planning the seed
  // set nudges costs on thousands of edges, and chasing every nudge
  // re-plans the whole chip (locality is the point of an ECO;
  // optimality is the polish pass's and the epsilon bound's job).
  route::MazeRouter router(graph_);
  std::vector<std::uint8_t> ever = dirty;
  std::int64_t iterations = 0;
  for (std::int32_t iter = 0; iter < kClosureIterations; ++iter) {
    // Before the first iteration only wire edits can have raised a cost
    // since the cache was built: rips only lower costs, and every rip
    // refreshed its edges and lowered the floors with them, so without
    // wire edits the cache already equals a full refresh.
    if (iter > 0 || !p.wire_edits.empty()) cache.refresh_all();
    if (iter > 0) {
      std::vector<std::int32_t> excess(
          static_cast<std::size_t>(graph_.edge_count()), 0);
      bool any = false;
      for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
        const std::int32_t x =
            graph_.wire_usage(e) - graph_.wire_capacity(e);
        if (x > 0) {
          excess[static_cast<std::size_t>(e)] = x;
          any = true;
        }
      }
      if (!any) break;
      const auto overloaded = [&](tile::EdgeId e) {
        return excess[static_cast<std::size_t>(e)] > 0;
      };
      // Two passes: the nets this ECO already re-planned first (the
      // newcomers whose routes caused the overload), untouched batch
      // nets only for whatever excess remains.
      std::fill(dirty.begin(), dirty.end(), 0);
      bool any_net = false;
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < nets_.size(); ++i) {
          if (dirty[i] || ((pass == 0) != (ever[i] != 0))) continue;
          const core::NetState& st = nets_[i];
          if (st.tree.empty()) continue;
          if (!core::any_arc(graph_, st.tree, overloaded)) continue;
          dirty[i] = 1;
          any_net = true;
          const std::int32_t width = net_of(i).width;
          for (const route::RouteNode& node : st.tree.nodes()) {
            if (node.parent == route::kNoNode) continue;
            const tile::EdgeId e = graph_.edge_between(
                node.tile, st.tree.node(node.parent).tile);
            excess[static_cast<std::size_t>(e)] -= width;
          }
        }
      }
      if (!any_net) break;
    }
    ++iterations;
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      if (!dirty[i]) continue;
      core::rip_net(graph_, nets_[i], net_of(i).width, cache);
      core::maze_route(graph_, nets_[i], net_of(i), options_.pd_alpha, router,
                       cache);
      ever[i] = 1;
    }
  }

  // --- stage-3 re-buffering, then the stage-4 polish of the closure ---
  const buffer::BufferLibrary& lib = options_.buffer_library;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (ever[i] && !nets_[i].tree.empty()) {
      core::buffer_net(graph_, nets_[i], length_limit(i), lib);
    }
  }
  cache.refresh_all();
  std::vector<double> site_cost = core::site_cost_table(graph_);
  core::TwoPathRerouter rerouter(graph_);
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (ever[i] && !nets_[i].tree.empty()) {
      core::polish_net(graph_, nets_[i], length_limit(i), net_of(i).width,
                       lib, cache, site_cost, rerouter, /*wire_weight=*/1.0);
    }
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (ever[i]) {
      core::refresh_delay(graph_, nets_[i], net_of(i).width, options_.tech);
    }
  }

  const auto dirty_count = static_cast<std::int64_t>(
      std::count(ever.begin(), ever.end(), std::uint8_t{1}));
  const auto kept = static_cast<std::int64_t>(nets_.size()) - dirty_count;
  obs::count(obs::Counter::kEcoDirtyNets,
             static_cast<std::uint64_t>(dirty_count));
  obs::count(obs::Counter::kEcoNetsKept, static_cast<std::uint64_t>(kept));
  if (stats != nullptr) {
    stats->dirty_nets = dirty_count;
    stats->kept_nets = kept;
    stats->capacity_edits = capacity_edits;
    stats->iterations = iterations;
  }
  return core::Status::ok();
}

core::AuditReport IncrementalPlanner::audit() const {
  core::AuditOptions opts;
  opts.tech = options_.tech;
  opts.buffer_library = options_.buffer_library;
  core::SolutionAuditor auditor(design_, graph_, opts);
  return auditor.audit(nets_);
}

bool EquivalenceReport::within(double epsilon) const {
  if (!audit_clean) return false;
  // One-sided: an incremental plan that beats scratch is within bound.
  const double wl_gap = wirelength_incremental_mm - wirelength_scratch_mm;
  if (wl_gap > epsilon * wirelength_scratch_mm + 1e-9) return false;
  // Absolute floors keep the relative bound meaningful on fuzz-sized
  // circuits, where "one more buffer" is a large relative move.
  const auto buf_gap =
      static_cast<double>(buffers_incremental - buffers_scratch);
  if (buf_gap > epsilon * std::max(static_cast<double>(buffers_scratch),
                                   20.0)) {
    return false;
  }
  const double over_slack =
      epsilon * std::max(static_cast<double>(overflow_scratch), 20.0);
  return overflow_incremental <=
         overflow_scratch + static_cast<std::int64_t>(over_slack);
}

std::string EquivalenceReport::summary() const {
  std::string out = "incremental vs scratch: wirelength ";
  out += std::to_string(wirelength_incremental_mm);
  out += " / ";
  out += std::to_string(wirelength_scratch_mm);
  out += " mm, buffers ";
  out += std::to_string(buffers_incremental);
  out += " / ";
  out += std::to_string(buffers_scratch);
  out += ", overflow ";
  out += std::to_string(overflow_incremental);
  out += " / ";
  out += std::to_string(overflow_scratch);
  out += ", audit ";
  out += audit_clean ? "clean" : "DIRTY";
  return out;
}

EquivalenceReport compare_with_scratch(const IncrementalPlanner& planner) {
  const tile::TileGraph& g = planner.graph();
  tile::TileGraph scratch(g.chip(), g.nx(), g.ny());
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    scratch.set_wire_capacity(e, g.wire_capacity(e));
  }
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    scratch.set_site_supply(t, g.site_supply(t));
  }

  core::RabidOptions ropt;
  ropt.pd_alpha = planner.options().pd_alpha;
  ropt.threads = 1;
  ropt.tech = planner.options().tech;
  ropt.buffer_library = planner.options().buffer_library;
  core::Rabid rabid(planner.design(), scratch, ropt);
  rabid.run_all();

  EquivalenceReport rep;
  const tile::CongestionStats inc = g.stats();
  const tile::CongestionStats scr = scratch.stats();
  rep.overflow_incremental = inc.overflow;
  rep.overflow_scratch = scr.overflow;
  rep.buffers_incremental = inc.buffers_used;
  rep.buffers_scratch = scr.buffers_used;
  double wl_um = 0.0;
  for (const core::NetState& n : planner.nets()) {
    if (!n.tree.empty()) wl_um += n.tree.wirelength_um(g);
  }
  rep.wirelength_incremental_mm = wl_um / 1000.0;
  wl_um = 0.0;
  for (const core::NetState& n : rabid.nets()) {
    if (!n.tree.empty()) wl_um += n.tree.wirelength_um(scratch);
  }
  rep.wirelength_scratch_mm = wl_um / 1000.0;

  core::AuditOptions aopt;
  aopt.tech = planner.options().tech;
  aopt.buffer_library = planner.options().buffer_library;
  if (rep.overflow_scratch > 0) {
    // The from-scratch plan cannot avoid overload either: the perturbed
    // instance is infeasible, which is not an incrementality bug.
    aopt.wire_overflow_severity = core::AuditSeverity::kWarning;
  }
  core::SolutionAuditor auditor(planner.design(), g, aopt);
  rep.audit_clean = auditor.audit(planner.nets()).clean();
  return rep;
}

Perturbation random_move_perturbation(const IncrementalPlanner& planner,
                                      double fraction, std::uint64_t seed) {
  const netlist::Design& design = planner.design();
  const tile::TileGraph& graph = planner.graph();
  Perturbation p;
  const auto total = static_cast<std::int64_t>(design.nets().size());
  if (total == 0) return p;
  const std::int64_t count = std::clamp<std::int64_t>(
      std::llround(fraction * static_cast<double>(total)), 1, total);

  util::Rng rng(seed ^ util::Rng::hash("eco-move"));
  // A moved pin lands near where it was — an ECO moves a block a few
  // tiles, it does not teleport it across the chip (and chip-spanning
  // replacement nets would measure routing giants, not incrementality).
  // The radius is an absolute tile count, not a chip fraction: a block
  // move is the same physical displacement on a 128- or a 256-wide die,
  // which is what lets the incremental advantage grow with design size.
  // Only grids smaller than the radius scale it down (fuzz circuits).
  const std::int32_t rx = std::clamp<std::int32_t>(graph.nx() / 4, 1, 6);
  const std::int32_t ry = std::clamp<std::int32_t>(graph.ny() / 4, 1, 6);
  auto nudged_center = [&](geom::Point from) {
    const geom::TileCoord c = graph.coord_of(graph.tile_at(from));
    const geom::TileCoord to{
        std::clamp<std::int32_t>(
            c.x + static_cast<std::int32_t>(rng.uniform_int(-rx, rx)), 0,
            graph.nx() - 1),
        std::clamp<std::int32_t>(
            c.y + static_cast<std::int32_t>(rng.uniform_int(-ry, ry)), 0,
            graph.ny() - 1)};
    return graph.center(graph.id_of(to));
  };

  // Partial Fisher-Yates: the first `count` slots are a uniform sample
  // of distinct net ids (a net may be moved at most once per ECO).
  std::vector<netlist::NetId> ids(static_cast<std::size_t>(total));
  std::iota(ids.begin(), ids.end(), netlist::NetId{0});
  for (std::int64_t i = 0; i < count; ++i) {
    std::swap(ids[static_cast<std::size_t>(i)],
              ids[static_cast<std::size_t>(rng.uniform_int(i, total - 1))]);
  }

  for (std::int64_t i = 0; i < count; ++i) {
    NetMove move;
    move.id = ids[static_cast<std::size_t>(i)];
    move.replacement = design.net(move.id);
    bool moved = false;
    for (netlist::Pin& sink : move.replacement.sinks) {
      if (rng.chance(0.5)) {
        sink.location = nudged_center(sink.location);
        moved = true;
      }
    }
    if (rng.chance(0.25)) {
      move.replacement.source.location =
          nudged_center(move.replacement.source.location);
      moved = true;
    }
    if (!moved) {
      move.replacement.sinks.front().location =
          nudged_center(move.replacement.sinks.front().location);
    }
    p.moved_nets.push_back(std::move(move));
  }
  return p;
}

}  // namespace rabid::eco
