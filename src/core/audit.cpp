#include "core/audit.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "buffer/brute_force.hpp"
#include "obs/json.hpp"

namespace rabid::core {

namespace {

/// Recount scratch: per-edge wire usage and per-tile buffers over all
/// nets, rebuilt from nothing but the NetStates.
struct Recount {
  std::vector<std::int64_t> wire;
  std::vector<std::int64_t> buffers;
};

std::string net_label(const netlist::Design& design, netlist::NetId id) {
  return "net " + design.net(id).name;
}

}  // namespace

std::string_view audit_check_name(AuditCheck check) {
  switch (check) {
    case AuditCheck::kTreeStructure: return "tree-structure";
    case AuditCheck::kPinEmbedding: return "pin-embedding";
    case AuditCheck::kBufferRefs: return "buffer-refs";
    case AuditCheck::kWireBooks: return "wire-books";
    case AuditCheck::kBufferBooks: return "buffer-books";
    case AuditCheck::kWireCapacity: return "wire-capacity";
    case AuditCheck::kBufferCapacity: return "buffer-capacity";
    case AuditCheck::kLengthRule: return "length-rule";
    case AuditCheck::kDelay: return "delay";
    case AuditCheck::kBufferTypes: return "buffer-types";
  }
  return "unknown";
}

std::size_t AuditReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [](const AuditViolation& v) {
                      return v.severity == AuditSeverity::kError;
                    }));
}

std::size_t AuditReport::warning_count() const {
  return violations.size() - error_count();
}

void AuditReport::merge(AuditReport other, std::string_view stage) {
  for (AuditViolation& v : other.violations) {
    v.stage = stage;
    violations.push_back(std::move(v));
  }
  checks_run += other.checks_run;
  nets_audited = std::max(nets_audited, other.nets_audited);
}

std::string AuditReport::summary() const {
  std::ostringstream out;
  if (clean() && warning_count() == 0) {
    out << "audit: clean (" << nets_audited << " nets, " << checks_run
        << " checks)";
    return out.str();
  }
  out << "audit: " << error_count() << " errors, " << warning_count()
      << " warnings (" << nets_audited << " nets, " << checks_run
      << " checks)";
  constexpr std::size_t kMaxLines = 40;
  for (std::size_t i = 0; i < violations.size() && i < kMaxLines; ++i) {
    const AuditViolation& v = violations[i];
    out << "\n  ["
        << (v.severity == AuditSeverity::kError ? "error" : "warn ") << ' '
        << audit_check_name(v.check) << ']';
    if (!v.stage.empty()) out << " stage " << v.stage;
    if (v.net >= 0) out << " net " << v.net;
    if (v.tile != tile::kNoTile) out << " tile " << v.tile;
    if (v.edge != tile::kNoEdge) out << " edge " << v.edge;
    out << ": " << v.detail << " (expected " << v.expected << ", actual "
        << v.actual << ')';
  }
  if (violations.size() > kMaxLines) {
    out << "\n  ... and " << violations.size() - kMaxLines << " more";
  }
  return out.str();
}

void AuditReport::write_json(std::ostream& out) const {
  out << "{\n  \"clean\": " << (clean() ? "true" : "false")
      << ",\n  \"errors\": " << error_count()
      << ",\n  \"warnings\": " << warning_count()
      << ",\n  \"checks_run\": " << checks_run
      << ",\n  \"nets_audited\": " << nets_audited
      << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const AuditViolation& v = violations[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"check\": \""
        << audit_check_name(v.check) << "\", \"severity\": \""
        << (v.severity == AuditSeverity::kError ? "error" : "warning")
        << "\", \"stage\": ";
    obs::json::append_escaped(out, v.stage);
    out << ", \"net\": " << v.net << ", \"tile\": " << v.tile
        << ", \"edge\": " << v.edge << ", \"expected\": ";
    obs::json::append_number(out, v.expected);
    out << ", \"actual\": ";
    obs::json::append_number(out, v.actual);
    out << ", \"detail\": ";
    obs::json::append_escaped(out, v.detail);
    out << "}";
  }
  out << (violations.empty() ? "]" : "\n  ]") << "\n}\n";
}

SolutionAuditor::SolutionAuditor(const netlist::Design& design,
                                 const tile::TileGraph& graph,
                                 AuditOptions options)
    : design_(design), graph_(graph), options_(options) {}

void SolutionAuditor::audit_net(netlist::NetId id, const NetState& state,
                                AuditReport& report) const {
  const netlist::Net& net = design_.net(id);
  const route::RouteTree& tree = state.tree;
  auto violation = [&](AuditCheck check, double expected, double actual,
                       std::string detail, tile::TileId t = tile::kNoTile,
                       tile::EdgeId e = tile::kNoEdge) {
    report.violations.push_back({check, AuditSeverity::kError, id, t, e,
                                 expected, actual,
                                 net_label(design_, id) + ": " +
                                     std::move(detail),
                                 {}});
  };

  ++report.checks_run;
  if (tree.empty()) {
    report.violations.push_back(
        {AuditCheck::kTreeStructure,
         options_.allow_unrouted ? AuditSeverity::kWarning
                                 : AuditSeverity::kError,
         id, tile::kNoTile, tile::kNoEdge, 1.0, 0.0,
         net_label(design_, id) + ": net has no route",
         {}});
    return;
  }

  // --- tree structure: links, tiles, adjacency, reachability ----------
  const auto n = static_cast<route::NodeId>(tree.node_count());
  bool structure_ok = true;
  auto broken = [&](AuditCheck check, double expected, double actual,
                    std::string detail) {
    violation(check, expected, actual, std::move(detail));
    structure_ok = false;
  };

  ++report.checks_run;
  if (tree.node(tree.root()).parent != route::kNoNode) {
    broken(AuditCheck::kTreeStructure, route::kNoNode,
           tree.node(tree.root()).parent, "root has a parent");
  }
  for (route::NodeId v = 0; v < n; ++v) {
    const route::RouteNode& node = tree.node(v);
    report.checks_run += 2;
    if (node.tile < 0 || node.tile >= graph_.tile_count()) {
      broken(AuditCheck::kTreeStructure, graph_.tile_count() - 1, node.tile,
             "node tile out of range");
      continue;
    }
    if (v != tree.root()) {
      if (node.parent < 0 || node.parent >= n) {
        broken(AuditCheck::kTreeStructure, n - 1, node.parent,
               "node parent out of range");
        continue;
      }
      const route::RouteNode& parent = tree.node(node.parent);
      const auto listed = std::ranges::count(parent.children(), v);
      if (listed != 1) {
        broken(AuditCheck::kTreeStructure, 1.0,
               static_cast<double>(listed),
               "node listed in parent's children != once");
      }
      if (parent.tile >= 0 && parent.tile < graph_.tile_count() &&
          graph_.edge_between(node.tile, parent.tile) == tile::kNoEdge) {
        broken(AuditCheck::kTreeStructure, 1.0,
               graph_.tile_distance(node.tile, parent.tile),
               "arc between non-adjacent tiles");
      }
    }
    for (const route::NodeId w : node.children()) {
      ++report.checks_run;
      if (w < 0 || w >= n || tree.node(w).parent != v) {
        broken(AuditCheck::kTreeStructure, v, w < 0 || w >= n ? -1.0
                                                  : tree.node(w).parent,
               "child link without matching parent link");
      }
    }
  }

  // Unique tiles (a global route does not self-cross at tile level).
  {
    std::vector<tile::TileId> tiles;
    tiles.reserve(static_cast<std::size_t>(n));
    for (route::NodeId v = 0; v < n; ++v) tiles.push_back(tree.node(v).tile);
    std::sort(tiles.begin(), tiles.end());
    ++report.checks_run;
    const auto dup = std::adjacent_find(tiles.begin(), tiles.end());
    if (dup != tiles.end()) {
      broken(AuditCheck::kTreeStructure, 1.0, 2.0,
             "tile appears more than once in tree");
    }
  }

  // Reachability from the root through child links: with the link
  // consistency above this certifies connectivity and acyclicity.
  if (structure_ok) {
    std::vector<route::NodeId> stack = {tree.root()};
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    seen[static_cast<std::size_t>(tree.root())] = true;
    std::int64_t reached = 0;
    while (!stack.empty()) {
      const route::NodeId v = stack.back();
      stack.pop_back();
      ++reached;
      for (const route::NodeId w : tree.node(v).children()) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
    ++report.checks_run;
    if (reached != n) {
      broken(AuditCheck::kTreeStructure, n, static_cast<double>(reached),
             "nodes unreachable from root (disconnected or cyclic)");
    }
  }

  // --- pin embedding: driver tile and per-tile sink counts ------------
  if (structure_ok) {
    const tile::TileId driver_tile = graph_.tile_at(net.source.location);
    ++report.checks_run;
    if (tree.node(tree.root()).tile != driver_tile) {
      violation(AuditCheck::kPinEmbedding, driver_tile,
                tree.node(tree.root()).tile, "root not at driver tile");
    }
    std::vector<std::pair<tile::TileId, std::int32_t>> expected;
    for (const netlist::Pin& pin : net.sinks) {
      const tile::TileId t = graph_.tile_at(pin.location);
      auto it = std::find_if(expected.begin(), expected.end(),
                             [&](const auto& p) { return p.first == t; });
      if (it == expected.end()) {
        expected.emplace_back(t, 1);
      } else {
        ++it->second;
      }
    }
    for (route::NodeId v = 0; v < n; ++v) {
      const route::RouteNode& node = tree.node(v);
      if (node.sink_count == 0) continue;
      ++report.checks_run;
      auto it = std::find_if(expected.begin(), expected.end(),
                             [&](const auto& p) {
                               return p.first == node.tile;
                             });
      const std::int32_t want = it == expected.end() ? 0 : it->second;
      if (node.sink_count != want) {
        violation(AuditCheck::kPinEmbedding, want, node.sink_count,
                  "sink count at tile disagrees with netlist", node.tile);
      }
      if (it != expected.end()) expected.erase(it);
    }
    for (const auto& [t, count] : expected) {
      ++report.checks_run;
      violation(AuditCheck::kPinEmbedding, count, 0.0,
                "netlist sinks at tile missing from tree", t);
    }
  }

  // --- buffer references (Fig. 8 roles) -------------------------------
  bool buffers_ok = structure_ok;
  for (const route::BufferPlacement& b : state.buffers) {
    ++report.checks_run;
    if (b.node < 0 || b.node >= n) {
      violation(AuditCheck::kBufferRefs, n - 1, b.node,
                "buffer at nonexistent node");
      buffers_ok = false;
      continue;
    }
    if (b.child != route::kNoNode &&
        (b.child < 0 || b.child >= n || tree.node(b.child).parent != b.node)) {
      violation(AuditCheck::kBufferRefs, b.node,
                b.child < 0 || b.child >= n ? -1.0
                                            : tree.node(b.child).parent,
                "decoupling buffer on a non-arc");
      buffers_ok = false;
    }
  }
  ++report.checks_run;
  if (!state.buffer_types.empty() &&
      state.buffer_types.size() != state.buffers.size()) {
    violation(AuditCheck::kBufferRefs,
              static_cast<double>(state.buffers.size()),
              static_cast<double>(state.buffer_types.size()),
              "buffer_types size != buffers size");
    buffers_ok = false;
  }

  // --- buffer type tags: re-derive each tag against the library -------
  // Tags the library doesn't know (e.g. vG power levels) legalize under
  // the library's first type; tags it *does* know must carry its own
  // electrical payload, and the per-type b(v) recount below holds the
  // tag array to exactly one type per placed buffer.
  std::vector<std::int32_t> lib_types;
  const bool tagged =
      !state.buffer_types.empty() &&
      state.buffer_types.size() == state.buffers.size();
  if (tagged) {
    const buffer::BufferLibrary& lib = options_.buffer_library;
    lib_types.reserve(state.buffer_types.size());
    std::vector<std::int64_t> per_type(lib.size() + 1, 0);  // last: unknown
    for (std::size_t k = 0; k < state.buffer_types.size(); ++k) {
      const buffer::BufferType& tag = state.buffer_types[k];
      ++report.checks_run;
      if (tag.name.empty()) {
        violation(AuditCheck::kBufferTypes, 1.0, 0.0,
                  "buffer type tag " + std::to_string(k) + " has no name");
      }
      const std::int32_t t = lib.index_of(tag.name);
      lib_types.push_back(t < 0 ? 0 : t);
      ++per_type[t < 0 ? lib.size() : static_cast<std::size_t>(t)];
      if (t >= 0) {
        // A known name with foreign electrical numbers is a tampered or
        // stale tag: the delay evaluator would silently use it.
        const buffer::BufferType& want =
            lib.type(static_cast<std::size_t>(t));
        ++report.checks_run;
        if (tag.input_cap != want.input_cap ||
            tag.output_res != want.output_res || tag.size != want.size) {
          violation(AuditCheck::kBufferTypes, want.input_cap, tag.input_cap,
                    "tag '" + tag.name +
                        "' disagrees with the library's electrical spec");
        }
      }
    }
    // b(v) recount per type: the typed counts must re-add to the net's
    // placement count (one tag, one buffer — no dangling/duplicated tags).
    std::int64_t typed_total = 0;
    for (const std::int64_t c : per_type) typed_total += c;
    ++report.checks_run;
    if (typed_total != static_cast<std::int64_t>(state.buffers.size())) {
      violation(AuditCheck::kBufferTypes,
                static_cast<double>(state.buffers.size()),
                static_cast<double>(typed_total),
                "per-type buffer recount != placements");
    }
  }

  // --- length rule: the #fails flag must be honest (Fig. 3) -----------
  if (buffers_ok) {
    const std::int32_t L = design_.length_limit(id);
    // Tagged nets legalize under per-type drive limits; untagged nets
    // under the plain unit rule (identical when the library is unit).
    const bool legal =
        tagged ? buffer::placement_is_legal_lib(tree, state.buffers,
                                                lib_types, L,
                                                options_.buffer_library)
               : buffer::placement_is_legal(tree, state.buffers, L);
    ++report.checks_run;
    if (legal != state.meets_length_rule) {
      violation(AuditCheck::kLengthRule, legal, state.meets_length_rule,
                legal ? "net satisfies L but is flagged as a failure"
                      : "net flagged ok but a gate drives > L tile-units");
    }
  }

  // --- delay: recompute Elmore from scratch and compare exactly --------
  if (buffers_ok) {
    const timing::Technology tech =
        timing::scaled_for_width(options_.tech, net.width);
    const timing::DelayResult fresh = timing::evaluate_delay(
        tree, state.buffers, state.buffer_types, graph_, tech);
    report.checks_run += 2;
    if (fresh.max_ps != state.delay.max_ps) {
      violation(AuditCheck::kDelay, fresh.max_ps, state.delay.max_ps,
                "committed max delay != recomputed");
    }
    if (fresh.sum_ps != state.delay.sum_ps) {
      violation(AuditCheck::kDelay, fresh.sum_ps, state.delay.sum_ps,
                "committed delay sum != recomputed");
    }
    ++report.checks_run;
    if (fresh.sink_delays_ps.size() != state.delay.sink_delays_ps.size()) {
      violation(AuditCheck::kDelay,
                static_cast<double>(fresh.sink_delays_ps.size()),
                static_cast<double>(state.delay.sink_delays_ps.size()),
                "per-sink delay count != recomputed");
    } else {
      for (std::size_t k = 0; k < fresh.sink_delays_ps.size(); ++k) {
        ++report.checks_run;
        if (fresh.sink_delays_ps[k] != state.delay.sink_delays_ps[k]) {
          violation(AuditCheck::kDelay, fresh.sink_delays_ps[k],
                    state.delay.sink_delays_ps[k],
                    "per-sink delay " + std::to_string(k) +
                        " != recomputed");
        }
      }
    }
  }
}

AuditReport SolutionAuditor::audit(std::span<const NetState> nets) const {
  AuditReport report;
  report.nets_audited = nets.size();
  ++report.checks_run;
  if (nets.size() != design_.nets().size()) {
    report.violations.push_back(
        {AuditCheck::kTreeStructure, AuditSeverity::kError, -1,
         tile::kNoTile, tile::kNoEdge,
         static_cast<double>(design_.nets().size()),
         static_cast<double>(nets.size()),
         "solution net count != design net count",
         {}});
    return report;
  }

  for (std::size_t i = 0; i < nets.size(); ++i) {
    audit_net(static_cast<netlist::NetId>(i), nets[i], report);
  }

  // --- ground-up recount of both books over all nets -------------------
  Recount recount;
  recount.wire.assign(static_cast<std::size_t>(graph_.edge_count()), 0);
  recount.buffers.assign(static_cast<std::size_t>(graph_.tile_count()), 0);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetState& state = nets[i];
    const route::RouteTree& tree = state.tree;
    const auto n = static_cast<route::NodeId>(tree.node_count());
    const std::int32_t width =
        design_.net(static_cast<netlist::NetId>(i)).width;
    for (route::NodeId v = 0; v < n; ++v) {
      const route::RouteNode& node = tree.node(v);
      if (node.parent == route::kNoNode || node.parent < 0 ||
          node.parent >= n) {
        continue;  // structural breakage already reported per net
      }
      const route::RouteNode& parent = tree.node(node.parent);
      if (node.tile < 0 || node.tile >= graph_.tile_count() ||
          parent.tile < 0 || parent.tile >= graph_.tile_count()) {
        continue;
      }
      const tile::EdgeId e = graph_.edge_between(node.tile, parent.tile);
      if (e != tile::kNoEdge) {
        recount.wire[static_cast<std::size_t>(e)] += width;
      }
    }
    for (const route::BufferPlacement& b : state.buffers) {
      if (b.node < 0 || b.node >= n) continue;
      const tile::TileId t = tree.node(b.node).tile;
      if (t >= 0 && t < graph_.tile_count()) {
        ++recount.buffers[static_cast<std::size_t>(t)];
      }
    }
  }

  // --- book reconciliation + capacity feasibility ----------------------
  for (tile::EdgeId e = 0; e < graph_.edge_count(); ++e) {
    const std::int64_t counted = recount.wire[static_cast<std::size_t>(e)];
    report.checks_run += 2;
    if (counted != graph_.wire_usage(e)) {
      report.violations.push_back(
          {AuditCheck::kWireBooks, AuditSeverity::kError, -1, tile::kNoTile,
           e, static_cast<double>(counted),
           static_cast<double>(graph_.wire_usage(e)),
           "declared w(e) != recount over all nets",
           {}});
    }
    if (counted > graph_.wire_capacity(e)) {
      report.violations.push_back(
          {AuditCheck::kWireCapacity, options_.wire_overflow_severity, -1,
           tile::kNoTile, e, static_cast<double>(graph_.wire_capacity(e)),
           static_cast<double>(counted), "w(e) exceeds W(e)",
           {}});
    }
  }
  for (tile::TileId t = 0; t < graph_.tile_count(); ++t) {
    const std::int64_t counted = recount.buffers[static_cast<std::size_t>(t)];
    report.checks_run += 2;
    if (counted != graph_.site_usage(t)) {
      report.violations.push_back(
          {AuditCheck::kBufferBooks, AuditSeverity::kError, -1, t,
           tile::kNoEdge, static_cast<double>(counted),
           static_cast<double>(graph_.site_usage(t)),
           "declared b(v) != recount over all nets",
           {}});
    }
    if (counted > graph_.site_supply(t)) {
      report.violations.push_back(
          {AuditCheck::kBufferCapacity, options_.buffer_overflow_severity, -1,
           t,
           tile::kNoEdge, static_cast<double>(graph_.site_supply(t)),
           static_cast<double>(counted), "b(v) exceeds B(v)",
           {}});
    }
  }
  return report;
}

AuditReport audit_solution(const Rabid& rabid, AuditOptions options) {
  options.tech = rabid.options().tech;
  options.buffer_library = rabid.options().buffer_library;
  return SolutionAuditor(rabid.design(), rabid.graph(), options)
      .audit(rabid.nets());
}

}  // namespace rabid::core
