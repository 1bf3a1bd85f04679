#include "core/solution_io.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace rabid::core {

void write_solution(std::ostream& out, const netlist::Design& design,
                    const tile::TileGraph& g,
                    std::span<const NetState> nets) {
  RABID_ASSERT(nets.size() == design.nets().size());
  out << "# RABID solution format v2\n";
  out << "solution " << design.name() << ' ' << g.nx() << ' ' << g.ny()
      << '\n';
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetState& n = nets[i];
    // "unrouted": a deadline-cancelled net with no tree at all — distinct
    // from "fail" (routed but length rule unmet) so a resumed run can
    // reconstruct the exact partial state.
    const char* status =
        n.tree.empty() ? "unrouted" : (n.meets_length_rule ? "ok" : "fail");
    out << "net " << design.net(static_cast<netlist::NetId>(i)).name << ' '
        << status << '\n';
    for (const route::RouteNode& node : n.tree.nodes()) {
      if (node.parent == route::kNoNode) continue;
      const geom::TileCoord a =
          g.coord_of(n.tree.node(node.parent).tile);
      const geom::TileCoord b = g.coord_of(node.tile);
      out << "  arc " << a.x << ' ' << a.y << ' ' << b.x << ' ' << b.y
          << '\n';
    }
    for (std::size_t k = 0; k < n.buffers.size(); ++k) {
      const route::BufferPlacement& b = n.buffers[k];
      const geom::TileCoord c = g.coord_of(n.tree.node(b.node).tile);
      out << "  buffer " << c.x << ' ' << c.y;
      if (b.child == route::kNoNode) {
        out << " drive";
      } else {
        const geom::TileCoord child =
            g.coord_of(n.tree.node(b.child).tile);
        out << " decouple " << child.x << ' ' << child.y;
      }
      if (k < n.buffer_types.size()) out << ' ' << n.buffer_types[k].name;
      out << '\n';
    }
    out << "end\n";
  }
}

namespace {

/// Thrown by read_solution_impl on malformed input;
/// read_solution_checked() converts it to a Status carrying the line.
struct SolutionParseError {
  std::string message;
  int line;
};

LoadedSolution read_solution_impl(std::istream& in,
                                  const netlist::Design& design,
                                  const tile::TileGraph& g,
                                  std::span<const buffer::BufferLibrary>
                                      libraries,
                                  const timing::Technology& tech) {
  LoadedSolution sol;
  std::string line;
  int line_no = 0;
  bool have_header = false;
  auto fail = [&](const char* msg) {
    throw SolutionParseError{msg, line_no};
  };

  std::size_t net_index = 0;  // design net the open block must match
  bool open = false;
  NetState current;
  std::vector<std::string> cell_names;

  auto coord_to_tile = [&](std::int32_t x, std::int32_t y) -> tile::TileId {
    if (x < 0 || x >= g.nx() || y < 0 || y >= g.ny()) {
      fail("tile coordinate out of range");
    }
    return g.id_of({x, y});
  };

  auto close_net = [&]() {
    const auto id = static_cast<netlist::NetId>(net_index);
    const netlist::Net& net = design.net(id);
    // A deadline-cancelled net: no tree, no buffers, default delay.
    if (current.tree.empty()) {
      sol.nets.push_back(std::move(current));
      ++net_index;
      return;
    }
    // Sink attachment is not dumped; re-derive it from the pins, which
    // is the same mapping the embedder used.
    for (const netlist::Pin& pin : net.sinks) {
      const route::NodeId node =
          current.tree.node_at(g.tile_at(pin.location));
      if (node == route::kNoNode) fail("sink tile missing from tree");
      current.tree.add_sink(node);
    }
    if (!libraries.empty() &&
        std::any_of(cell_names.begin(), cell_names.end(),
                    [](const std::string& c) { return !c.empty(); })) {
      for (const std::string& cell : cell_names) {
        if (cell.empty()) fail("mix of sized and unsized buffers");
        const buffer::BufferType* type = nullptr;
        for (const buffer::BufferLibrary& lib : libraries) {
          if (const std::int32_t t = lib.index_of(cell); t >= 0) {
            type = &lib.type(static_cast<std::size_t>(t));
            break;
          }
        }
        if (type == nullptr) fail("cell name not in the buffer library");
        current.buffer_types.push_back(*type);
      }
    }
    // Delays exactly as Rabid::refresh_delays() commits them.
    current.delay = timing::evaluate_delay(
        current.tree, current.buffers, current.buffer_types, g,
        timing::scaled_for_width(tech, net.width));
    sol.nets.push_back(std::move(current));
    ++net_index;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd)) continue;
    if (cmd == "solution") {
      if (!(ss >> sol.design >> sol.nx >> sol.ny)) {
        fail("solution header needs name nx ny");
      }
      if (sol.nx != g.nx() || sol.ny != g.ny()) {
        fail("solution grid differs from the tile graph");
      }
      if (sol.design != design.name()) {
        fail("solution was written for a different design");
      }
      have_header = true;
    } else if (cmd == "net") {
      if (!have_header) fail("net before the solution header");
      if (open) fail("nested net");
      if (net_index >= design.nets().size()) fail("more nets than design");
      std::string name;
      std::string status;
      if (!(ss >> name >> status)) fail("net needs name + status");
      if (name != design.net(static_cast<netlist::NetId>(net_index)).name) {
        fail("net name out of design order");
      }
      if (status != "ok" && status != "fail" && status != "unrouted") {
        fail("bad net status");
      }
      current = {};
      current.meets_length_rule = status == "ok";
      // "unrouted" nets keep an empty tree; any arc/buffer line under
      // them fails the usual not-in-tree checks below.
      if (status != "unrouted") {
        current.tree = route::RouteTree(g.tile_at(
            design.net(static_cast<netlist::NetId>(net_index))
                .source.location));
      }
      cell_names.clear();
      open = true;
    } else if (cmd == "arc") {
      if (!open) fail("arc outside net");
      std::int32_t ax = 0, ay = 0, bx = 0, by = 0;
      if (!(ss >> ax >> ay >> bx >> by)) fail("arc needs 4 coordinates");
      const tile::TileId parent_tile = coord_to_tile(ax, ay);
      const tile::TileId child_tile = coord_to_tile(bx, by);
      const route::NodeId parent = current.tree.node_at(parent_tile);
      if (parent == route::kNoNode) fail("arc parent tile not in tree");
      if (current.tree.contains(child_tile)) fail("arc revisits a tile");
      if (g.edge_between(parent_tile, child_tile) == tile::kNoEdge) {
        fail("arc between non-adjacent tiles");
      }
      current.tree.add_child(parent, child_tile);
    } else if (cmd == "buffer") {
      if (!open) fail("buffer outside net");
      std::int32_t x = 0, y = 0;
      std::string role;
      if (!(ss >> x >> y >> role)) fail("buffer needs x y role");
      const route::NodeId node = current.tree.node_at(coord_to_tile(x, y));
      if (node == route::kNoNode) fail("buffer tile not in tree");
      route::BufferPlacement placement{node, route::kNoNode};
      if (role == "decouple") {
        std::int32_t cx = 0, cy = 0;
        if (!(ss >> cx >> cy)) fail("decouple needs the child tile");
        const route::NodeId child =
            current.tree.node_at(coord_to_tile(cx, cy));
        if (child == route::kNoNode ||
            current.tree.node(child).parent != node) {
          fail("decoupled tile is not a child of the buffer node");
        }
        placement.child = child;
      } else if (role != "drive") {
        fail("bad buffer role");
      }
      std::string cell;
      ss >> cell;  // optional
      current.buffers.push_back(placement);
      cell_names.push_back(cell);
    } else if (cmd == "end") {
      if (!open) fail("end outside net");
      close_net();
      open = false;
    } else {
      fail("unknown directive");
    }
  }
  if (open) fail("unterminated net");
  if (net_index != design.nets().size()) fail("fewer nets than design");
  return sol;
}

}  // namespace

Result<LoadedSolution> read_solution_checked(
    std::istream& in, const netlist::Design& design, const tile::TileGraph& g,
    std::span<const buffer::BufferLibrary> libraries,
    const timing::Technology& tech) {
  try {
    return read_solution_impl(in, design, g, libraries, tech);
  } catch (const SolutionParseError& e) {
    return Status::invalid_input(e.message, "solution", e.line);
  }
}

}  // namespace rabid::core
