#include "route/route_tree.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::route {

namespace {

using TilePair = std::pair<tile::TileId, NodeId>;

auto tile_less = [](const TilePair& a, tile::TileId t) { return a.first < t; };

}  // namespace

RouteTree::RouteTree(tile::TileId source) {
  nodes_.push_back(RouteNode{.tile = source});
  by_tile_.emplace_back(source, 0);
}

NodeId RouteTree::node_at(tile::TileId t) const {
  const auto it =
      std::lower_bound(by_tile_.begin(), by_tile_.end(), t, tile_less);
  if (it != by_tile_.end() && it->first == t) return it->second;
  return kNoNode;
}

NodeId RouteTree::add_child(NodeId parent, tile::TileId t) {
  RABID_ASSERT(parent >= 0 &&
               parent < static_cast<NodeId>(nodes_.size()));
  RABID_ASSERT_MSG(node_at(t) == kNoNode, "tile already in route tree");
  RouteNode& p = nodes_[static_cast<std::size_t>(parent)];
  RABID_ASSERT_MSG(p.child_count < 4, "route node has a fifth child");
  const auto id = static_cast<NodeId>(nodes_.size());
  p.child[static_cast<std::size_t>(p.child_count++)] = id;
  nodes_.push_back(RouteNode{.tile = t, .parent = parent});
  const auto it =
      std::lower_bound(by_tile_.begin(), by_tile_.end(), t, tile_less);
  by_tile_.insert(it, {t, id});
  return id;
}

std::vector<NodeId> RouteTree::sink_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].sink_count > 0) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::int32_t RouteTree::total_sinks() const {
  std::int32_t total = 0;
  for (const RouteNode& n : nodes_) total += n.sink_count;
  return total;
}

double RouteTree::wirelength_um(const tile::TileGraph& g) const {
  double total = 0.0;
  for (const RouteNode& n : nodes_) {
    if (n.parent == kNoNode) continue;
    const auto a = g.coord_of(n.tile);
    const auto b = g.coord_of(nodes_[static_cast<std::size_t>(n.parent)].tile);
    total += (a.y == b.y) ? g.tile_width() : g.tile_height();
  }
  return total;
}

std::int32_t RouteTree::depth(NodeId n) const {
  std::int32_t d = 0;
  while (nodes_.at(static_cast<std::size_t>(n)).parent != kNoNode) {
    n = nodes_[static_cast<std::size_t>(n)].parent;
    ++d;
  }
  return d;
}

void RouteTree::commit(tile::TileGraph& g, std::int32_t width) const {
  RABID_ASSERT(width >= 1);
  std::uint64_t arcs = 0;
  for (const RouteNode& n : nodes_) {
    if (n.parent == kNoNode) continue;
    const tile::EdgeId e = g.edge_between(
        n.tile, nodes_[static_cast<std::size_t>(n.parent)].tile);
    RABID_ASSERT_MSG(e != tile::kNoEdge, "route arc not tile-adjacent");
    for (std::int32_t k = 0; k < width; ++k) g.add_wire(e);
    ++arcs;
  }
  obs::count(obs::Counter::kWireUnitsCommitted,
             arcs * static_cast<std::uint64_t>(width));
}

void RouteTree::uncommit(tile::TileGraph& g, std::int32_t width) const {
  RABID_ASSERT(width >= 1);
  std::uint64_t arcs = 0;
  for (const RouteNode& n : nodes_) {
    if (n.parent == kNoNode) continue;
    const tile::EdgeId e = g.edge_between(
        n.tile, nodes_[static_cast<std::size_t>(n.parent)].tile);
    RABID_ASSERT(e != tile::kNoEdge);
    for (std::int32_t k = 0; k < width; ++k) g.remove_wire(e);
    ++arcs;
  }
  obs::count(obs::Counter::kWireUnitsRemoved,
             arcs * static_cast<std::uint64_t>(width));
}

std::vector<NodeId> RouteTree::preorder() const {
  // Nodes are appended parent-first by construction, so index order is
  // already topological.
  std::vector<NodeId> order(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    order[i] = static_cast<NodeId>(i);
  return order;
}

std::vector<NodeId> RouteTree::postorder() const {
  std::vector<NodeId> order = preorder();
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<RouteTree::TwoPath> RouteTree::two_paths() const {
  std::vector<TwoPath> out;
  if (nodes_.empty()) return out;
  auto is_anchor = [&](NodeId n) {
    const RouteNode& node = nodes_[static_cast<std::size_t>(n)];
    return n == root() || node.sink_count > 0 || node.child_count != 1;
  };
  // Walk down from every anchor until the next anchor.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto head = static_cast<NodeId>(i);
    if (!is_anchor(head)) continue;
    for (const NodeId first : nodes_[i].children()) {
      TwoPath tp;
      tp.head = head;
      NodeId cur = first;
      while (!is_anchor(cur)) {
        tp.interior.push_back(cur);
        cur = nodes_[static_cast<std::size_t>(cur)].child[0];
      }
      tp.tail = cur;
      out.push_back(std::move(tp));
    }
  }
  return out;
}

void RouteTree::verify(const tile::TileGraph& g) const {
  if (nodes_.empty()) return;
  RABID_ASSERT(nodes_.front().parent == kNoNode);
  RABID_ASSERT(by_tile_.size() == nodes_.size());
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const RouteNode& n = nodes_[i];
    RABID_ASSERT_MSG(n.parent != kNoNode, "non-root node without parent");
    RABID_ASSERT_MSG(
        g.edge_between(n.tile,
                       nodes_[static_cast<std::size_t>(n.parent)].tile) !=
            tile::kNoEdge,
        "route arc endpoints not adjacent");
    RABID_ASSERT_MSG(static_cast<std::size_t>(n.parent) < i,
                     "parent index must precede child");
  }
  for (std::size_t i = 1; i < by_tile_.size(); ++i) {
    RABID_ASSERT_MSG(by_tile_[i - 1].first < by_tile_[i].first,
                     "duplicate tile in route tree");
  }
}

}  // namespace rabid::route
