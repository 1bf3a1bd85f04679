#pragma once

/// \file route_tree.hpp
/// A net's global route as a tree over tile-graph tiles.
///
/// Every tree arc connects two *adjacent* tiles, so each arc corresponds
/// one-to-one to a tile-graph edge and consumes one unit of its capacity.
/// A tile appears at most once in a tree (global routes do not self-cross
/// at this abstraction level).  The root is the net's driver tile; any
/// node may carry one or more of the net's sinks.

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "tile/tile_graph.hpp"

namespace rabid::route {

using NodeId = std::int32_t;
constexpr NodeId kNoNode = -1;

/// One tree node, children inline: a node's children are distinct tiles
/// adjacent to it, so a grid node has at most four (add_child asserts
/// it), and a tree copies as two flat buffers.
struct RouteNode {
  tile::TileId tile = tile::kNoTile;
  NodeId parent = kNoNode;
  std::int32_t sink_count = 0;  ///< number of net sinks attached here
  std::int32_t child_count = 0;
  std::array<NodeId, 4> child{};  ///< first child_count entries, in add order

  std::span<const NodeId> children() const {
    return {child.data(), static_cast<std::size_t>(child_count)};
  }
};
static_assert(sizeof(RouteNode) == 32 &&
              std::is_trivially_copyable_v<RouteNode>);

class RouteTree {
 public:
  RouteTree() = default;
  /// Starts a tree whose root (the driver tile) is `source`.
  explicit RouteTree(tile::TileId source);

  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return nodes_.empty() ? kNoNode : 0; }
  std::size_t node_count() const { return nodes_.size(); }
  const RouteNode& node(NodeId n) const {
    return nodes_.at(static_cast<std::size_t>(n));
  }
  const std::vector<RouteNode>& nodes() const { return nodes_; }

  /// Node occupying a tile, or kNoNode.
  NodeId node_at(tile::TileId t) const;
  bool contains(tile::TileId t) const { return node_at(t) != kNoNode; }

  /// Adds a child of `parent` at tile `t` (must be adjacent in `g` when a
  /// graph is supplied to verify(); uniqueness of `t` and the four-child
  /// limit are always enforced).
  NodeId add_child(NodeId parent, tile::TileId t);

  /// Marks one net sink as attached to node `n`.
  void add_sink(NodeId n) { nodes_.at(static_cast<std::size_t>(n)).sink_count++; }
  /// All nodes that carry at least one sink.
  std::vector<NodeId> sink_nodes() const;
  std::int32_t total_sinks() const;

  /// Number of tree arcs == wirelength in tile units.
  std::int64_t wirelength_tiles() const {
    return nodes_.empty() ? 0 : static_cast<std::int64_t>(nodes_.size()) - 1;
  }
  /// Physical wirelength in micrometers (sums per-arc tile pitches).
  double wirelength_um(const tile::TileGraph& g) const;

  /// Path length in tile units from the root to node `n`.
  std::int32_t depth(NodeId n) const;

  /// Adds (commit) or removes (uncommit) `width` units of wire usage on
  /// every tile-graph edge this tree crosses (width = the net's wire
  /// width class).
  void commit(tile::TileGraph& g, std::int32_t width = 1) const;
  void uncommit(tile::TileGraph& g, std::int32_t width = 1) const;

  /// Nodes in topological (parent-before-child) order. Root first.
  std::vector<NodeId> preorder() const;
  /// Nodes in reverse topological (child-before-parent) order.
  std::vector<NodeId> postorder() const;

  /// A maximal path of degree-2 internal nodes.  Ends are "anchors":
  /// the root, a sink-carrying node, or a branch (>= 2 children) node.
  /// `interior` excludes both ends; `head` is the end nearer the root.
  struct TwoPath {
    NodeId head = kNoNode;
    NodeId tail = kNoNode;
    std::vector<NodeId> interior;
  };
  /// Decomposes the tree into its two-paths (Section III-D).
  std::vector<TwoPath> two_paths() const;

  /// Checks structural invariants (single root, acyclic, tiles unique,
  /// arcs adjacent in `g`); aborts on violation.
  void verify(const tile::TileGraph& g) const;

  /// Bytes held by this tree's two buffers (obs memory.route_tree
  /// accounting: at 1M nets the trees are the flow's dominant live
  /// structure).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(nodes_.capacity()) * sizeof(RouteNode) +
           static_cast<std::uint64_t>(by_tile_.capacity()) *
               sizeof(std::pair<tile::TileId, NodeId>);
  }

 private:
  std::vector<RouteNode> nodes_;
  // tile -> node lookup. Dense maps would be per-tree O(tiles); a sorted
  // vector keeps trees cheap enough to copy during rip-up-and-reroute.
  std::vector<std::pair<tile::TileId, NodeId>> by_tile_;  // sorted by tile
};

}  // namespace rabid::route
