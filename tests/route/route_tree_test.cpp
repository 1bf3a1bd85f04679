#include "route/route_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

namespace rabid::route {
namespace {

tile::TileGraph make_graph() {
  return tile::TileGraph(geom::Rect{{0, 0}, {500, 400}}, 5, 4);
}

// Builds:   (0,0)-(1,0)-(2,0)-(2,1)   with a branch (1,0)-(1,1)-(1,2)
// root at (0,0); sinks at (2,1) and (1,2).
RouteTree make_tree(const tile::TileGraph& g) {
  RouteTree t(g.id_of({0, 0}));
  const NodeId a = t.add_child(t.root(), g.id_of({1, 0}));
  const NodeId b = t.add_child(a, g.id_of({2, 0}));
  const NodeId c = t.add_child(b, g.id_of({2, 1}));
  const NodeId d = t.add_child(a, g.id_of({1, 1}));
  const NodeId e = t.add_child(d, g.id_of({1, 2}));
  t.add_sink(c);
  t.add_sink(e);
  return t;
}

// A node is one flat record, so copying a tree allocates nothing per node.
static_assert(sizeof(RouteNode) == 32);
static_assert(std::is_trivially_copyable_v<RouteNode>);

TEST(RouteTree, ChildrenSpanKeepsAddOrder) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  const NodeId a = t.node_at(g.id_of({1, 0}));
  const std::span<const NodeId> kids = t.node(a).children();
  EXPECT_EQ(kids.data(), t.node(a).child.data());
  ASSERT_EQ(kids.size(), 2U);
  EXPECT_EQ(kids[0], t.node_at(g.id_of({2, 0})));
  EXPECT_EQ(kids[1], t.node_at(g.id_of({1, 1})));
  ASSERT_EQ(t.node(t.root()).children().size(), 1U);
  EXPECT_EQ(t.node(t.root()).children()[0], a);
  EXPECT_TRUE(t.node(t.node_at(g.id_of({2, 1}))).children().empty());
}

TEST(RouteTree, CopyEqualsNodeForNode) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  const RouteTree copy = t;
  ASSERT_EQ(copy.node_count(), t.node_count());
  for (std::size_t i = 0; i < t.node_count(); ++i) {
    const RouteNode& x = t.node(static_cast<NodeId>(i));
    const RouteNode& y = copy.node(static_cast<NodeId>(i));
    EXPECT_EQ(x.tile, y.tile);
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.sink_count, y.sink_count);
    EXPECT_TRUE(std::ranges::equal(x.children(), y.children()));
    EXPECT_EQ(copy.node_at(x.tile), static_cast<NodeId>(i));
  }
}

TEST(RouteTree, MemoryBytesCountsTwoBuffers) {
  // Four nodes: one-at-a-time growth leaves both buffers at capacity 4
  // under doubling and under 1.5x growth alike.
  const tile::TileGraph g = make_graph();
  RouteTree t(g.id_of({0, 0}));
  NodeId cur = t.root();
  for (std::int32_t x = 1; x <= 3; ++x) cur = t.add_child(cur, g.id_of({x, 0}));
  EXPECT_EQ(t.memory_bytes(), 4U * 32U + 4U * 8U);
}

TEST(RouteTreeDeathTest, FifthChildAborts) {
  // Grid trees never need a fifth child (four neighbors); add_child does
  // not check adjacency itself, so a hand-built star can ask for one.
  const tile::TileGraph g = make_graph();
  RouteTree t(g.id_of({2, 2}));
  for (std::int32_t x = 0; x < 4; ++x) t.add_child(t.root(), g.id_of({x, 0}));
  EXPECT_DEATH(t.add_child(t.root(), g.id_of({4, 0})), "fifth child");
}

TEST(RouteTree, BasicStructure) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  EXPECT_EQ(t.node_count(), 6U);
  EXPECT_EQ(t.wirelength_tiles(), 5);
  EXPECT_EQ(t.total_sinks(), 2);
  EXPECT_EQ(t.sink_nodes().size(), 2U);
  t.verify(g);
}

TEST(RouteTree, NodeAtLookup) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  EXPECT_EQ(t.node_at(g.id_of({0, 0})), t.root());
  EXPECT_NE(t.node_at(g.id_of({1, 1})), kNoNode);
  EXPECT_EQ(t.node_at(g.id_of({4, 3})), kNoNode);
  EXPECT_TRUE(t.contains(g.id_of({2, 1})));
  EXPECT_FALSE(t.contains(g.id_of({3, 0})));
}

TEST(RouteTree, DepthFollowsArcs) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  EXPECT_EQ(t.depth(t.root()), 0);
  EXPECT_EQ(t.depth(t.node_at(g.id_of({2, 1}))), 3);
  EXPECT_EQ(t.depth(t.node_at(g.id_of({1, 2}))), 3);
}

TEST(RouteTree, WirelengthUm) {
  const tile::TileGraph g = make_graph();  // 100x100 tiles
  const RouteTree t = make_tree(g);
  EXPECT_DOUBLE_EQ(t.wirelength_um(g), 500.0);
}

TEST(RouteTree, CommitUncommitRoundTrip) {
  tile::TileGraph g = make_graph();
  g.set_uniform_wire_capacity(2);
  const RouteTree t = make_tree(g);
  t.commit(g);
  EXPECT_EQ(g.wire_usage(g.edge_between(g.id_of({0, 0}), g.id_of({1, 0}))), 1);
  EXPECT_EQ(g.wire_usage(g.edge_between(g.id_of({1, 0}), g.id_of({1, 1}))), 1);
  EXPECT_EQ(g.wire_usage(g.edge_between(g.id_of({3, 0}), g.id_of({4, 0}))), 0);
  t.uncommit(g);
  for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(g.wire_usage(e), 0);
  }
}

TEST(RouteTree, PreorderParentsFirst) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  const std::vector<NodeId> order = t.preorder();
  std::vector<bool> seen(t.node_count(), false);
  for (const NodeId n : order) {
    const NodeId p = t.node(n).parent;
    if (p != kNoNode) EXPECT_TRUE(seen[static_cast<std::size_t>(p)]);
    seen[static_cast<std::size_t>(n)] = true;
  }
}

TEST(RouteTree, PostorderChildrenFirst) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  std::vector<bool> seen(t.node_count(), false);
  for (const NodeId n : t.postorder()) {
    for (const NodeId c : t.node(n).children()) {
      EXPECT_TRUE(seen[static_cast<std::size_t>(c)]);
    }
    seen[static_cast<std::size_t>(n)] = true;
  }
}

TEST(RouteTree, TwoPathDecomposition) {
  const tile::TileGraph g = make_graph();
  const RouteTree t = make_tree(g);
  const auto paths = t.two_paths();
  // Anchors: root, branch node (1,0), sinks (2,1) and (1,2).
  // Two-paths: root->(1,0); (1,0)->(2,1) via (2,0); (1,0)->(1,2) via (1,1).
  ASSERT_EQ(paths.size(), 3U);
  EXPECT_EQ(paths[0].head, t.root());
  EXPECT_EQ(paths[0].tail, t.node_at(g.id_of({1, 0})));
  EXPECT_TRUE(paths[0].interior.empty());
  EXPECT_EQ(paths[1].head, t.node_at(g.id_of({1, 0})));
  EXPECT_EQ(paths[1].tail, t.node_at(g.id_of({2, 1})));
  ASSERT_EQ(paths[1].interior.size(), 1U);
  EXPECT_EQ(paths[1].interior[0], t.node_at(g.id_of({2, 0})));
  EXPECT_EQ(paths[2].tail, t.node_at(g.id_of({1, 2})));
}

TEST(RouteTree, TwoPathOfPureChain) {
  const tile::TileGraph g = make_graph();
  RouteTree t(g.id_of({0, 0}));
  NodeId cur = t.root();
  for (std::int32_t x = 1; x < 5; ++x) {
    cur = t.add_child(cur, g.id_of({x, 0}));
  }
  t.add_sink(cur);
  const auto paths = t.two_paths();
  ASSERT_EQ(paths.size(), 1U);
  EXPECT_EQ(paths[0].head, t.root());
  EXPECT_EQ(paths[0].tail, cur);
  EXPECT_EQ(paths[0].interior.size(), 3U);
}

TEST(RouteTree, SinkOnInternalNodeIsAnchor) {
  const tile::TileGraph g = make_graph();
  RouteTree t(g.id_of({0, 0}));
  const NodeId a = t.add_child(t.root(), g.id_of({1, 0}));
  const NodeId b = t.add_child(a, g.id_of({2, 0}));
  t.add_sink(a);  // internal sink splits the chain
  t.add_sink(b);
  const auto paths = t.two_paths();
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_EQ(paths[0].tail, a);
  EXPECT_EQ(paths[1].head, a);
  EXPECT_EQ(paths[1].tail, b);
}

TEST(RouteTree, SingleNodeTree) {
  const tile::TileGraph g = make_graph();
  RouteTree t(g.id_of({2, 2}));
  t.add_sink(t.root());
  EXPECT_EQ(t.wirelength_tiles(), 0);
  EXPECT_EQ(t.total_sinks(), 1);
  EXPECT_TRUE(t.two_paths().empty());
  t.verify(g);
}

}  // namespace
}  // namespace rabid::route
