#include "timing/delay.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rabid::timing {

DelayResult evaluate_delay(const route::RouteTree& tree,
                           const route::BufferList& buffers,
                           std::span<const buffer::BufferType> types,
                           const tile::TileGraph& g, const Technology& tech) {
  RABID_ASSERT_MSG(types.empty() || types.size() == buffers.size(),
                   "one library cell per buffer placement");
  DelayResult result;
  if (tree.empty()) return result;

  // Index buffers by role for O(1) lookup during the walk.
  const auto n_nodes = tree.node_count();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> driving(n_nodes, kNone);
  // decoupling[child]: the buffer (index into `buffers`) driving the arc
  // parent->child, if any.
  std::vector<std::size_t> decoupling(n_nodes, kNone);
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const route::BufferPlacement& b = buffers[i];
    RABID_ASSERT(b.node >= 0 && static_cast<std::size_t>(b.node) < n_nodes);
    if (b.child == route::kNoNode) {
      RABID_ASSERT_MSG(driving[static_cast<std::size_t>(b.node)] == kNone,
                       "two driving buffers on one node");
      driving[static_cast<std::size_t>(b.node)] = i;
    } else {
      RABID_ASSERT(tree.node(b.child).parent == b.node);
      RABID_ASSERT_MSG(decoupling[static_cast<std::size_t>(b.child)] == kNone,
                       "two decoupling buffers on one arc");
      decoupling[static_cast<std::size_t>(b.child)] = i;
    }
  }

  RcTree rc;
  // Electrical point of each route node (after any driving buffer).
  std::vector<RcTree::NodeId> main(n_nodes, RcTree::kNoNode);

  auto add_buffer = [&](RcTree::NodeId at, std::size_t index) {
    if (types.empty()) {
      return rc.add_gate(at, tech.buffer_cap, tech.buffer_res,
                         tech.buffer_intrinsic_ps);
    }
    const buffer::BufferType& t = types[index];
    return rc.add_gate(at, t.input_cap, t.output_res, t.intrinsic_ps);
  };

  for (const route::NodeId v : tree.preorder()) {
    const route::RouteNode& node = tree.node(v);
    RcTree::NodeId attach;
    if (node.parent == route::kNoNode) {
      // Net driver: a stage root with the driver's output resistance.
      attach = rc.add_root(tech.driver_res, 0.0);
    } else {
      // Where the arc parent->v hangs on the parent's electronics.
      RcTree::NodeId from = main[static_cast<std::size_t>(node.parent)];
      if (decoupling[static_cast<std::size_t>(v)] != kNone) {
        from = add_buffer(from, decoupling[static_cast<std::size_t>(v)]);
      }
      // One tile step of wire as a pi-model.
      const auto a = g.coord_of(node.tile);
      const auto b = g.coord_of(tree.node(node.parent).tile);
      const double len_um = (a.y == b.y) ? g.tile_width() : g.tile_height();
      const double wire_r = tech.wire_res(len_um);
      const double wire_c = tech.wire_cap(len_um);
      rc.add_cap(from, wire_c / 2.0);
      attach = rc.add_node(from, wire_r, wire_c / 2.0);
    }
    if (driving[static_cast<std::size_t>(v)] != kNone) {
      attach = add_buffer(attach, driving[static_cast<std::size_t>(v)]);
    }
    main[static_cast<std::size_t>(v)] = attach;
    if (node.sink_count > 0) {
      rc.add_cap(attach, tech.sink_cap * node.sink_count);
    }
  }

  const std::vector<double> delays = rc.elmore_delays();
  for (std::size_t v = 0; v < n_nodes; ++v) {
    const std::int32_t sinks =
        tree.node(static_cast<route::NodeId>(v)).sink_count;
    if (sinks == 0) continue;
    const double d = delays[static_cast<std::size_t>(main[v])];
    for (std::int32_t k = 0; k < sinks; ++k) {
      result.sink_delays_ps.push_back(d);
      result.sum_ps += d;
      result.max_ps = std::max(result.max_ps, d);
    }
  }
  return result;
}

}  // namespace rabid::timing
