#include "buffer/timing_driven.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

/// A (capacitance, slack) candidate with provenance for the traceback.
///
/// `parity` bookkeeping (inverter support): a candidate's list index is
/// the number of signal inversions (mod 2) between this point and every
/// sink below it.  Sinks require an even total, so only parity-0 root
/// candidates are answers.  Non-inverting cells preserve parity;
/// inverters flip it; merges require both branches to agree.
struct Cand {
  double cap = 0.0;
  double q = 0.0;  ///< worst slack (RAT 0) at this point

  enum class Op {
    kLeaf,    ///< base candidate at a node (sink loads only)
    kWire,    ///< child candidate pushed through the parent arc
    kArcBuf,  ///< buffer/inverter at the parent driving this arc
    kCopy,    ///< merge stage 0 = first child list
    kMerge,   ///< combined with the next child list
    kSink,    ///< the node's own sink loads, as a merge operand
    kDrive,   ///< driving buffer/inverter at the node (joint load)
  };
  Op op = Op::kLeaf;
  std::int32_t a = -1;          ///< index into the op's source list
  std::int32_t b = -1;          ///< second index (kMerge)
  std::int32_t type = -1;       ///< library cell (kArcBuf/kDrive)
  std::int8_t src_parity = 0;   ///< parity of the source list
};

using List = std::vector<Cand>;
/// One candidate list per required-inversions parity.
using PList = std::array<List, 2>;

/// Keeps the non-dominated frontier: caps strictly increasing, slacks
/// strictly increasing.  ((c1,q1) dominates (c2,q2) iff c1<=c2, q1>=q2.)
List prune(List in) {
  std::stable_sort(in.begin(), in.end(), [](const Cand& x, const Cand& y) {
    if (x.cap != y.cap) return x.cap < y.cap;
    return x.q > y.q;
  });
  List out;
  for (const Cand& c : in) {
    if (!out.empty() && c.q <= out.back().q) continue;  // dominated
    if (!out.empty() && c.cap == out.back().cap) continue;
    out.push_back(c);
  }
  return out;
}

PList prune(PList in) {
  return {prune(std::move(in[0])), prune(std::move(in[1]))};
}

/// Everything computed at one node, kept for the traceback.
struct NodeLists {
  // Per child (tree order): the child's final lists pushed through the
  // arc, then with arc-repeater options appended.
  std::vector<PList> arc_wire;
  std::vector<PList> arc_final;
  // Fold of arc_final lists (+ the node's sink operand as a final stage).
  std::vector<PList> merge;
  bool merged_sinks = false;  ///< last merge stage folded the sink operand
  PList final;  ///< merge.back() plus drive options, pruned
};

class VgSolver {
 public:
  VgSolver(const route::RouteTree& tree, const tile::TileGraph& g,
           const BufferLibrary& lib, bool use_inverters,
           const TileAllowFn& allow, const timing::Technology& tech)
      : tree_(tree), g_(g), allow_(allow), tech_(tech) {
    for (std::size_t i = 0; i < lib.size(); ++i) {
      if (lib.type(i).inverting && !use_inverters) continue;
      cells_.push_back(&lib.type(i));
      cell_index_.push_back(static_cast<std::int32_t>(i));
    }
    RABID_ASSERT_MSG(
        std::any_of(cells_.begin(), cells_.end(),
                    [](const BufferType* t) { return !t->inverting; }),
        "library has no non-inverting buffer");
    nodes_.resize(tree.node_count());
    for (const route::NodeId v : tree.postorder()) process(v);
  }

  TimingDrivenResult solve() {
    TimingDrivenResult result;
    // Only parity-0 root candidates deliver correct sink polarity.
    const List& root =
        nodes_[static_cast<std::size_t>(tree_.root())].final[0];
    RABID_ASSERT_MSG(!root.empty(), "no correct-polarity solution");
    std::int32_t best = 0;
    double best_delay = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < root.size(); ++i) {
      const double d = tech_.driver_res * root[i].cap - root[i].q;
      if (d < best_delay) {
        best_delay = d;
        best = static_cast<std::int32_t>(i);
      }
    }
    result.delay_ps = best_delay;
    trace_final(tree_.root(), 0, best, result);
    return result;
  }

 private:
  double arc_len(route::NodeId child) const {
    const auto a = g_.coord_of(tree_.node(child).tile);
    const auto b = g_.coord_of(tree_.node(tree_.node(child).parent).tile);
    return (a.y == b.y) ? g_.tile_width() : g_.tile_height();
  }

  /// Repeater options from `source` lists: one candidate per cell, fed
  /// by the best slack in the parity the cell maps onto `out_parity`.
  void add_repeater_options(const PList& source, Cand::Op op,
                            PList& out) const {
    for (std::size_t t = 0; t < cells_.size(); ++t) {
      const BufferType& cell = *cells_[t];
      for (std::int8_t out_parity = 0; out_parity < 2; ++out_parity) {
        // The cell sits above the source point: signal passes the cell,
        // then the source's subtree.  Inversions below the cell's input
        // = source parity + (cell inverting ? 1 : 0).
        const auto src_parity = static_cast<std::int8_t>(
            cell.inverting ? (out_parity ^ 1) : out_parity);
        const List& src = source[static_cast<std::size_t>(src_parity)];
        double best_q = -std::numeric_limits<double>::infinity();
        std::int32_t best_a = -1;
        for (std::size_t i = 0; i < src.size(); ++i) {
          const double q = src[i].q - cell.intrinsic_ps -
                           cell.output_res * src[i].cap;
          if (q > best_q) {
            best_q = q;
            best_a = static_cast<std::int32_t>(i);
          }
        }
        if (best_a < 0) continue;
        Cand cand;
        cand.cap = cell.input_cap;
        cand.q = best_q;
        cand.op = op;
        cand.a = best_a;
        cand.type = static_cast<std::int32_t>(t);
        cand.src_parity = src_parity;
        out[static_cast<std::size_t>(out_parity)].push_back(cand);
      }
    }
  }

  void process(route::NodeId v) {
    NodeLists& n = nodes_[static_cast<std::size_t>(v)];
    const route::RouteNode& node = tree_.node(v);

    // Arc lists per child.
    for (const route::NodeId w : node.children()) {
      const PList& below = nodes_[static_cast<std::size_t>(w)].final;
      const double r = tech_.wire_res(arc_len(w));
      const double c = tech_.wire_cap(arc_len(w));
      PList wired;
      for (std::int8_t p = 0; p < 2; ++p) {
        const List& src = below[static_cast<std::size_t>(p)];
        for (std::size_t i = 0; i < src.size(); ++i) {
          Cand cand;
          cand.cap = src[i].cap + c;
          cand.q = src[i].q - r * (src[i].cap + c / 2.0);
          cand.op = Cand::Op::kWire;
          cand.a = static_cast<std::int32_t>(i);
          cand.src_parity = p;
          wired[static_cast<std::size_t>(p)].push_back(cand);
        }
      }
      wired = prune(std::move(wired));
      PList with_buf = wired;
      if (allow_(node.tile)) {
        add_repeater_options(wired, Cand::Op::kArcBuf, with_buf);
      }
      n.arc_wire.push_back(std::move(wired));
      n.arc_final.push_back(prune(std::move(with_buf)));
    }

    // Merge children; the node's own sinks are one more operand.
    if (node.children().empty()) {
      Cand leaf;
      leaf.cap = tech_.sink_cap * node.sink_count;
      leaf.q = 0.0;
      leaf.op = Cand::Op::kLeaf;
      PList base;
      base[0].push_back(leaf);  // sinks demand even inversions below
      n.merge.push_back(std::move(base));
    } else {
      // Merge stage 0 mirrors arc_final[0]; kCopy indices are positions
      // in those (already pruned) lists.
      PList stage0 = n.arc_final.front();
      for (std::int8_t p = 0; p < 2; ++p) {
        List& lst = stage0[static_cast<std::size_t>(p)];
        for (std::size_t i = 0; i < lst.size(); ++i) {
          lst[i].op = Cand::Op::kCopy;
          lst[i].a = static_cast<std::int32_t>(i);
          lst[i].b = -1;
          lst[i].type = -1;
          lst[i].src_parity = p;
        }
      }
      n.merge.push_back(std::move(stage0));
      for (std::size_t s = 1; s < n.arc_final.size(); ++s) {
        n.merge.push_back(merge_lists(n.merge.back(), n.arc_final[s]));
      }
      if (node.sink_count > 0) {
        Cand sink;
        sink.cap = tech_.sink_cap * node.sink_count;
        sink.q = 0.0;
        sink.op = Cand::Op::kSink;
        PList operand;
        operand[0].push_back(sink);
        n.merge.push_back(merge_lists(n.merge.back(), operand));
        n.merged_sinks = true;
      }
    }

    // Driving-repeater options (>= 2 children, never at the root).
    n.final = n.merge.back();
    if (node.children().size() >= 2 && v != tree_.root() &&
        allow_(node.tile)) {
      add_repeater_options(n.merge.back(), Cand::Op::kDrive, n.final);
    }
    n.final = prune(std::move(n.final));
  }

  /// Parity-wise cross-product merge (c_a + c_b, min(q_a, q_b)): both
  /// operands must demand the same incoming polarity.
  static PList merge_lists(const PList& a, const PList& b) {
    PList out;
    for (std::int8_t p = 0; p < 2; ++p) {
      const List& la = a[static_cast<std::size_t>(p)];
      const List& lb = b[static_cast<std::size_t>(p)];
      List& lo = out[static_cast<std::size_t>(p)];
      lo.reserve(la.size() * lb.size());
      for (std::size_t i = 0; i < la.size(); ++i) {
        for (std::size_t j = 0; j < lb.size(); ++j) {
          Cand c;
          c.cap = la[i].cap + lb[j].cap;
          c.q = std::min(la[i].q, lb[j].q);
          c.op = Cand::Op::kMerge;
          c.a = static_cast<std::int32_t>(i);
          c.b = static_cast<std::int32_t>(j);
          c.src_parity = p;
          lo.push_back(c);
        }
      }
    }
    return prune(std::move(out));
  }

  // ---- traceback -------------------------------------------------------

  void trace_final(route::NodeId v, std::int8_t parity, std::int32_t idx,
                   TimingDrivenResult& out) const {
    const NodeLists& n = nodes_[static_cast<std::size_t>(v)];
    const Cand& c =
        n.final[static_cast<std::size_t>(parity)][static_cast<std::size_t>(idx)];
    if (c.op == Cand::Op::kDrive) {
      out.buffers.push_back({v, route::kNoNode});
      out.types.push_back(cell_index_[static_cast<std::size_t>(c.type)]);
      trace_merge(v, static_cast<std::int32_t>(n.merge.size()) - 1,
                  c.src_parity, c.a, out);
    } else {
      trace_merge_cand(v, static_cast<std::int32_t>(n.merge.size()) - 1, c,
                       out);
    }
  }

  void trace_merge(route::NodeId v, std::int32_t stage, std::int8_t parity,
                   std::int32_t idx, TimingDrivenResult& out) const {
    const NodeLists& n = nodes_[static_cast<std::size_t>(v)];
    trace_merge_cand(
        v, stage,
        n.merge[static_cast<std::size_t>(stage)]
               [static_cast<std::size_t>(parity)]
               [static_cast<std::size_t>(idx)],
        out);
  }

  void trace_merge_cand(route::NodeId v, std::int32_t stage, const Cand& c,
                        TimingDrivenResult& out) const {
    const NodeLists& n = nodes_[static_cast<std::size_t>(v)];
    switch (c.op) {
      case Cand::Op::kLeaf:
      case Cand::Op::kSink:
        return;
      case Cand::Op::kCopy:
        trace_arc(v, 0, c.src_parity, c.a, out);
        return;
      case Cand::Op::kMerge: {
        trace_merge(v, stage - 1, c.src_parity, c.a, out);
        const bool is_sink_stage =
            n.merged_sinks &&
            stage == static_cast<std::int32_t>(n.merge.size()) - 1;
        if (!is_sink_stage) {
          trace_arc(v, stage, c.src_parity, c.b, out);
        }
        return;
      }
      default:
        RABID_ASSERT_MSG(false, "unexpected op in merge traceback");
    }
  }

  void trace_arc(route::NodeId v, std::int32_t child_pos, std::int8_t parity,
                 std::int32_t idx, TimingDrivenResult& out) const {
    const NodeLists& n = nodes_[static_cast<std::size_t>(v)];
    const route::NodeId w =
        tree_.node(v).children()[static_cast<std::size_t>(child_pos)];
    const Cand& c = n.arc_final[static_cast<std::size_t>(child_pos)]
                               [static_cast<std::size_t>(parity)]
                               [static_cast<std::size_t>(idx)];
    if (c.op == Cand::Op::kArcBuf) {
      out.buffers.push_back({v, w});
      out.types.push_back(cell_index_[static_cast<std::size_t>(c.type)]);
      const Cand& wired =
          n.arc_wire[static_cast<std::size_t>(child_pos)]
                    [static_cast<std::size_t>(c.src_parity)]
                    [static_cast<std::size_t>(c.a)];
      trace_final(w, wired.src_parity, wired.a, out);
    } else {
      RABID_ASSERT(c.op == Cand::Op::kWire);
      trace_final(w, c.src_parity, c.a, out);
    }
  }

  const route::RouteTree& tree_;
  const tile::TileGraph& g_;
  const TileAllowFn& allow_;
  const timing::Technology& tech_;
  std::vector<const BufferType*> cells_;   ///< the cells in play
  std::vector<std::int32_t> cell_index_;  ///< their library indices
  std::vector<NodeLists> nodes_;
};

}  // namespace

TimingDrivenResult van_ginneken(const route::RouteTree& tree,
                                const tile::TileGraph& g,
                                const BufferLibrary& lib,
                                const TileAllowFn& allow,
                                const timing::Technology& tech) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  VgSolver solver(tree, g, lib, /*use_inverters=*/false, allow, tech);
  return solver.solve();
}

TimingDrivenResult van_ginneken_with_inverters(
    const route::RouteTree& tree, const tile::TileGraph& g,
    const BufferLibrary& lib, const TileAllowFn& allow,
    const timing::Technology& tech) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  VgSolver solver(tree, g, lib, /*use_inverters=*/true, allow, tech);
  return solver.solve();
}

}  // namespace rabid::buffer
