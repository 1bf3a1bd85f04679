/// \file timing_driven.cpp
/// van Ginneken's candidate propagation (see timing_driven.hpp) over
/// per-parity frontiers: (load cap, slack q) candidates with caps and
/// slacks both strictly increasing.  Every transition emits its frontier
/// in one pass, already sorted, without a sort:
///
///   wire      pushing a frontier through an arc keeps cap order, so one
///             filter prunes it;
///   repeater  the cells, sorted by input cap once per call, offer their
///             options in cap order, and one merge folds them into the
///             list they were computed from;
///   join      van Ginneken's two-pointer merge of two branch groups: a
///             pair's slack is the smaller of its two, so the side that
///             holds it advances (both sides on a tie).
///
/// Exact float ties resolve as a stable sort by (cap, slack descending)
/// over the candidates in creation order would: the earlier candidate
/// (the smaller left index of a join) stays, and at equal cap the higher
/// slack stays.
///
/// All lists of one call are (offset, length) slices of one pool.  Each
/// candidate records its op, its source index (two for a join), its cell
/// and the parity of its source list, so the traceback is lookups.

#include "buffer/timing_driven.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

/// A (capacitance, slack) candidate and the step that made it.  The
/// list that holds it is its parity: the number of signal inversions
/// (mod 2) between this point and every sink below it.  Sinks need an
/// even count, so only parity-0 root candidates are answers.
struct Cand {
  double cap = 0.0;  ///< downstream load, pF
  double q = 0.0;    ///< worst slack (RAT 0) at this point, ps

  enum class Op : std::int8_t {
    kSink,    ///< a node's own sink loads
    kWire,    ///< child candidate `a` pushed through the parent arc
    kArcBuf,  ///< `cell` at the parent, driving wired candidate `a`
    kJoin,    ///< join prefix candidate `a` plus branch candidate `b`
    kDrive,   ///< `cell` at the node, driving joined candidate `a`
  };
  Op op = Op::kSink;
  std::uint8_t src_parity = 0;  ///< parity of the list `a` indexes
  std::int32_t cell = -1;      ///< library index (kArcBuf/kDrive)
  std::int32_t a = -1;
  std::int32_t b = -1;
};

/// One list inside the call's pool: `len` candidates from `off`.
struct Slice {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

/// One list per parity.
using Lists = std::array<Slice, 2>;

class VgSolver {
 public:
  VgSolver(const route::RouteTree& tree, const tile::TileGraph& g,
           const BufferLibrary& lib, const TileAllowFn& allow,
           const timing::Technology& tech)
      : tree_(tree), g_(g), lib_(lib), allow_(allow), tech_(tech) {
    for (std::size_t t = 0; t < lib.size(); ++t) {
      by_cap_.push_back(static_cast<std::int32_t>(t));
    }
    std::stable_sort(by_cap_.begin(), by_cap_.end(),
                     [&](std::int32_t x, std::int32_t y) {
                       return cell(x).input_cap < cell(y).input_cap;
                     });
    nodes_.resize(tree.node_count());
    // A long chain holds about 36 candidates per node with the 8-cell
    // standard library; regrowing the pool costs more than the solve.
    pool_.reserve(36 * tree.node_count());
    for (const route::NodeId v : tree.postorder()) forward_node(v);
  }

  TimingDrivenResult solve() const {
    const Slice root = node(tree_.root()).final[0];
    // The unbuffered candidate always reaches the root with parity 0.
    RABID_ASSERT_MSG(root.len > 0, "no correct-polarity solution");
    TimingDrivenResult result;
    std::int32_t best = 0;
    double best_delay = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < root.len; ++i) {
      const Cand& c = pool_[root.off + i];
      const double d = tech_.driver_res * c.cap - c.q;
      if (d < best_delay) {
        best_delay = d;
        best = static_cast<std::int32_t>(i);
      }
    }
    result.delay_ps = best_delay;
    trace(tree_.root(), 0, best, result);
    return result;
  }

 private:
  /// Per-node lists.  `wire`, `arc` and `acc` belong to the node as a
  /// child: every non-root node is exactly one branch of its parent.
  struct NodeRec {
    Lists wire;    ///< `final` pushed through the parent arc
    Lists arc;     ///< `wire` plus the parent's arc-repeater options
    Lists acc;     ///< the parent's join prefix through this branch
    Lists joined;  ///< the last branch's `acc` joined with own sinks
    Lists final;   ///< `joined` plus the drive options
  };

  const BufferType& cell(std::int32_t t) const {
    return lib_.type(static_cast<std::size_t>(t));
  }
  NodeRec& node(route::NodeId v) {
    return nodes_[static_cast<std::size_t>(v)];
  }
  const NodeRec& node(route::NodeId v) const {
    return nodes_[static_cast<std::size_t>(v)];
  }
  const Cand& at(Slice s, std::int32_t i) const {
    return pool_[s.off + static_cast<std::uint32_t>(i)];
  }
  Slice begin_slice() const {
    return {static_cast<std::uint32_t>(pool_.size()), 0};
  }

  /// Appends `x` to the list `s` being built at the pool's end.  Input
  /// comes in non-decreasing cap order: a candidate no better than the
  /// last one kept is dropped, and one with the same cap but a higher
  /// slack replaces it.
  void keep(Slice& s, const Cand& x) {
    if (s.len > 0) {
      Cand& last = pool_.back();
      if (x.q <= last.q) return;
      if (x.cap == last.cap) {
        last = x;
        return;
      }
    }
    pool_.push_back(x);
    ++s.len;
  }

  double arc_len(route::NodeId child) const {
    const auto a = g_.coord_of(tree_.node(child).tile);
    const auto b = g_.coord_of(tree_.node(tree_.node(child).parent).tile);
    return (a.y == b.y) ? g_.tile_width() : g_.tile_height();
  }

  void forward_node(route::NodeId v) {
    NodeRec& d = node(v);
    const route::RouteNode& n = tree_.node(v);
    const auto children = n.children();
    Lists sinks;
    if (n.sink_count > 0 || children.empty()) {
      sinks[0] = begin_slice();
      keep(sinks[0], {.cap = tech_.sink_cap * n.sink_count});
      sinks[1] = begin_slice();
    }
    if (children.empty()) {
      d.final = sinks;  // sinks demand even inversions below
      return;
    }
    const bool site = allow_(n.tile);
    for (const route::NodeId w : children) advance(node(w), arc_len(w), site);
    Lists acc = node(children[0]).acc = node(children[0]).arc;
    for (std::size_t s = 1; s < children.size(); ++s) {
      NodeRec& w = node(children[s]);
      acc = w.acc = join(acc, w.arc);
    }
    d.joined = n.sink_count > 0 ? join(acc, sinks) : acc;
    // Drive: a repeater in series at v (>= 2 branches, never the root).
    d.final = d.joined;
    if (site && children.size() >= 2 && v != tree_.root()) {
      d.final = with_repeaters(d.joined, Cand::Op::kDrive);
    }
  }

  /// Branch w's lists at its parent: w's final lists pushed through an
  /// arc of `len` um, then the parent's arc-repeater options if `site`.
  void advance(NodeRec& w, double len, bool site) {
    const double r = tech_.wire_res(len);
    const double c = tech_.wire_cap(len);
    for (std::size_t p = 0; p < 2; ++p) {
      const Slice src = w.final[p];
      w.wire[p] = begin_slice();
      for (std::uint32_t i = 0; i < src.len; ++i) {
        const Cand s = pool_[src.off + i];
        keep(w.wire[p], {.cap = s.cap + c,
                         .q = s.q - r * (s.cap + c / 2.0),
                         .op = Cand::Op::kWire,
                         .src_parity = static_cast<std::uint8_t>(p),
                         .a = static_cast<std::int32_t>(i)});
      }
    }
    w.arc = site ? with_repeaters(w.wire, Cand::Op::kArcBuf) : w.wire;
  }

  /// `lists` with one repeater option per cell and output parity folded
  /// in.  A cell's option is fed by the best slack in the list whose
  /// parity the cell maps onto the output parity.  Options come in cell
  /// input-cap order, so one merge by cap folds them; on a cap tie the
  /// `lists` candidate goes first.
  Lists with_repeaters(const Lists& lists, Cand::Op op) {
    for (std::vector<Cand>& o : opts_) o.clear();
    for (const std::int32_t t : by_cap_) {
      const BufferType& bt = cell(t);
      for (std::size_t out_parity = 0; out_parity < 2; ++out_parity) {
        // The signal passes the cell, then the source's subtree.
        const std::size_t src_parity =
            bt.inverting ? (out_parity ^ 1) : out_parity;
        const Slice src = lists[src_parity];
        if (src.len == 0) continue;
        Cand best{.cap = bt.input_cap,
                  .q = -std::numeric_limits<double>::infinity(),
                  .op = op,
                  .src_parity = static_cast<std::uint8_t>(src_parity),
                  .cell = t};
        for (std::uint32_t i = 0; i < src.len; ++i) {
          const Cand& s = pool_[src.off + i];
          const double q = s.q - bt.intrinsic_ps - bt.output_res * s.cap;
          if (q > best.q) {
            best.q = q;
            best.a = static_cast<std::int32_t>(i);
          }
        }
        opts_[out_parity].push_back(best);
      }
    }
    Lists out;
    for (std::size_t p = 0; p < 2; ++p) {
      const Slice in = lists[p];
      const std::vector<Cand>& opts = opts_[p];
      out[p] = begin_slice();
      std::uint32_t i = 0;
      std::size_t j = 0;
      while (i < in.len || j < opts.size()) {
        if (j == opts.size() ||
            (i < in.len && pool_[in.off + i].cap <= opts[j].cap)) {
          const Cand x = pool_[in.off + i++];
          keep(out[p], x);
        } else {
          keep(out[p], opts[j++]);
        }
      }
    }
    return out;
  }

  /// Loads add and the worse slack bounds the pair.  Pairing the side
  /// with the smaller slack with more load on the other side cannot
  /// raise the pair's slack, so that side advances.
  Lists join(const Lists& left, const Lists& right) {
    Lists out;
    for (std::size_t p = 0; p < 2; ++p) {
      const Slice x = left[p];
      const Slice y = right[p];
      out[p] = begin_slice();
      std::uint32_t i = 0;
      std::uint32_t j = 0;
      while (i < x.len && j < y.len) {
        const Cand l = pool_[x.off + i];
        const Cand r = pool_[y.off + j];
        keep(out[p], {.cap = l.cap + r.cap,
                      .q = std::min(l.q, r.q),
                      .op = Cand::Op::kJoin,
                      .src_parity = static_cast<std::uint8_t>(p),
                      .a = static_cast<std::int32_t>(i),
                      .b = static_cast<std::int32_t>(j)});
        if (l.q <= r.q) ++i;
        if (r.q <= l.q) ++j;
      }
    }
    return out;
  }

  // ---- traceback -------------------------------------------------------

  /// Unfolds candidate `i` of v's final list of parity `p`.  Placements
  /// come out in preorder: v's drive, then per branch its arc repeater
  /// and its subtree.
  void trace(route::NodeId v, std::size_t p, std::int32_t i,
             TimingDrivenResult& out) const {
    const NodeRec& d = node(v);
    const auto children = tree_.node(v).children();
    if (children.empty()) return;
    Cand c = at(d.final[p], i);
    if (c.op == Cand::Op::kDrive) {
      out.buffers.push_back({v, route::kNoNode});
      out.types.push_back(c.cell);
      p = c.src_parity;
      c = at(d.joined[p], c.a);
    }
    if (tree_.node(v).sink_count > 0) {
      c = at(node(children.back()).acc[p], c.a);
    }
    unfold(v, children.size() - 1, p, c, out);
  }

  /// `c` is a candidate of branch s's join prefix: unfolds branches
  /// 0..s in order.
  void unfold(route::NodeId v, std::size_t s, std::size_t p, Cand c,
              TimingDrivenResult& out) const {
    const auto children = tree_.node(v).children();
    const route::NodeId w = children[s];
    if (s > 0) {
      RABID_ASSERT(c.op == Cand::Op::kJoin);
      unfold(v, s - 1, p, at(node(children[s - 1]).acc[p], c.a), out);
      c = at(node(w).arc[p], c.b);
    }
    if (c.op == Cand::Op::kArcBuf) {
      out.buffers.push_back({v, w});
      out.types.push_back(c.cell);
      c = at(node(w).wire[c.src_parity], c.a);
    }
    RABID_ASSERT(c.op == Cand::Op::kWire);
    trace(w, c.src_parity, c.a, out);
  }

  const route::RouteTree& tree_;
  const tile::TileGraph& g_;
  const BufferLibrary& lib_;
  const TileAllowFn& allow_;
  const timing::Technology& tech_;
  std::vector<std::int32_t> by_cap_;  ///< cell indices by input cap
  std::vector<NodeRec> nodes_;
  std::vector<Cand> pool_;  ///< every list of the call
  std::array<std::vector<Cand>, 2> opts_;  ///< repeater-option scratch
};

}  // namespace

TimingDrivenResult van_ginneken(const route::RouteTree& tree,
                                const tile::TileGraph& g,
                                const BufferLibrary& lib,
                                const TileAllowFn& allow,
                                const timing::Technology& tech) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  return VgSolver(tree, g, lib, allow, tech).solve();
}

}  // namespace rabid::buffer
