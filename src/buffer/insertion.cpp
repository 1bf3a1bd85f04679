/// \file insertion.cpp
/// The Stage-3 buffer-insertion DP over dominance-pruned candidate
/// frontiers (see insertion.hpp for the transitions, frontier.hpp for
/// the pruning invariant and library.hpp for type semantics).
///
/// Loads range over [0, Jcap] with Jcap = max(L, max_drive_limit(L)):
/// states longer than every gate's reach (including the net driver's
/// plain L) can never be consumed.  Every transition emits its pruned
/// frontier in one pass, already sorted, without a sort:
///
///   K_w      the decouple state (load 0) goes first, then the advanced
///            child frontier (already a staircase) is filtered against it;
///   join     a dense per-load scratch row keeps the cheapest pair sum
///            per load (strict <, so the first left state wins a tie),
///            and one staircase pass reads it back;
///   drive    the drive state (load 0) is prepended and the joined
///            frontier filtered against it.
///
/// The per-load minimum is order-free and every cost is the same IEEE
/// sum whichever way it was found, so the frontiers are exactly those a
/// sort-and-prune would build.
///
/// All frontiers of one call are (offset, length) slices of one pool.
/// Each state records in Cand::src where it came from — the left join
/// prefix's state for a join, the child's state for an advance, the
/// child's consumed state for a decouple — so the traceback is lookups.

#include "buffer/insertion.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "buffer/frontier.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One frontier inside the call's pool: `len` states from `off`.
struct Slice {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

/// A gate choice minimized over the library: type, realized cost, and
/// the source state it consumes.
struct GateChoice {
  std::int32_t type = -1;  ///< library index; -1 == no legal choice
  double cost = kInf;      ///< cost_scale_type * q_v + source cost
  std::int32_t src = -1;   ///< index into the source frontier
};

/// Bottom-up forward pass + top-down traceback.
class CandidateDp {
 public:
  CandidateDp(const route::RouteTree& tree, std::int32_t L,
              const TileCostFn& q, const BufferLibrary& lib)
      : tree_(tree), L_(L) {
    RABID_ASSERT_MSG(L >= 1, "length limit must be at least one tile");
    jcap_ = std::max(L, lib.max_drive_limit(L));
    types_.reserve(lib.size());
    for (std::size_t t = 0; t < lib.size(); ++t) {
      types_.push_back({lib.type(t).cost_scale, lib.drive_limit(t, L)});
    }
    const std::size_t n = tree.node_count();
    nodes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodes_[i].q = q(tree.node(static_cast<route::NodeId>(i)).tile);
    }
    // Every leaf shares the one sink frontier {(0, 0)}: zero wire, zero
    // cost (Fig. 6 Step 1).
    pool_.reserve(4 * n);
    pool_.push_back({});
    for (const route::NodeId v : tree.postorder()) {
      forward_node(v);
    }
  }

  double best_cost() const { return frontier_min_under(root_frontier(), L_); }

  std::uint64_t states_pruned() const { return states_pruned_; }

  /// Frontier states materialized by this call (the pool's size).
  std::uint64_t states_kept() const { return pool_.size(); }

  /// Bytes of DP state this call held: the pool, the node records and
  /// the join scratch row.
  std::uint64_t memory_bytes() const {
    return pool_.size() * sizeof(Cand) + nodes_.size() * sizeof(NodeRec) +
           row_.size() * (sizeof(double) + sizeof(std::int32_t));
  }

  /// The root frontier — the oracle battery compares it state-for-state
  /// against exhaustive enumeration.
  std::span<const Cand> root_frontier() const {
    return view(node(tree_.root()).c);
  }

  /// Appends the optimal placement; `types` may be null when the caller
  /// does not want type indices.
  void traceback(route::BufferList* buffers,
                 std::vector<std::int32_t>* types) const {
    const std::int32_t arg = frontier_arg_under(root_frontier(), L_);
    RABID_ASSERT_MSG(arg >= 0, "traceback on an infeasible DP");
    trace(tree_.root(), arg, {buffers, types});
  }

 private:
  /// Per-node DP state.  The K/acc/dec fields belong to the node *as a
  /// child*: every non-root node is exactly one child slot of its
  /// parent, so the slot's records live with the child.
  struct NodeRec {
    double q = kInf;               ///< q(v), resolved once
    Slice c;                       ///< C_v (after the drive option)
    Slice k;                       ///< C_v advanced into the parent + decouple
    Slice acc;                     ///< parent's join prefix through this child
    std::int32_t dec_type = -1;    ///< decouple type at the parent
    std::int32_t drive_type = -1;  ///< drive type at v; -1 == not applied
    std::int32_t drive_src = -1;   ///< the last join prefix's driven state
  };

  struct TypeBudget {
    double cost_scale = 1.0;
    std::int32_t drive = 1;  ///< drive_limit(t, L)
  };

  /// Where the traceback writes; `types` may be null.
  struct Placement {
    route::BufferList* buffers;
    std::vector<std::int32_t>* types;

    void emit(route::NodeId v, route::NodeId w, std::int32_t type) const {
      buffers->push_back({v, w});
      if (types != nullptr) types->push_back(type);
    }
  };

  NodeRec& node(route::NodeId v) {
    return nodes_[static_cast<std::size_t>(v)];
  }
  const NodeRec& node(route::NodeId v) const {
    return nodes_[static_cast<std::size_t>(v)];
  }
  std::span<const Cand> view(Slice s) const {
    return {pool_.data() + s.off, s.len};
  }
  const Cand& at(Slice s, std::int32_t i) const {
    return pool_[s.off + static_cast<std::uint32_t>(i)];
  }

  /// A new slice starting at the end of the pool; end_slice() closes it
  /// over whatever was appended since.
  Slice begin_slice() const {
    return {static_cast<std::uint32_t>(pool_.size()), 0};
  }
  void end_slice(Slice& s) const {
    s.len = static_cast<std::uint32_t>(pool_.size()) - s.off;
  }

  /// Cheapest type for a buffer at v consuming `source`, where type t
  /// may carry loads up to drive_limit(t) - `reserve`.  Ties break
  /// toward lower library indices (library order is part of the
  /// deterministic contract).
  GateChoice best_gate(Slice source, double q_v, std::int32_t reserve) const {
    GateChoice best;
    if (!std::isfinite(q_v)) return best;  // no site at v
    for (std::size_t t = 0; t < types_.size(); ++t) {
      const std::int32_t src =
          frontier_arg_under(view(source), types_[t].drive - reserve);
      if (src < 0) continue;
      const double cost = types_[t].cost_scale * q_v + at(source, src).cost;
      if (cost < best.cost) best = {static_cast<std::int32_t>(t), cost, src};
    }
    return best;
  }

  void forward_node(route::NodeId v) {
    NodeRec& d = node(v);
    const auto& children = tree_.node(v).children;
    if (children.empty()) {
      d.c = {0, 1};  // the shared sink frontier
      return;
    }
    for (const route::NodeId w : children) advance(d.q, node(w));
    NodeRec& first = node(children[0]);
    first.acc = first.k;
    Slice acc = first.acc;
    for (std::size_t s = 1; s < children.size(); ++s) {
      NodeRec& w = node(children[s]);
      w.acc = join(acc, w.k);
      acc = w.acc;
    }
    d.c = acc;
    // Drive: a buffer in series at v (never at the net driver itself).
    if (v != tree_.root() && children.size() >= 2) {
      const GateChoice drive = best_gate(acc, d.q, 0);
      if (drive.type >= 0 && drive.cost < frontier_min_under(view(acc), 0)) {
        d.drive_type = drive.type;
        d.drive_src = drive.src;
        d.c = prepend_zero({0, drive.src, drive.cost}, acc);
      }
    }
  }

  /// K for child `w` of a node with site cost q_v: a type-t decoupling
  /// buffer at the parent drives the 1-tile arc plus the child's load
  /// (source budget drive_limit(t) - 1), or one more tile of wire hangs
  /// at the parent.
  void advance(double q_v, NodeRec& w) {
    const GateChoice dec = best_gate(w.c, q_v, 1);
    w.dec_type = dec.type;
    w.k = begin_slice();
    double last = kInf;
    std::uint32_t offered = 0;
    if (dec.type >= 0) {
      pool_.push_back({0, dec.src, dec.cost});
      last = dec.cost;
      ++offered;
    }
    for (std::uint32_t i = 0; i < w.c.len; ++i) {
      const Cand c = pool_[w.c.off + i];
      if (c.load + 1 > jcap_) break;
      ++offered;
      if (c.cost < last) {
        pool_.push_back({c.load + 1, static_cast<std::int32_t>(i), c.cost});
        last = c.cost;
      }
    }
    end_slice(w.k);
    states_pruned_ += offered - w.k.len;
  }

  /// Join: unbuffered loads of the two branch groups add at the node.
  Slice join(Slice left, Slice right) {
    if (row_.empty()) {
      row_.assign(static_cast<std::size_t>(jcap_) + 1, kInf);
      row_src_.assign(row_.size(), 0);
    }
    const Cand* a = pool_.data() + left.off;
    const Cand* b = pool_.data() + right.off;
    std::int32_t hi = -1;
    std::uint64_t offered = 0;
    for (std::uint32_t x = 0; x < left.len; ++x) {
      for (std::uint32_t y = 0; y < right.len; ++y) {
        const std::int32_t load = a[x].load + b[y].load;
        if (load > jcap_) break;
        ++offered;
        const double sum = a[x].cost + b[y].cost;
        const auto l = static_cast<std::size_t>(load);
        if (sum < row_[l]) {
          row_[l] = sum;
          row_src_[l] = static_cast<std::int32_t>(x);
        }
        hi = std::max(hi, load);
      }
    }
    Slice out = begin_slice();
    double last = kInf;
    for (std::int32_t load = 0; load <= hi; ++load) {
      const auto l = static_cast<std::size_t>(load);
      if (row_[l] < last) {
        last = row_[l];
        pool_.push_back({load, row_src_[l], last});
      }
      row_[l] = kInf;
    }
    end_slice(out);
    states_pruned_ += offered - out.len;
    return out;
  }

  /// `head` (load 0) followed by the states of `f` it does not dominate.
  Slice prepend_zero(Cand head, Slice f) {
    Slice out = begin_slice();
    pool_.push_back(head);
    double last = head.cost;
    for (std::uint32_t i = 0; i < f.len; ++i) {
      const Cand c = pool_[f.off + i];
      if (c.cost < last) {
        pool_.push_back(c);
        last = c.cost;
      }
    }
    end_slice(out);
    states_pruned_ += f.len + 1 - out.len;
    return out;
  }

  /// Unfolds state `ci` of C_v.
  void trace(route::NodeId v, std::int32_t ci, const Placement& out) const {
    const auto& children = tree_.node(v).children;
    if (children.empty()) return;
    const NodeRec& d = node(v);
    Cand target = at(d.c, ci);
    // An applied drive state is always C_v's load-0 head.
    if (d.drive_type >= 0 && ci == 0) {
      out.emit(v, route::kNoNode, d.drive_type);
      target = at(node(children.back()).acc, d.drive_src);
    }
    // Unfold the join, last child first: the state is left prefix state
    // `src` plus the right child's K state holding the remaining load.
    for (std::size_t s = children.size(); s-- > 1;) {
      const Cand a = at(node(children[s - 1]).acc, target.src);
      const std::span<const Cand> k = view(node(children[s]).k);
      const std::int32_t b = frontier_arg_under(k, target.load - a.load);
      RABID_ASSERT_MSG(b >= 0 && a.load + k[b].load == target.load,
                       "join traceback lost the optimal split");
      resolve_child(v, children[s], k[static_cast<std::size_t>(b)], out);
      target = a;
    }
    resolve_child(v, children[0], target, out);
  }

  /// Child w's K state `kc`: load 0 is the decouple option (advance
  /// always produces load >= 1); otherwise a plain one-tile advance.
  void resolve_child(route::NodeId v, route::NodeId w, Cand kc,
                     const Placement& out) const {
    if (kc.load == 0) out.emit(v, w, node(w).dec_type);
    trace(w, kc.src, out);
  }

  const route::RouteTree& tree_;
  std::int32_t L_;
  std::int32_t jcap_ = 0;
  std::vector<TypeBudget> types_;  ///< per library type, this call's L
  std::vector<NodeRec> nodes_;
  std::vector<Cand> pool_;             ///< every frontier of the call
  std::vector<double> row_;            ///< join scratch: cheapest per load
  std::vector<std::int32_t> row_src_;  ///< join scratch: its left state
  std::uint64_t states_pruned_ = 0;
};

}  // namespace

InsertionResult insert_buffers(const route::RouteTree& tree, std::int32_t L,
                               const TileCostFn& q, const BufferLibrary& lib) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  InsertionResult result;
  result.effective_limit = L;
  const CandidateDp dp(tree, L, q, lib);
  result.cost = dp.best_cost();
  result.feasible = std::isfinite(result.cost);
  if (result.feasible) {
    // The solution dump names types whenever `types` is non-empty, so a
    // unit library leaves it empty.
    dp.traceback(&result.buffers, lib.is_unit() ? nullptr : &result.types);
  }
  if (obs::counting()) {
    obs::count(obs::Counter::kDpNets);
    obs::count(obs::Counter::kDpCellsComputed, dp.states_kept());
    obs::count(obs::Counter::kDpStatesPruned, dp.states_pruned());
    obs::observe(obs::HistogramId::kDpCellsPerNet, dp.states_kept());
    obs::gauge_max(obs::GaugeId::kDpArenaBytes, dp.memory_bytes());
  }
  return result;
}

InsertionResult insert_buffers_relaxed(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib) {
  InsertionResult result = insert_buffers(tree, L, q, lib);
  std::int32_t limit = L;
  const auto wirelength = static_cast<std::int32_t>(tree.wirelength_tiles());
  while (!result.feasible) {
    RABID_ASSERT_MSG(limit <= 2 * std::max(wirelength, std::int32_t{1}),
                     "relaxation failed to converge");
    limit *= 2;
    obs::count(obs::Counter::kDpLimitRelaxations);
    result = insert_buffers(tree, limit, q, lib);
    result.effective_limit = limit;
  }
  return result;
}

std::vector<Cand> dp_root_frontier(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q,
                                   const BufferLibrary& lib) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  const CandidateDp dp(tree, L, q, lib);
  const std::span<const Cand> root = dp.root_frontier();
  return {root.begin(), root.end()};
}

}  // namespace rabid::buffer
