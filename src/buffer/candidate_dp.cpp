/// \file candidate_dp.cpp
/// Dominance-pruned candidate-list buffer insertion over b buffer types
/// (the multi-type generalization of the Stage-3 DP; see frontier.hpp
/// for the pruning invariant and library.hpp for type semantics).
///
/// States are (load, cost) candidates kept as pruned frontiers per tree
/// node; transitions mirror the dense engine's advance / decouple /
/// join / drive exactly, except that decouple and drive minimize over
/// the library (type t pays cost_scale_t * q(v) and may drive up to
/// drive_limit(t, L) tile-units).  Loads range over [0, Jcap] with
/// Jcap = max(L, max_drive_limit(L)): states longer than every gate's
/// reach (including the net driver's plain L) can never be consumed.
///
/// The forward pass memoizes every per-child decouple choice (type +
/// source candidate) and the per-node drive choice, so the traceback is
/// table lookups plus exact bitwise-equality split searches — costs in
/// a joined frontier are literally the sums that produced them, so the
/// first (lowest left-load) bitwise match is the deterministic split.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "buffer/frontier.hpp"
#include "buffer/insertion.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Index of the frontier candidate with load == `load` (exact); -1 when
/// absent.  Pruned frontiers are sorted by load, so binary search.
std::int32_t frontier_find(std::span<const Cand> f, std::int32_t load) {
  const auto it = std::lower_bound(
      f.begin(), f.end(), load,
      [](const Cand& c, std::int32_t l) { return c.load < l; });
  if (it == f.end() || it->load != load) return -1;
  return static_cast<std::int32_t>(std::distance(f.begin(), it));
}

/// A gate choice minimized over the library: type, realized cost, and
/// the source candidate it consumes.
struct GateChoice {
  std::int32_t type = -1;  ///< library index; -1 == no legal choice
  double cost = kInf;      ///< cost_scale_type * q_v + source cost
  std::int32_t src = -1;   ///< index into the source frontier
};

/// Cheapest type for a buffer at v consuming `source`, where type t may
/// carry loads up to `budget_of(t)`.  Ties break toward lower library
/// indices (library order is part of the deterministic contract).
template <typename BudgetFn>
GateChoice best_gate(std::span<const Cand> source, double q_v,
                     const BufferLibrary& lib, const BudgetFn& budget_of) {
  GateChoice best;
  if (!std::isfinite(q_v)) return best;  // no site at v
  for (std::size_t t = 0; t < lib.size(); ++t) {
    const std::int32_t src = frontier_arg_under(source, budget_of(t));
    if (src < 0) continue;
    const double cost = lib.type(t).cost_scale * q_v +
                        source[static_cast<std::size_t>(src)].cost;
    if (cost < best.cost) {
      best = {static_cast<std::int32_t>(t), cost, src};
    }
  }
  return best;
}

/// Bottom-up forward pass + top-down traceback, candidate-list flavor.
class CandidateDp {
 public:
  CandidateDp(const route::RouteTree& tree, std::int32_t L,
              const TileCostFn& q, const BufferLibrary& lib)
      : tree_(tree), lib_(lib), L_(L) {
    RABID_ASSERT_MSG(L >= 1, "length limit must be at least one tile");
    jcap_ = std::max(L, lib.max_drive_limit(L));
    const std::size_t n = tree.node_count();
    q_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      q_of_[i] = q(tree.node(static_cast<route::NodeId>(i)).tile);
    }
    nodes_.resize(n);
    for (const route::NodeId v : tree.postorder()) {
      forward_node(v);
    }
  }

  double best_cost() const {
    return frontier_min_under(nodes_[root_index()].c, L_);
  }

  std::uint64_t states_pruned() const { return states_pruned_; }

  /// Frontier candidates materialized (the pruned analogue of the dense
  /// engine's cells_computed).
  std::uint64_t states_kept() const {
    std::uint64_t n = 0;
    for (const NodeData& d : nodes_) {
      n += d.c.size();
      for (const Frontier& f : d.k) n += f.size();
      for (const Frontier& f : d.acc) n += f.size();
    }
    return n;
  }

  /// The root frontier — the oracle battery compares it state-for-state
  /// against exhaustive enumeration.
  const Frontier& root_frontier() const { return nodes_[root_index()].c; }

  void traceback(route::BufferList* buffers,
                 std::vector<std::int32_t>* types) const {
    const std::int32_t arg = frontier_arg_under(nodes_[root_index()].c, L_);
    RABID_ASSERT_MSG(arg >= 0, "traceback on an infeasible DP");
    trace(tree_.root(), arg, buffers, types);
  }

 private:
  struct NodeData {
    Frontier c;                ///< pruned C_v
    std::vector<Frontier> k;   ///< per child: advanced + decoupled
    std::vector<Frontier> acc; ///< join prefixes; acc[0] == k[0]
    std::vector<GateChoice> dec;  ///< per child: decouple choice at v
    GateChoice drive;             ///< drive choice (root: none)
    bool drive_applied = false;   ///< drive strictly improved C_v[0]
  };

  std::size_t root_index() const {
    return static_cast<std::size_t>(tree_.root());
  }

  void forward_node(route::NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    const auto& children = tree_.node(v).children;
    NodeData& d = nodes_[i];
    if (children.empty()) {
      d.c = {Cand{0, 0.0}};  // the sink/leaf frontier: zero wire, zero cost
      return;
    }
    const double q_v = q_(v);
    const std::size_t m = children.size();
    d.k.resize(m);
    d.acc.resize(m);
    d.dec.resize(m);
    for (std::size_t s = 0; s < m; ++s) {
      const Frontier& cw = nodes_[static_cast<std::size_t>(children[s])].c;
      std::vector<Cand> states;
      states.reserve(cw.size() + 1);
      // Advance: one more tile of wire hangs at v.
      for (const Cand& c : cw) {
        if (c.load + 1 <= jcap_) states.push_back({c.load + 1, c.cost});
      }
      // Decouple: a type-t buffer at v drives the 1-tile arc plus the
      // child's load, so the source budget is drive_limit(t, L) - 1.
      d.dec[s] = best_gate(cw, q_v, lib_, [&](std::size_t t) {
        return lib_.drive_limit(t, L_) - 1;
      });
      if (d.dec[s].type >= 0) states.push_back({0, d.dec[s].cost});
      d.k[s] = prune_frontier(states, &states_pruned_);
    }
    d.acc[0] = d.k[0];
    for (std::size_t s = 1; s < m; ++s) {
      // Join: unbuffered loads of the two branch groups add at v.
      std::vector<Cand> states;
      states.reserve(d.acc[s - 1].size() * d.k[s].size());
      for (const Cand& a : d.acc[s - 1]) {
        for (const Cand& b : d.k[s]) {
          if (a.load + b.load <= jcap_) {
            states.push_back({a.load + b.load, a.cost + b.cost});
          }
        }
      }
      d.acc[s] = prune_frontier(states, &states_pruned_);
    }
    d.c = d.acc[m - 1];
    // Drive: a buffer in series at v (never at the net driver itself).
    if (v != tree_.root() && m >= 2) {
      d.drive = best_gate(d.acc[m - 1], q_v, lib_, [&](std::size_t t) {
        return lib_.drive_limit(t, L_);
      });
      if (d.drive.type >= 0 &&
          d.drive.cost < frontier_min_under(d.c, 0)) {
        d.drive_applied = true;
        std::vector<Cand> states(d.c.begin(), d.c.end());
        states.push_back({0, d.drive.cost});
        d.c = prune_frontier(states, &states_pruned_);
      }
    }
  }

  double q_(route::NodeId v) const { return q_of_[static_cast<std::size_t>(v)]; }

  void trace(route::NodeId v, std::int32_t ci, route::BufferList* buffers,
             std::vector<std::int32_t>* types) const {
    const auto i = static_cast<std::size_t>(v);
    const auto& children = tree_.node(v).children;
    if (children.empty()) return;
    const NodeData& d = nodes_[i];
    const std::size_t m = children.size();
    Cand target = d.c[static_cast<std::size_t>(ci)];

    // Was this candidate the drive option?  The drive candidate has
    // load 0 and, when applied, is *strictly* cheaper than any joined
    // load-0 state — so bitwise identity on cost resolves it.
    if (d.drive_applied && target.load == 0 && target.cost == d.drive.cost) {
      buffers->push_back({v, route::kNoNode});
      types->push_back(d.drive.type);
      target = d.acc[m - 1][static_cast<std::size_t>(d.drive.src)];
    }

    // Unfold the join, last child first: the target candidate is
    // literally (ja + jb, ca + cb) for some pair, so scan splits by
    // ascending left load and take the first bitwise cost match.
    std::int32_t j = target.load;
    double c = target.cost;
    for (std::size_t s = m; s-- > 1;) {
      const Frontier& left = d.acc[s - 1];
      const Frontier& right = d.k[s];
      std::int32_t la = -1, rb = -1;
      for (std::size_t x = 0; x < left.size() && left[x].load <= j; ++x) {
        const std::int32_t b = frontier_find(right, j - left[x].load);
        if (b >= 0 &&
            left[x].cost + right[static_cast<std::size_t>(b)].cost == c) {
          la = static_cast<std::int32_t>(x);
          rb = b;
          break;
        }
      }
      RABID_ASSERT_MSG(la >= 0, "join traceback lost the optimal split");
      resolve_child(v, s, rb, buffers, types);
      j = left[static_cast<std::size_t>(la)].load;
      c = left[static_cast<std::size_t>(la)].cost;
    }
    resolve_child(v, 0, frontier_find(d.k[0], j), buffers, types);
  }

  /// Child slot s consumed K candidate `ki`: load 0 is the decouple
  /// option (advance always produces load >= 1); otherwise undo the
  /// one-tile advance — the pre-advance candidate is in C_w verbatim.
  void resolve_child(route::NodeId v, std::size_t s, std::int32_t ki,
                     route::BufferList* buffers,
                     std::vector<std::int32_t>* types) const {
    const auto i = static_cast<std::size_t>(v);
    const NodeData& d = nodes_[i];
    const route::NodeId w = tree_.node(v).children[s];
    RABID_ASSERT_MSG(ki >= 0, "child traceback lost its K candidate");
    const Cand kc = d.k[s][static_cast<std::size_t>(ki)];
    if (kc.load == 0) {
      buffers->push_back({v, w});
      types->push_back(d.dec[s].type);
      trace(w, d.dec[s].src, buffers, types);
    } else {
      const Frontier& cw = nodes_[static_cast<std::size_t>(w)].c;
      const std::int32_t src = frontier_find(cw, kc.load - 1);
      RABID_ASSERT_MSG(src >= 0, "advance traceback lost its source");
      trace(w, src, buffers, types);
    }
  }

  const route::RouteTree& tree_;
  const BufferLibrary& lib_;
  std::int32_t L_;
  std::int32_t jcap_ = 0;
  std::vector<double> q_of_;  ///< q(v) resolved once per node
  std::vector<NodeData> nodes_;
  std::uint64_t states_pruned_ = 0;
};

}  // namespace

InsertionResult insert_buffers_lib(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q,
                                   const BufferLibrary& lib) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  InsertionResult result;
  result.effective_limit = L;
  const CandidateDp dp(tree, L, q, lib);
  result.cost = dp.best_cost();
  result.feasible = std::isfinite(result.cost);
  if (result.feasible) dp.traceback(&result.buffers, &result.types);
  if (obs::counting()) {
    obs::count(obs::Counter::kDpNets);
    obs::count(obs::Counter::kDpCellsComputed, dp.states_kept());
    obs::count(obs::Counter::kDpStatesPruned, dp.states_pruned());
    obs::observe(obs::HistogramId::kDpCellsPerNet, dp.states_kept());
  }
  return result;
}

std::vector<Cand> dp_root_frontier_lib(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  const CandidateDp dp(tree, L, q, lib);
  return dp.root_frontier();
}

InsertionResult insert_buffers_planned(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib) {
  if (lib.is_unit()) return insert_buffers(tree, L, q);
  return insert_buffers_lib(tree, L, q, lib);
}

InsertionResult insert_buffers_planned_relaxed(const route::RouteTree& tree,
                                               std::int32_t L,
                                               const TileCostFn& q,
                                               const BufferLibrary& lib) {
  InsertionResult result = insert_buffers_planned(tree, L, q, lib);
  std::int32_t limit = L;
  const auto wirelength = static_cast<std::int32_t>(tree.wirelength_tiles());
  while (!result.feasible) {
    RABID_ASSERT_MSG(limit <= 2 * std::max(wirelength, std::int32_t{1}),
                     "relaxation failed to converge");
    limit *= 2;
    obs::count(obs::Counter::kDpLimitRelaxations);
    result = insert_buffers_planned(tree, limit, q, lib);
    result.effective_limit = limit;
  }
  return result;
}

}  // namespace rabid::buffer
