#include "buffer/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace rabid::buffer {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double placement_cost(const route::RouteTree& tree,
                      const route::BufferList& buffers, const TileCostFn& q) {
  double cost = 0.0;
  for (const route::BufferPlacement& b : buffers) {
    cost += q(tree.node(b.node).tile);
  }
  return cost;
}

namespace {

/// Candidate buffer slots: a decoupling slot per tree arc, a driving
/// slot per non-root multi-child node.
route::BufferList buffer_slots(const route::RouteTree& tree) {
  route::BufferList slots;
  for (std::size_t i = 0; i < tree.node_count(); ++i) {
    const auto v = static_cast<route::NodeId>(i);
    for (const route::NodeId w : tree.node(v).children()) {
      slots.push_back({v, w});
    }
    if (v != tree.root() && tree.node(v).children().size() >= 2) {
      slots.push_back({v, route::kNoNode});
    }
  }
  return slots;
}

struct LoadCheck {
  bool gates_ok = false;        ///< every buffer within its type limit
  std::int32_t root_load = 0;   ///< unbuffered wire visible at the root
};

/// The postorder load accumulation shared by all legality flavors.
/// Structural violations (driving buffer at the root, decouple entry
/// whose child/parent don't match the tree) report gates_ok == false.
LoadCheck accumulate_loads(const route::RouteTree& tree,
                           const route::BufferList& buffers,
                           std::span<const std::int32_t> types,
                           std::int32_t L, const BufferLibrary& lib) {
  const std::size_t n = tree.node_count();
  std::vector<std::int32_t> drv_type(n, -1);
  std::vector<std::int32_t> dec_type(n, -1);  // arc parent->node
  LoadCheck bad;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const route::BufferPlacement& b = buffers[i];
    const std::int32_t t =
        types.empty() ? 0 : types[i];
    if (t < 0 || static_cast<std::size_t>(t) >= lib.size()) return bad;
    if (b.node == tree.root() && b.child == route::kNoNode) return bad;
    if (b.child == route::kNoNode) {
      drv_type[static_cast<std::size_t>(b.node)] = t;
    } else {
      if (tree.node(b.child).parent != b.node) return bad;
      dec_type[static_cast<std::size_t>(b.child)] = t;
    }
  }

  // load[v] = tile-units of unbuffered wire hanging below point v
  // *after* v's driving buffer (what a gate placed at v would see).
  std::vector<std::int32_t> load(n, 0);
  for (const route::NodeId v : tree.postorder()) {
    std::int32_t total = 0;
    for (const route::NodeId w : tree.node(v).children()) {
      const auto wi = static_cast<std::size_t>(w);
      const std::int32_t arc_load = 1 + load[wi];
      if (dec_type[wi] >= 0) {
        if (arc_load > lib.drive_limit(static_cast<std::size_t>(dec_type[wi]),
                                       L)) {
          return bad;
        }
      } else {
        total += arc_load;
      }
    }
    const auto vi = static_cast<std::size_t>(v);
    if (drv_type[vi] >= 0) {
      if (total > lib.drive_limit(static_cast<std::size_t>(drv_type[vi]), L)) {
        return bad;
      }
      total = 0;
    }
    load[vi] = total;
  }
  return {true, load[static_cast<std::size_t>(tree.root())]};
}

}  // namespace

bool placement_is_legal_lib(const route::RouteTree& tree,
                            const route::BufferList& buffers,
                            std::span<const std::int32_t> types,
                            std::int32_t L, const BufferLibrary& lib) {
  RABID_ASSERT_MSG(types.empty() || types.size() == buffers.size(),
                   "types must parallel buffers");
  const LoadCheck check = accumulate_loads(tree, buffers, types, L, lib);
  return check.gates_ok && check.root_load <= L;
}

bool placement_is_legal(const route::RouteTree& tree,
                        const route::BufferList& buffers, std::int32_t L) {
  // One type with drive_limit(0, L) == L: the plain rule.
  static const BufferLibrary kUnit = BufferLibrary::single_unit();
  return placement_is_legal_lib(tree, buffers, {}, L, kUnit);
}

double placement_cost_lib(const route::RouteTree& tree,
                          const route::BufferList& buffers,
                          std::span<const std::int32_t> types,
                          const TileCostFn& q, const BufferLibrary& lib) {
  RABID_ASSERT_MSG(types.empty() || types.size() == buffers.size(),
                   "types must parallel buffers");
  double cost = 0.0;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const std::int32_t t = types.empty() ? 0 : types[i];
    cost += lib.type(static_cast<std::size_t>(t)).cost_scale *
            q(tree.node(buffers[i].node).tile);
  }
  return cost;
}

InsertionResult brute_force_insert(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q) {
  // Candidate slots.
  const route::BufferList slots = buffer_slots(tree);
  RABID_ASSERT_MSG(slots.size() <= 20, "brute force is for tiny trees only");

  InsertionResult best;
  best.cost = kInf;
  best.effective_limit = L;
  const std::uint32_t count = 1U << slots.size();
  for (std::uint32_t mask = 0; mask < count; ++mask) {
    route::BufferList candidate;
    double cost = 0.0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if ((mask >> s) & 1U) {
        candidate.push_back(slots[s]);
        cost += q(tree.node(slots[s].node).tile);
      }
    }
    if (cost >= best.cost) continue;
    if (!placement_is_legal(tree, candidate, L)) continue;
    best.cost = cost;
    best.buffers = std::move(candidate);
    best.feasible = true;
  }
  return best;
}

namespace {

/// Enumerates every assignment of {empty, type 0, ..., type b-1} to the
/// slot list — a mixed-radix counter over (b+1)^slots combinations —
/// and feeds each placement to `visit(buffers, types, cost)`.
template <typename Visit>
void enumerate_assignments(const route::RouteTree& tree,
                           const route::BufferList& slots,
                           const TileCostFn& q, const BufferLibrary& lib,
                           const Visit& visit) {
  const std::size_t radix = lib.size() + 1;  // 0 == empty slot
  double combos = 1.0;
  for (std::size_t s = 0; s < slots.size(); ++s) combos *= double(radix);
  RABID_ASSERT_MSG(combos <= 8.0e6,
                   "multi-type brute force is for tiny trees only");

  std::vector<std::size_t> digits(slots.size(), 0);
  route::BufferList buffers;
  std::vector<std::int32_t> types;
  for (;;) {
    buffers.clear();
    types.clear();
    double cost = 0.0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (digits[s] == 0) continue;
      const auto t = static_cast<std::int32_t>(digits[s] - 1);
      buffers.push_back(slots[s]);
      types.push_back(t);
      cost += lib.type(static_cast<std::size_t>(t)).cost_scale *
              q(tree.node(slots[s].node).tile);
    }
    visit(buffers, types, cost);
    // Increment the counter; done once every digit has wrapped.
    std::size_t s = 0;
    while (s < slots.size() && ++digits[s] == radix) {
      digits[s] = 0;
      ++s;
    }
    if (s == slots.size()) break;
  }
}

}  // namespace

InsertionResult brute_force_insert_lib(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib) {
  InsertionResult best;
  best.cost = kInf;
  best.effective_limit = L;
  enumerate_assignments(
      tree, buffer_slots(tree), q, lib,
      [&](const route::BufferList& buffers,
          const std::vector<std::int32_t>& types, double cost) {
        if (cost >= best.cost) return;
        const LoadCheck check = accumulate_loads(tree, buffers, types, L, lib);
        if (!check.gates_ok || check.root_load > L) return;
        best.cost = cost;
        best.buffers = buffers;
        best.types = types;
        best.feasible = true;
      });
  return best;
}

Frontier brute_force_frontier_lib(const route::RouteTree& tree,
                                  std::int32_t L, const TileCostFn& q,
                                  const BufferLibrary& lib) {
  const std::int32_t jcap = std::max(L, lib.max_drive_limit(L));
  std::vector<Cand> states;
  enumerate_assignments(
      tree, buffer_slots(tree), q, lib,
      [&](const route::BufferList& buffers,
          const std::vector<std::int32_t>& types, double cost) {
        // The driver is unconstrained here: the frontier carries every
        // root load, and the answer is read off under budget L.
        const LoadCheck check = accumulate_loads(tree, buffers, types, L, lib);
        if (!check.gates_ok || check.root_load > jcap) return;
        states.push_back({.load = check.root_load, .cost = cost});
      });
  return prune_frontier(states);
}

}  // namespace rabid::buffer
