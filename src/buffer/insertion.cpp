#include "buffer/insertion.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "buffer/kernels.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Array = std::vector<double>;

/// K_w: child array advanced one tile toward the parent, plus the
/// decoupling-buffer option at the parent (out[0]).  `out` has L+1 slots.
void advance_and_decouple(std::span<const double> child, double q_v,
                          std::int32_t L, std::span<double> out) {
  // Advance: out[j] = child[j-1] for j in [1, L].
  std::copy_n(child.data(), L, out.data() + 1);
  // A buffer at the parent drives the 1-tile arc plus j units below the
  // child: legal when j + 1 <= L, i.e. j <= L-1.
  out[0] = q_v + kernels::range_min(child.data(), L);
}

/// Index of the first minimum of child[0..L-1] — the decoupling-buffer
/// traceback target. Mirrors advance_and_decouple's scan order.
std::int32_t decouple_argmin(std::span<const double> child, std::int32_t L) {
  return kernels::range_argmin_first(child.data(), L);
}

/// Min-plus convolution truncated at L: unbuffered lengths of the two
/// branch groups add at the merge node.  `out` must not alias a or b.
void join(std::span<const double> a, std::span<const double> b,
          std::int32_t L, std::span<double> out) {
  kernels::min_plus_join(a.data(), b.data(), L, out.data());
}

/// Value/argmin of the driving-buffer option: a buffer at v drives the
/// whole joined load j (j <= L).
std::pair<double, std::int32_t> drive_option(std::span<const double> joined,
                                             double q_v, std::int32_t L) {
  const std::int32_t arg = kernels::range_argmin_first(joined.data(), L + 1);
  return {q_v + joined[static_cast<std::size_t>(arg)], arg};
}

}  // namespace

std::vector<double> dp_node_array(std::span<const Array> child_arrays,
                                  double q_v, std::int32_t L,
                                  bool allow_drive) {
  RABID_ASSERT_MSG(L >= 1, "length limit must be at least one tile");
  const auto stride = static_cast<std::size_t>(L) + 1;
  if (child_arrays.empty()) {
    // Fig. 6 Step 1: the sink/leaf array is all zeros.
    return Array(stride, 0.0);
  }
  // Fold the children through the same span kernels the tree DP uses;
  // two stride-wide scratch rows ping-pong as the join accumulator.
  Array k(stride, kInf);
  Array acc(stride, kInf);
  Array next(stride, kInf);
  advance_and_decouple(child_arrays[0], q_v, L, acc);
  for (std::size_t s = 1; s < child_arrays.size(); ++s) {
    advance_and_decouple(child_arrays[s], q_v, L, k);
    join(acc, k, L, next);
    std::swap(acc, next);
  }
  if (allow_drive && child_arrays.size() >= 2) {
    const double val = drive_option(acc, q_v, L).first;
    if (val < acc[0]) acc[0] = val;
  }
  return acc;
}

namespace {

/// Bottom-up forward pass + top-down traceback over a route tree.
///
/// All per-node state lives in one arena: flat double buffers with a
/// uniform stride of L+1 doubles per array.
///
///   c_    node x stride   C_v, drive-min applied
///   k_    node x stride   K_w, stored at the *child* w (root row unused)
///   acc_  (#children total) x stride   join prefixes; acc row s of node
///         v folds K of children 0..s and keeps the PRE-drive-min values
///         (the traceback compares drive_value against acc.back()[0])
///
/// The forward pass memoizes drive_value/drive_arg/has_drive per node, so
/// the traceback is pure table lookups — no re-running of the DP kernels.
class TreeDp {
 public:
  TreeDp(const route::RouteTree& tree, std::int32_t L, const TileCostFn& q)
      : tree_(tree), L_(L), stride_(static_cast<std::size_t>(L) + 1) {
    RABID_ASSERT_MSG(L >= 1, "length limit must be at least one tile");
    const std::size_t n = tree.node_count();
    q_of_node_.resize(n);
    acc_off_.assign(n, 0);
    std::size_t total_children = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<route::NodeId>(i);
      q_of_node_[i] = q(tree.node(v).tile);
      acc_off_[i] = total_children;
      total_children += tree.node(v).children.size();
    }
    c_.assign(n * stride_, 0.0);
    k_.assign(n * stride_, kInf);
    acc_.assign(total_children * stride_, kInf);
    drive_value_.assign(n, kInf);
    drive_arg_.assign(n, 0);
    has_drive_.assign(n, 0);

    for (const route::NodeId v : tree.postorder()) {
      forward_node(v);
    }
  }

  double best_cost() const {
    const std::span<const double> root = c_of(tree_.root());
    return *std::min_element(root.begin(), root.end());
  }

  /// Cost-array cells this DP filled (the c_/k_/acc_ arena).
  std::uint64_t cells_computed() const {
    return static_cast<std::uint64_t>(c_.size() + k_.size() + acc_.size());
  }

  /// Bytes held by the arena and the per-node side tables (the obs
  /// memory.dp_arena high-water mark — per-net, since the arena dies
  /// with the call).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(c_.capacity() + k_.capacity() +
                                      acc_.capacity() +
                                      q_of_node_.capacity() +
                                      drive_value_.capacity()) *
               sizeof(double) +
           static_cast<std::uint64_t>(acc_off_.capacity()) *
               sizeof(std::size_t) +
           static_cast<std::uint64_t>(drive_arg_.capacity()) *
               sizeof(std::int32_t) +
           static_cast<std::uint64_t>(has_drive_.capacity());
  }

  /// Span-kernel invocations of the forward pass.
  std::uint64_t kernel_calls() const { return kernel_calls_; }

  /// C_v cells left at +inf — candidate states no buffering realizes.
  std::uint64_t cells_infeasible() const {
    return static_cast<std::uint64_t>(
        std::count(c_.begin(), c_.end(), kInf));
  }

  route::BufferList traceback() const {
    route::BufferList out;
    const std::span<const double> root = c_of(tree_.root());
    std::int32_t j = 0;
    double best = kInf;
    for (std::int32_t i = 0; i <= L_; ++i) {
      if (root[static_cast<std::size_t>(i)] < best) {
        best = root[static_cast<std::size_t>(i)];
        j = i;
      }
    }
    RABID_ASSERT(std::isfinite(best));
    trace(tree_.root(), j, out);
    return out;
  }

 private:
  std::span<double> row(std::vector<double>& a, std::size_t i) {
    return std::span<double>(a).subspan(i * stride_, stride_);
  }
  std::span<const double> row(const std::vector<double>& a,
                              std::size_t i) const {
    return std::span<const double>(a).subspan(i * stride_, stride_);
  }
  std::span<const double> c_of(route::NodeId v) const {
    return row(c_, static_cast<std::size_t>(v));
  }
  std::span<const double> k_of(route::NodeId w) const {
    return row(k_, static_cast<std::size_t>(w));
  }
  std::span<const double> acc_of(route::NodeId v, std::size_t s) const {
    return row(acc_, acc_off_[static_cast<std::size_t>(v)] + s);
  }

  void forward_node(route::NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    const auto& children = tree_.node(v).children;
    const std::span<double> c = row(c_, i);
    if (children.empty()) {
      // Fig. 6 Step 1: the sink/leaf array is all zeros (pre-filled).
      return;
    }
    const double q_v = q_of_node_[i];
    kernel_calls_ += 2 * children.size() - 1;  // advances + joins
    for (std::size_t s = 0; s < children.size(); ++s) {
      const auto w = static_cast<std::size_t>(children[s]);
      advance_and_decouple(row(c_, w), q_v, L_, row(k_, w));
    }
    std::span<double> prev = row(k_, static_cast<std::size_t>(children[0]));
    // acc[0] duplicates K of the first child so the traceback can index
    // the prefixes uniformly.
    std::copy(prev.begin(), prev.end(), row(acc_, acc_off_[i]).begin());
    for (std::size_t s = 1; s < children.size(); ++s) {
      const std::span<double> out = row(acc_, acc_off_[i] + s);
      join(row(acc_, acc_off_[i] + s - 1),
           row(k_, static_cast<std::size_t>(children[s])), L_, out);
      prev = out;
    }
    std::copy(prev.begin(), prev.end(), c.begin());
    // Decoupling buffers may sit in the source tile, but nothing ever
    // drives in series with the net driver itself.
    if (v != tree_.root() && children.size() >= 2) {
      has_drive_[i] = 1;
      ++kernel_calls_;
      const auto [val, arg] = drive_option(prev, q_v, L_);
      drive_value_[i] = val;
      drive_arg_[i] = arg;
      if (val < c[0]) c[0] = val;
    }
  }

  void trace(route::NodeId v, std::int32_t j, route::BufferList& out) const {
    const auto i = static_cast<std::size_t>(v);
    const auto& children = tree_.node(v).children;
    if (children.empty()) return;  // leaf: nothing below
    const std::size_t m = children.size();

    // Was C_v[0] realized by the driving-buffer option?
    if (j == 0 && has_drive_[i] != 0 &&
        drive_value_[i] < acc_of(v, m - 1)[0]) {
      out.push_back({v, route::kNoNode});
      j = drive_arg_[i];
    }

    // Unfold the convolution, last child first.
    for (std::size_t s = m; s-- > 1;) {
      const std::span<const double> left = acc_of(v, s - 1);
      const std::span<const double> right = k_of(children[s]);
      const double target = acc_of(v, s)[static_cast<std::size_t>(j)];
      std::int32_t a = -1;
      for (std::int32_t x = 0; x <= j; ++x) {
        if (left[static_cast<std::size_t>(x)] +
                right[static_cast<std::size_t>(j - x)] ==
            target) {
          a = x;
          break;
        }
      }
      RABID_ASSERT_MSG(a >= 0, "join traceback lost the optimal split");
      resolve_child(v, children[s], j - a, out);
      j = a;
    }
    resolve_child(v, children[0], j, out);
  }

  /// Child w consumed K-index `b`: either a decoupling buffer at v (b==0)
  /// or a plain one-tile advance.
  void resolve_child(route::NodeId v, route::NodeId w, std::int32_t b,
                     route::BufferList& out) const {
    if (b == 0) {
      out.push_back({v, w});
      trace(w, decouple_argmin(c_of(w), L_), out);
    } else {
      trace(w, b - 1, out);
    }
  }

  const route::RouteTree& tree_;
  std::int32_t L_;
  std::size_t stride_;
  std::vector<double> q_of_node_;
  std::vector<double> c_;
  std::vector<double> k_;
  std::vector<double> acc_;
  std::vector<std::size_t> acc_off_;
  std::vector<double> drive_value_;
  std::vector<std::int32_t> drive_arg_;
  std::vector<std::uint8_t> has_drive_;
  std::uint64_t kernel_calls_ = 0;
};

}  // namespace

InsertionResult insert_buffers(const route::RouteTree& tree, std::int32_t L,
                               const TileCostFn& q) {
  RABID_ASSERT_MSG(!tree.empty(), "cannot buffer an empty route");
  InsertionResult result;
  result.effective_limit = L;
  const TreeDp dp(tree, L, q);
  result.cost = dp.best_cost();
  result.feasible = std::isfinite(result.cost);
  if (result.feasible) result.buffers = dp.traceback();
  if (obs::counting()) {
    obs::count(obs::Counter::kDpNets);
    obs::count(obs::Counter::kDpCellsComputed, dp.cells_computed());
    obs::count(obs::Counter::kDpCellsInfeasible, dp.cells_infeasible());
    obs::count(obs::Counter::kDpKernels, dp.kernel_calls());
    obs::observe(obs::HistogramId::kDpCellsPerNet, dp.cells_computed());
    obs::gauge_max(obs::GaugeId::kDpArenaBytes, dp.memory_bytes());
  }
  return result;
}

}  // namespace rabid::buffer
