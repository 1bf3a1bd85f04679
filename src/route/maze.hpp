#pragma once

/// \file maze.hpp
/// Congestion-aware Steiner-tree regrowth on the tile graph (RABID
/// Stage 2, and the routing engine behind Stage 4).
///
/// A net is rerouted by deleting it entirely and regrowing the tree with
/// a Prim-Dijkstra-flavored wavefront: each connection step runs a
/// best-first search seeded from every tree tile at cost
/// alpha * (tree path cost), expands with the eq. (1) congestion edge
/// cost, and commits the cheapest path to any unconnected sink.
///
/// Two hot-path engineering layers sit on top of the textbook search
/// (DESIGN.md section 10):
///
///   * **A\* targeting.**  Passing `astar_floor > 0` adds the admissible
///     heuristic  h(t) = astar_floor * (Manhattan tile distance from t
///     to the nearest remaining target).  Any single wavefront step
///     costs at least `astar_floor` (a lower bound on every edge cost),
///     and reaching a target takes at least the Manhattan distance in
///     steps, so h never overestimates; it is also consistent (adjacent
///     tiles differ by at most one step).  The first target popped
///     therefore still carries the exact minimum cost — identical to
///     Dijkstra's — but the wavefront stays aimed at the targets instead
///     of flooding the chip.  `astar_floor == 0` reproduces plain
///     Dijkstra expansion order bit for bit.
///
///   * **Flat edge costs.**  The inner loop takes a per-pass
///     `std::span<const double>` of edge costs (one load per
///     relaxation) instead of a `std::function` callback (an indirect
///     call plus the eq. 1 division per relaxation).  EdgeCostCache
///     owns such an array and keeps it consistent under rip-up/commit.
///
///   * **Bounded wavefront.**  Each pass keeps U, the smallest label any
///     remaining target has been given, and skips expanding a popped
///     tile v when d(v) + h+(v) > U, where h+(v) = min over targets of
///     astar_floor * (Manhattan - 1) + (cheapest usable edge into the
///     target).  h+ is a consistent lower bound, so a skipped tile can
///     neither lie on the returned path nor win a tie for a parent on
///     it: heap keys, tie-breaks and trees are exactly those of the
///     unbounded search.  It stops the flood of the whole reachable
///     region when every way into a sink crosses a full edge.
///
/// Eq. (1) is infinite on a full edge; to guarantee the router always
/// completes (the paper's Table III shows overflow IS possible when
/// resources are scarce), full edges get a large finite penalty instead,
/// so overflow happens only when no feasible path exists and is then
/// minimal.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netlist/design.hpp"
#include "route/route_tree.hpp"
#include "tile/region.hpp"
#include "tile/tile_graph.hpp"
#include "util/radix_heap.hpp"

namespace rabid::route {

/// Per-extra-wire penalty applied past capacity.  Any overflowing path
/// costs more than any feasible path of realistic length.
constexpr double kOverflowPenalty = 1.0e7;

/// Eq. (1) with the overflow tier: finite everywhere.
double soft_wire_cost(const tile::TileGraph& g, tile::EdgeId e);

/// Edge-cost function an EdgeCostCache fills its flat array from
/// (typically soft_wire_cost).
using EdgeCostFn = std::function<double(tile::EdgeId)>;

/// Lower bounds on the cost of crossing each straight grid cut: col(x)
/// bounds every edge between tile columns x and x+1, row(y) every edge
/// between rows y and y+1.  A path between two tiles crosses every cut
/// between them, each on its own edge (a horizontal edge crosses one
/// column cut, a vertical edge one row cut), so the floors of those cuts
/// sum to a lower bound on its cost — the cut argument of Kar et al.
/// (arXiv 1810.12789).  The bound is consistent: one edge changes it by
/// at most the floor of the cut it crosses, which is at most its cost.
///
/// A scalar floor is the uniform case (every cut at min()), so a search
/// takes one bound argument either way; the default, 0, turns A* off.
/// A view: per-cut floors point into the caller's storage (usually
/// EdgeCostCache::cut_floors()).
class CutFloors {
 public:
  /// Every cut at `floor` (implicit: a scalar floor is a CutFloors).
  CutFloors(double floor = 0.0) : min_(floor) {}
  /// One floor per column cut (nx - 1) and per row cut (ny - 1); `min`
  /// must bound every one of them.
  CutFloors(std::span<const double> cols, std::span<const double> rows,
            double min)
      : cols_(cols), rows_(rows), min_(min) {}

  double col(std::int32_t x) const {
    return cols_.empty() ? min_ : cols_[static_cast<std::size_t>(x)];
  }
  double row(std::int32_t y) const {
    return rows_.empty() ? min_ : rows_[static_cast<std::size_t>(y)];
  }
  /// A scalar floor on every edge cost (the maze's floor x manhattan).
  double min() const { return min_; }
  /// False for the scalar 0: searches run without a heuristic.
  bool enabled() const { return min_ > 0.0; }

 private:
  std::span<const double> cols_;
  std::span<const double> rows_;
  double min_;
};

/// Per-pass flat cache of edge costs: `values()[e]` is the current cost
/// of edge e, so the router's inner loop is one array load instead of a
/// std::function call plus a division.  The owner refreshes entries only
/// when usage actually changes (rip-up / commit), via refresh_edge() or
/// refresh_tree().
///
/// min_cost() is a conservative lower bound on every cached cost — the
/// admissible A* step floor.  refresh_all() recomputes it exactly;
/// point refreshes only ever lower it (a stale-high bound would break
/// admissibility, a stale-low one merely weakens the heuristic).
///
/// cut_floors() keeps one such bound per grid cut (CutFloors) under the
/// same discipline: refresh_all() sets each to the exact minimum over
/// the edges crossing its cut, serial refreshes only lower it, and
/// refresh_tree_sharded() never writes it (pool workers would race on
/// one floor); lower_min() folds a shard floor into every cut as well.
/// min_cost() bounds every cut floor.
class EdgeCostCache {
 public:
  EdgeCostCache(const tile::TileGraph& g, EdgeCostFn base);

  /// Recomputes every edge cost and the exact minimum.
  void refresh_all();
  /// Recomputes one edge's cost (after add_wire/remove_wire on it).
  void refresh_edge(tile::EdgeId e);
  /// Recomputes one edge's cost after its *capacity* changed
  /// (set_wire_capacity — the ECO perturbation path).  A usage change
  /// can only raise an edge's cost toward the overflow tier, but a
  /// capacity change moves it in either direction: a capacity increase
  /// can drop the true cost below the cached min_cost() floor, which
  /// would make the A* heuristic inadmissible and routes silently
  /// non-optimal.  This entry point lowers the floor against the new
  /// value exactly like refresh_edge(), and exists as its own verb so
  /// capacity edits cannot be "optimized away" as usage refreshes.
  void on_capacity_change(tile::EdgeId e);
  /// Recomputes the cost of every tile-graph edge `tree` crosses — the
  /// exact set whose usage a commit() or uncommit() of `tree` changed.
  void refresh_tree(const RouteTree& tree);

  /// refresh_tree on a caller-owned floor: updates the shared flat array
  /// but lowers `floor` instead of the global min_cost() and the cut
  /// floors.  Concurrent shards touching disjoint edge sets stay
  /// race-free — each owns its floor, and the array writes hit distinct
  /// elements.
  void refresh_tree_sharded(const RouteTree& tree, double& floor);

  /// Folds a shard-local floor back into the global bound and every cut
  /// floor after a parallel phase (the bounds only ever move down
  /// between full refreshes, exactly like refresh_edge()).
  void lower_min(double floor);

  /// Exact minimum cached cost over `edges` (e.g. a region's interior
  /// edge list): a tighter region-local A* floor than the global
  /// min_cost() — in congested runs this alone shrinks wavefronts.
  double min_over(std::span<const tile::EdgeId> edges) const;

  std::span<const double> values() const { return values_; }
  double min_cost() const { return min_cost_; }
  /// The per-cut floors (a view into this cache, valid until it dies).
  CutFloors cut_floors() const {
    const auto cols = static_cast<std::size_t>(g_.nx() - 1);
    return {std::span<const double>(cut_floor_).first(cols),
            std::span<const double>(cut_floor_).subspan(cols), min_cost_};
  }
  double operator[](tile::EdgeId e) const {
    return values_[static_cast<std::size_t>(e)];
  }

  /// Bytes held by the flat cost array and the cut floors (obs memory
  /// accounting).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(values_.capacity() +
                                      cut_floor_.capacity()) *
           sizeof(double);
  }

 private:
  /// Index into cut_floor_ of the cut edge `e` crosses: horizontal edges
  /// (ids below (nx - 1) * ny) cross column cut x, vertical ones row
  /// cut y, stored after the nx - 1 column cuts.
  std::size_t cut_of(tile::EdgeId e) const;
  /// The loop behind both refresh_tree()s: recomputes every edge `tree`
  /// crosses and hands each (edge, new cost) to `lower`.
  template <class Lower>
  void refresh_arcs(const RouteTree& tree, Lower lower);
  /// Lowers min_cost() and e's cut floor to `c` when it is below them.
  void lower_floors(tile::EdgeId e, double c) {
    if (c < min_cost_) min_cost_ = c;
    double& cut = cut_floor_[cut_of(e)];
    if (c < cut) cut = c;
  }

  const tile::TileGraph& g_;
  EdgeCostFn base_;
  std::vector<double> values_;
  std::vector<double> cut_floor_;  ///< nx - 1 column cuts, then ny - 1 rows
  double min_cost_ = 0.0;
};

/// Reusable wavefront router.  All scratch — distance/parent labels,
/// target flags, the heap's backing storage, per-pass A* bounds — lives
/// in stamped member arrays sized once per graph, so routing a net
/// performs no allocation after warm-up (beyond the returned tree).
class MazeRouter {
 public:
  explicit MazeRouter(const tile::TileGraph& g);

  /// Grows a tree from `source_tile` to every tile in `sink_tiles`
  /// (duplicates allowed; multiplicity becomes sink_count).  `alpha` is
  /// the PD radius/length trade-off; `cost` the per-edge cost.
  /// `astar_floor` > 0 enables A* targeting (see file comment); it must
  /// be a lower bound on every edge cost, e.g. EdgeCostCache::min_cost().
  RouteTree grow(tile::TileId source_tile,
                 std::span<const tile::TileId> sink_tiles, double alpha,
                 std::span<const double> cost, double astar_floor = 0.0);

  /// Convenience for a Net: maps pins to tiles and grows.
  RouteTree route_net(const netlist::Net& net, double alpha,
                      std::span<const double> cost, double astar_floor = 0.0);

  /// Lowest-cost tile path between two tiles under `cost` (both endpoints
  /// included).  Used by tests and simple point-to-point reconnects.
  std::vector<tile::TileId> shortest_path(tile::TileId from, tile::TileId to,
                                          std::span<const double> cost,
                                          double astar_floor = 0.0);

  /// Confines every subsequent search to the tiles of `span` (inclusive
  /// tile-coordinate bounds): neighbors outside are never expanded, so
  /// only edges with BOTH endpoints inside are read or traversed.  All
  /// seeds and targets must lie inside (asserted by the unreachable-sink
  /// check otherwise).  Region-sharded stage 2 routes region-local nets
  /// under confinement, which is what keeps concurrent shards' edge
  /// reads and writes disjoint.  Also a pure single-thread win: a
  /// congested wavefront floods at most the region, not the chip.
  void confine(tile::TileSpan span);
  /// Removes the confinement (the default: the whole grid).
  void unconfine() { confined_ = false; }

  /// Bytes held by the router's scratch (labels, heap backing, work
  /// lists) — the obs memory.maze_scratch accounting.
  std::uint64_t memory_bytes() const;

 private:
  struct HeapEntry {
    double key;  ///< dist + heuristic; == dist when A* is off
    double dist;
    tile::TileId tile;
    // Tie-break on tile id so expansion order (and thus routes) is fully
    // deterministic regardless of heap internals.
    bool operator>(const HeapEntry& o) const {
      if (key != o.key) return key > o.key;
      return tile > o.tile;
    }
  };

  void heap_push(HeapEntry e) { heap_.push(e); }
  HeapEntry heap_pop() { return heap_.pop(); }

  /// One 32-byte row per tile holding every stamped per-tile scratch
  /// value (distance/parent labels, the per-pass A* memo, the target
  /// mark), so a relaxation touches one cache line instead of walking
  /// six parallel arrays.
  struct Label {
    double dist;
    double h;                   ///< per-pass A* bound memo
    tile::TileId prev;
    std::uint32_t stamp;        ///< validates dist/prev (epoch_)
    std::uint32_t h_stamp;      ///< validates h (epoch_)
    std::uint32_t target_stamp; ///< tile is a target (target_epoch_)
  };
  static_assert(sizeof(Label) == 32);

  /// One unconnected sink tile of the current grow(): its coordinate
  /// (for both bounds) and the cheapest edge into it that the search may
  /// read, fixed for the whole call because costs and confinement are.
  struct Target {
    tile::TileId tile;
    geom::TileCoord coord;
    double entry;
  };

  const tile::TileGraph& g_;
  std::vector<Label> labels_;
  std::uint32_t epoch_ = 0;
  std::uint32_t target_epoch_ = 0;
  std::vector<Target> targets_;

  /// Confinement mask: in_region_[t] != 0 iff tile t is inside the
  /// confined span.  A one-byte load per relaxation; confine() clears
  /// only the previously set span before painting the new one, so
  /// per-net clips (the sharded boundary replay) cost O(clip), not
  /// O(chip).
  bool confined_ = false;
  tile::TileSpan confined_span_;
  std::vector<std::uint8_t> in_region_;

  // Reusable wavefront storage: heap backing plus grow()'s worklists.
  util::RadixHeap<HeapEntry> heap_;
  std::vector<double> path_cost_;
  std::vector<tile::TileId> path_;

  void begin_pass() { ++epoch_; }
  bool seen(tile::TileId t) const {
    return labels_[static_cast<std::size_t>(t)].stamp == epoch_;
  }
  void touch(tile::TileId t, double d, tile::TileId p) {
    Label& l = labels_[static_cast<std::size_t>(t)];
    l.dist = d;
    l.prev = p;
    l.stamp = epoch_;
  }
  bool is_target(tile::TileId t) const {
    return labels_[static_cast<std::size_t>(t)].target_stamp == target_epoch_;
  }
};

}  // namespace rabid::route
