#pragma once

/// \file twopath.hpp
/// Stage-4 machinery (Section III-D): editing a route tree one two-path
/// at a time, and the bottom-up cost-array path search that reconnects a
/// ripped-up two-path while minimizing wire congestion (eq. 1) plus
/// buffer-site cost (eq. 2) jointly.
///
/// The search runs Dijkstra over (tile, j) states, j being the wire
/// length since the last buffer (j < L).  Stepping an edge costs eq. (1)
/// and increments j; placing a buffer at a tile costs q(v) and resets
/// j to 0.  States whose j would reach L must buffer or die, so every
/// returned path can be legally buffered under the length rule.  The
/// buffers themselves are re-inserted net-wide afterwards (the paper does
/// the same); the search only has to find a corridor where both wire and
/// buffer capacity exist.

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "route/maze.hpp"
#include "route/route_tree.hpp"
#include "tile/tile_graph.hpp"
#include "util/radix_heap.hpp"

namespace rabid::core {

/// Result of the (tile x L) Dijkstra: the tile path (from..to inclusive)
/// and its combined congestion cost.
struct TwoPathRoute {
  std::vector<tile::TileId> tiles;
  double cost = 0.0;
};

/// Finds the min-cost reconnection between two tiles.
/// `wire_cost`: per-edge cost (eq. 1, softened); `buffer_cost`: per-tile
/// q(v) (may be +inf); `L`: length rule for the net.  The objective is
/// wire_weight * wire + buffer — footnote 7: the two costs "are of the
/// same order of magnitude, so we simply add their costs.
/// Alternatively, one could use any linear combination."
///
/// Costs are flat per-edge / per-tile arrays (one load per
/// relaxation), plus optional A* targeting.
/// Enabled `floors` (route::CutFloors: per-cut lower bounds on
/// `wire_cost`, e.g. EdgeCostCache::cut_floors(), or any positive scalar
/// floor such as EdgeCostCache::min_cost()) turn on the goal-rooted
/// exact-wire-distance heuristic described on TwoPathSearch; the
/// returned cost is provably identical either way.  The scalar 0
/// disables the heuristic and reproduces plain Dijkstra expansion order
/// exactly.
TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            std::span<const double> wire_cost,
                            std::span<const double> buffer_cost,
                            double wire_weight = 1.0,
                            const route::CutFloors& floors = {});

/// Reusable (tile x L) search: all scratch — per-state distance/parent
/// labels, the heap's backing store, the heuristic field — lives in
/// stamped member arrays sized to the largest L seen, so a warm search
/// touches only the states the wavefront actually visits.  Stage 4 keeps
/// one TwoPathSearch alive across every two-path of every net.
///
/// With enabled floors the search upgrades the cut bound to the
/// *exact* wire-only distance-to-goal: a goal-rooted tile-level Dijkstra
/// over `wire_cost` (no length rule, no buffers) settled lazily, exactly
/// as far as the forward search's pops ask (see "Deferred keys").
/// h(t) = wire_weight * that distance is admissible (buffer costs are
/// nonnegative and every legal continuation is in particular a wire
/// path) and consistent (a shortest-path field obeys the triangle
/// inequality edge by edge; buffering keeps the tile, leaving h
/// unchanged), so the returned cost is identical to plain Dijkstra's —
/// only equal-cost tie-breaking differs.
/// Results are identical to route_two_path() given the same arguments.
///
/// **Dominance pruning.**  A state (t, j) with distance d is *dominated*
/// when a label (t, j') with j' <= j and distance d' <= d was already
/// popped: every continuation of (t, j) is legal from (t, j') too (less
/// unbuffered length) and costs no more.  The search keeps one stamped
/// record per tile — the smallest j popped there and that label's
/// distance — and skips a pop, or refuses a relaxation, that the record
/// dominates.  Both distances are compared explicitly: keys share h(t),
/// but "popped earlier" does not imply d' <= d once rounding enters the
/// keys, so order alone is no proof of dominance.
///
/// The pruning is lossless *and* leaves every route bit-identical.
/// Proof sketch, for the unpruned search U and a popped dominated label
/// e = (t, j, d) with dominator f = (t, j', d'), j' < j (j' == j is the
/// same state, whose later pop is stale):
///   1. e's buffer move offers (t, 0) fl(d + bq) >= d >= d' — never a
///      strict improvement of a label f already set or popped.
///   2. e's step to (u, j+1) offers x = fl(d + c); f already offered
///      (u, j'+1) the value fl(d' + c) <= x (rounding is monotone).  Any
///      label (u, j+1) with final distance d_s <= x is therefore beaten
///      by (u, j'+1) in (key, id) order — keys are monotone in d and the
///      smaller j has the smaller state id — so if x ever decided that
///      label, (u, j+1) is itself dominated.  By induction no label that
///      survives pruning ever takes its distance or its parent from a
///      dominated one.
///   3. The surviving labels thus carry bit-identical (dist, prev) and
///      keys, and the heap's strict total order (util/radix_heap.hpp) pops
///      them in the same sequence.  The goal — the first pop at `to` —
///      cannot be dominated (its dominator would have been the goal), so
///      the same goal state and parent chain come out.
/// The record prunes a subset of the dominated labels (a later pop with
/// a smaller j replaces it), which the argument allows.
///
/// **Deferred keys.**  The field settles a ball around the goal, which
/// grows with the square of the two-path's length, while the forward
/// search walks a corridor that grows linearly; most states pushed at
/// the edge of the search are never popped.  So a relaxation that
/// improves a label at a tile whose field value is not settled yet
/// pushes a *lower bound* on the key, d + wire_weight * b(t), and marks
/// the entry deferred.  A deferred pop that is stale is dropped; any
/// other settles the field up to its tile and pushes the entry again at
/// its exact key d + wire_weight * h(t).  Only exact pops expand, touch
/// the dominance record or end the search.  With cut(a, b) the sum of
/// the floors of the cuts between tiles a and b (route::CutFloors) and
/// m = kBoundMargin, the bound is
///     b(t) = max(m' * cut(t, goal), m' * K_open - m' * cut(t, hot)),
/// m' = 1 - m, K_open being the smallest key in the field's open set
/// and hot the forward source the field is aimed at (the field keys a
/// tile o at d(o) + m' * cut(o, hot)).
///   1. Every path t -> goal crosses each cut between them on its own
///      edge, so h(t) >= cut(t, goal) >= the first term.
///   2. Take the path goal -> t that yields h(t), and its first tile o
///      not settled when the bound is taken.  o's predecessor is, so o
///      sits in the open set with its final distance d(o), keyed d(o) +
///      m' * cut(o, hot) >= K_open.  Then h(t) >= d(o) + cut(o, t) >=
///      d(o) + m' * cut(o, hot) - m' * cut(t, hot) >= K_open - m' *
///      cut(t, hot), cut being a metric.  A stale heap top only lowers
///      K_open.
///   3. Rounding: a computed n-edge path sum can sit about 2n ulps below
///      its real value, and so can an n-cut sum sit above it, so each
///      term gives up m = 1e-9 of its scale; b(t) then stays below the
///      *computed* h(t), and since rounding is monotone the bound key
///      stays below the exact key.  The resolution asserts it, so an
///      unsound bound aborts instead of reordering pops.
/// Routes cannot change.  A deferred (bound, s) orders before the exact
/// (key, s) it stands for, so it is popped and resolved before any exact
/// entry that (key, s) precedes can be expanded: the exact entries pop
/// in the same strict (key, s) sequence as with eager keys.  The field's
/// own pops form one fixed sequence within a search, so a value settled
/// later is the value settled earlier.  Across searches that keep a
/// field, the settled extent at re-aim time is smaller than with eager
/// keys; as with any re-aim, values agree up to rounding ties, and
/// twopath_equivalence_test checks every route against eager keys.
///
/// **Field reuse.**  route_keeping_field() lets consecutive searches
/// toward the same goal, under unchanged wire costs, keep the settled
/// field and only re-aim its open set at the new source.  route() always
/// starts a fresh field.  Settled field values do not depend on the aim
/// in exact arithmetic; in floating point a key tie can settle a tile
/// one rounding step apart from a fresh field (scale10k: 4 more heap
/// pops out of 3.3M).  twopath_equivalence_test checks, call by call,
/// that no route changes.
class TwoPathSearch {
 public:
  explicit TwoPathSearch(const tile::TileGraph& g);

  TwoPathRoute route(tile::TileId from, tile::TileId to, std::int32_t L,
                     std::span<const double> wire_cost,
                     std::span<const double> buffer_cost,
                     double wire_weight = 1.0,
                     const route::CutFloors& floors = {}) {
    return search(from, to, L, wire_cost, buffer_cost, wire_weight, floors,
                  /*reuse_field=*/false);
  }

  /// route() for a caller that holds the wire costs still between
  /// searches: when the previous search had the same goal and floors,
  /// its settled field is kept and re-aimed at `from` instead of rebuilt.
  /// Valid only while `wire_cost` holds the values of that previous
  /// search — call drop_field() whenever they change.
  TwoPathRoute route_keeping_field(tile::TileId from, tile::TileId to,
                                   std::int32_t L,
                                   std::span<const double> wire_cost,
                                   std::span<const double> buffer_cost,
                                   double wire_weight,
                                   const route::CutFloors& floors) {
    return search(from, to, L, wire_cost, buffer_cost, wire_weight, floors,
                  /*reuse_field=*/true);
  }

  /// Forgets the kept field: the next search builds a fresh one.
  void drop_field() { field_goal_ = tile::kNoTile; }

  /// Settles the goal-rooted wire-distance field up to `t` (lazy
  /// backward Dijkstra); returns the unweighted wire distance t -> goal.
  /// Called for the start state and for each deferred key resolved; the
  /// settled case is a single stamped load.  Public for inspection after
  /// a search with enabled floors that left its field live: `wire_cost`
  /// must hold that search's values.
  double field_distance(tile::TileId t, std::span<const double> wire_cost) {
    const FieldLabel& fl = field_[static_cast<std::size_t>(t)];
    if (fl.settled == field_epoch_) return fl.dist;
    return field_settle(t, wire_cost);
  }

 private:
  /// Forward-heap entry.  `deferred` stays outside the (key, s) order:
  /// a deferred entry sorts by its bound exactly like an exact one.
  struct Entry {
    double key;  ///< d + heuristic (== d when A* is off); a bound if deferred
    double d;
    std::uint32_t s;  ///< (tile, j) state; 31 bits, see ensure_states
    bool deferred;    ///< key is a lower bound: resolve before expanding
    bool operator>(const Entry& o) const {
      if (key != o.key) return key > o.key;
      return s > o.s;
    }
  };
  static_assert(sizeof(Entry) == 24);
  struct FieldEntry {
    double key;  ///< d + field A* bound; == d when the bound is off
    double d;
    tile::TileId t;
    bool operator>(const FieldEntry& o) const {
      if (key != o.key) return key > o.key;
      return t > o.t;
    }
  };

  /// Forward-search label, one 16-byte row per (tile, j) state so a
  /// relaxation touches a single cache line instead of three parallel
  /// arrays.  `prev` holds the predecessor *state* (-1 for the start,
  /// -2 for never-touched); 31 bits bound the state space at 2^31 rows,
  /// asserted in ensure_states.
  struct Label {
    double dist;
    std::int32_t prev;
    std::uint32_t stamp;
  };
  static_assert(sizeof(Label) == 16);

  /// Heuristic-field label, one 16-byte row per tile (same rationale).
  struct FieldLabel {
    double dist;
    std::uint32_t seen;
    std::uint32_t settled;
  };
  static_assert(sizeof(FieldLabel) == 16);

  /// Per-tile dominance record (stamped by epoch_): the smallest j popped
  /// at the tile in this search and that label's distance.
  struct TileBest {
    double dist;
    std::int32_t j;
    std::uint32_t stamp;
  };
  static_assert(sizeof(TileBest) == 16);

 public:
  /// Bytes held by the (tile x L) labels, the dominance records, the
  /// heuristic field, and both heaps' backing stores (obs
  /// memory.maze_scratch accounting).
  std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(labels_.capacity()) * sizeof(Label) +
           static_cast<std::uint64_t>(best_.capacity()) * sizeof(TileBest) +
           static_cast<std::uint64_t>(field_.capacity()) *
               sizeof(FieldLabel) +
           static_cast<std::uint64_t>(coords_.capacity()) *
               sizeof(geom::TileCoord) +
           static_cast<std::uint64_t>(
               cut_cols_.capacity() + cut_rows_.capacity() +
               hot_x_.capacity() + hot_y_.capacity() + goal_x_.capacity() +
               goal_y_.capacity()) *
               sizeof(double) +
           heap_.memory_bytes() + field_heap_.memory_bytes();
  }

 private:
  /// The search behind route().  With `reuse_field`, a field left by the
  /// previous search toward the same goal (and floors) is kept and
  /// re-aimed; the caller guarantees `wire_cost` has not changed since.
  TwoPathRoute search(tile::TileId from, tile::TileId to, std::int32_t L,
                      std::span<const double> wire_cost,
                      std::span<const double> buffer_cost,
                      double wire_weight, const route::CutFloors& floors,
                      bool reuse_field);
  void ensure_states(std::size_t n_states);
  /// True when `floors` are the live field's (cut by cut).
  bool same_floors(const route::CutFloors& floors) const;
  /// Starts a fresh goal-rooted field under `floors`, aimed at `from`.
  void start_field(tile::TileId from, tile::TileId to,
                   const route::CutFloors& floors);
  /// Re-aims the open set of the current field at `from`: drops stale
  /// entries and re-keys the rest.  Settled values are kept.
  void aim_field(tile::TileId from);
  /// Fills `out_x` / `out_y` with m' * cut(anchor, .) per column / row
  /// (see "Deferred keys"), summed outward from the anchor so that each
  /// entry is one running sum of the floors it spans.
  void cut_distances(geom::TileCoord anchor, std::vector<double>& out_x,
                     std::vector<double>& out_y) const;
  /// m' * cut(t, anchor) from a pair of cut_distances tables.
  double cut_bound(tile::TileId t, const std::vector<double>& tx,
                   const std::vector<double>& ty) const {
    const geom::TileCoord c = coords_[static_cast<std::size_t>(t)];
    return tx[static_cast<std::size_t>(c.x)] +
           ty[static_cast<std::size_t>(c.y)];
  }
  /// Out-of-line slow path of field_distance: pops the backward-Dijkstra
  /// heap until `t` is settled.
  double field_settle(tile::TileId t, std::span<const double> wire_cost);
  /// A lower bound on field_distance(t) that settles nothing (see
  /// "Deferred keys" in the class comment).  Each term gives up
  /// kBoundMargin of its scale to rounding, so the bound stays below
  /// the computed field value, not just the real one.
  double field_lower_bound(tile::TileId t) {
    double bound = cut_bound(t, goal_x_, goal_y_);
    if (!field_heap_.empty()) {
      bound = std::max(bound, field_heap_.top().key * (1.0 - kBoundMargin) -
                                  cut_bound(t, hot_x_, hot_y_));
    }
    return bound;
  }
  /// Relative rounding allowance of the cut bounds: a computed field
  /// value of an n-edge path can sit (2n + 4) ulps below the real-number
  /// bound, so 1e-9 covers paths of up to ~4M edges.
  static constexpr double kBoundMargin = 1e-9;

  const tile::TileGraph& g_;
  std::vector<Label> labels_;
  std::vector<TileBest> best_;
  std::uint32_t epoch_ = 0;
  util::RadixHeap<Entry> heap_;

  // Heuristic field scratch (per goal tile, stamped by field_epoch_).
  // The field is itself an A* search aimed at the forward search's
  // source: with a consistent bound every settled tile's distance is
  // exact (the standard A* optimality argument), so the *values* the
  // forward search reads — and therefore its keys, pops, and routes — are
  // identical to a plain-Dijkstra field; only which tiles get settled (a
  // corridor goal -> source instead of a disk around the goal) changes.
  // The same argument lets a field outlive its search: re-aiming the open
  // set at another source changes which tiles settle next, not what they
  // settle to (up to rounding, see the class comment).
  std::vector<FieldLabel> field_;
  std::vector<geom::TileCoord> coords_;  ///< per-tile coordinate table
  util::RadixHeap<FieldEntry> field_heap_;
  std::uint32_t field_epoch_ = 0;
  tile::TileId field_goal_ = tile::kNoTile;  ///< goal of the live field
  geom::TileCoord field_hot_{0, 0};  ///< forward source; field A* target
  std::vector<double> cut_cols_;  ///< the live field's floor per column cut
  std::vector<double> cut_rows_;  ///< ... and per row cut
  std::vector<double> hot_x_, hot_y_;    ///< cut_distances from field_hot_
  std::vector<double> goal_x_, goal_y_;  ///< cut_distances from the goal
  std::uint64_t field_pops_ = 0;  ///< flushed to obs once per search
};

/// An editable tile-level tree: a RouteTree exploded into undirected
/// arcs, supporting two-path removal, path insertion, pruning of dangling
/// stubs, and reconstruction into a RouteTree.
///
/// prune() lays the tree out flat in stamped scratch (BFS order, parents,
/// child ranges, prune flags); first_two_path() walks that layout and
/// tree() materializes it, so a rip loop builds one RouteTree per net.
/// One editor can serve many trees: reset() clears only the tiles the
/// previous tree touched, and prune() checks the tree's own sink tiles,
/// so per-tree work is O(tree), not O(chip).
class TileTreeEditor {
 public:
  /// An editor holding no tree; call reset() before editing.
  explicit TileTreeEditor(const tile::TileGraph& g);
  TileTreeEditor(const route::RouteTree& tree, const tile::TileGraph& g);

  /// Replaces the edited tree with `tree`.
  void reset(const route::RouteTree& tree);

  /// Removes the arcs of a two-path (interior tiles plus both boundary
  /// arcs). `interior` may be empty (single-arc two-path).
  void remove_path(tile::TileId head,
                   std::span<const tile::TileId> interior, tile::TileId tail);

  /// Adds the arcs of a tile path (consecutive tiles adjacent in g).
  void add_path(std::span<const tile::TileId> tiles);

  /// True if `t` currently has any arcs (or is the root/a sink).
  bool in_tree(tile::TileId t) const;

  /// Lays out the flat tree: BFS from the source over the arc set (cycle
  /// arcs dropped), then iterative pruning of non-sink leaves.  Aborts if
  /// any sink became unreachable.  Tiles for which `keep` returns true
  /// are never pruned (e.g. stubs ending at a net's buffer tile).
  void prune(const std::function<bool(tile::TileId)>& keep = {});

  /// The flat tree as a RouteTree: its kept nodes in BFS order.
  route::RouteTree tree() const;

  /// prune(keep), then tree().
  route::RouteTree rebuild(
      const std::function<bool(tile::TileId)>& keep = {}) {
    prune(keep);
    return tree();
  }

  /// The first two-path of the flat tree, in RouteTree::two_paths()
  /// order, whose (head, tail) tiles are not in `done`; its interior
  /// tiles, head side first, go to `interior`.  {kNoTile, kNoTile} if
  /// every two-path is done.
  std::pair<tile::TileId, tile::TileId> first_two_path(
      std::span<const std::pair<tile::TileId, tile::TileId>> done,
      std::vector<tile::TileId>& interior) const;
  /// Number of two-paths of the flat tree.
  std::size_t two_path_count() const;

  /// Bytes held by the per-tile arc lists, sink counts and flat tree.
  std::uint64_t memory_bytes() const;

 private:
  /// The tree arcs at one tile, in insertion order.  A grid tile has at
  /// most four neighbors, so the list is inline: editing allocates
  /// nothing.
  struct Arcs {
    std::array<tile::TileId, 4> to;
    std::int32_t count;
  };
  /// One BFS node of the flat tree.  A node's BFS children are found
  /// together, so they are the contiguous slots [first, end).
  struct Slot {
    tile::TileId tile;
    std::int32_t parent;  ///< slot index; -1 at the root
    std::int32_t first;
    std::int32_t end;
    std::int32_t live;  ///< kept children
    bool kept;
  };

  /// Two-path ends: the root, a sink tile, or not exactly one kept child.
  bool anchor(std::size_t i) const {
    return i == 0 || flat_[i].live != 1 ||
           sink_multiplicity_[static_cast<std::size_t>(flat_[i].tile)] > 0;
  }

  const tile::TileGraph& g_;
  tile::TileId source_ = tile::kNoTile;
  std::vector<std::int32_t> sink_multiplicity_;  // per tile
  std::vector<Arcs> adj_;                        // per tile
  std::vector<tile::TileId> sink_tiles_;  ///< tiles with multiplicity > 0
  /// Tiles whose arc list went non-empty since the last reset() (may
  /// repeat; reset() only clears them).
  std::vector<tile::TileId> touched_;
  std::vector<Slot> flat_;           ///< the flat tree, BFS order
  std::vector<std::uint32_t> seen_;  ///< per tile: BFS reached, by epoch_
  std::uint32_t epoch_ = 0;
  void remove_arc(tile::TileId a, tile::TileId b);
  void add_arc(tile::TileId a, tile::TileId b);
};

/// Stage 4's rip-and-reroute of one net (Section III-D), shared by
/// Rabid::run_stage4 and the ECO polish pass: one two-path at a time is
/// ripped out of the tree and reconnected by the (tile x L) search with
/// joint wire+buffer costs.  The decomposition is recomputed from the
/// editor's flat tree after every replacement: a reroute may share arcs
/// with a not-yet-processed two-path, so ripping from a stale snapshot
/// could sever it.
///
/// One rerouter serves a whole stage or ECO step: it owns the search and
/// the tree editor, whose scratch stays warm across nets.  Wire and site
/// costs cannot change inside one reroute() call (the net is uncommitted
/// throughout), so consecutive searches toward one goal share their
/// heuristic field; every reroute() call starts with a fresh field, so
/// callers may change costs freely between calls.
class TwoPathRerouter {
 public:
  explicit TwoPathRerouter(const tile::TileGraph& g);

  /// Returns `tree` with every two-path rerouted.  `tree` must already be
  /// uncommitted from the books the cost arrays price.
  route::RouteTree reroute(const route::RouteTree& tree, std::int32_t L,
                           std::span<const double> wire_cost,
                           std::span<const double> buffer_cost,
                           double wire_weight,
                           const route::CutFloors& floors);

  /// Search plus editor scratch (obs memory.maze_scratch accounting).
  std::uint64_t memory_bytes() const {
    return search_.memory_bytes() + editor_.memory_bytes();
  }

 private:
  TwoPathSearch search_;
  TileTreeEditor editor_;
  std::vector<std::pair<tile::TileId, tile::TileId>> done_;
  std::vector<tile::TileId> interior_;
};

}  // namespace rabid::core
