#include "core/twopath.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace rabid::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

TwoPathSearch::TwoPathSearch(const tile::TileGraph& g)
    : g_(g),
      best_(static_cast<std::size_t>(g.tile_count()), TileBest{0.0, 0, 0}),
      field_(static_cast<std::size_t>(g.tile_count())) {
  // The per-tile coordinate table replaces coord_of() in the field's
  // push loop: same values, no div/mod per relaxation.
  coords_.reserve(static_cast<std::size_t>(g.tile_count()));
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    coords_.push_back(g.coord_of(t));
  }
  // Pre-size the field heap from the graph so it never reallocates
  // mid-wavefront (kHeapRegrows counts any push that still does); the
  // forward heap is sized with its state space in ensure_states.
  field_heap_.reserve(static_cast<std::size_t>(g.tile_count()));
}

void TwoPathSearch::ensure_states(std::size_t n_states) {
  RABID_ASSERT_MSG(
      n_states <= static_cast<std::size_t>(
                      std::numeric_limits<std::int32_t>::max()),
      "(tile x L) state space exceeds the 31-bit label encoding");
  if (labels_.size() < n_states) {
    labels_.resize(n_states, Label{0.0, -2, 0});
    // Size the forward heap from the state space, so that no circuit's
    // L outgrows it mid-search (the open set peaks at 3-11% of the
    // states on the benchmark circuits), but in no more bytes than the
    // label array: a larger single buffer moves glibc's adaptive mmap
    // threshold past the labels, which measurably raised peak RSS on
    // scale10k's repeated ECO steps.  The pool node is the heap's
    // largest per-entry buffer.
    heap_.reserve(n_states * sizeof(Label) /
                  util::RadixHeap<Entry>::kNodeBytes);
  }
}

bool TwoPathSearch::same_floors(const route::CutFloors& floors) const {
  for (std::size_t x = 0; x < cut_cols_.size(); ++x) {
    if (floors.col(static_cast<std::int32_t>(x)) != cut_cols_[x]) return false;
  }
  for (std::size_t y = 0; y < cut_rows_.size(); ++y) {
    if (floors.row(static_cast<std::int32_t>(y)) != cut_rows_[y]) return false;
  }
  return true;
}

void TwoPathSearch::cut_distances(geom::TileCoord anchor,
                                  std::vector<double>& out_x,
                                  std::vector<double>& out_y) const {
  const auto fill = [](const std::vector<double>& floor, std::int32_t at,
                       std::vector<double>& out) {
    const auto a = static_cast<std::size_t>(at);
    out.resize(floor.size() + 1);
    out[a] = 0.0;
    for (std::size_t i = a + 1; i < out.size(); ++i) {
      out[i] = out[i - 1] + floor[i - 1];
    }
    for (std::size_t i = a; i-- > 0;) out[i] = out[i + 1] + floor[i];
    for (double& v : out) v *= 1.0 - kBoundMargin;
  };
  fill(cut_cols_, anchor.x, out_x);
  fill(cut_rows_, anchor.y, out_y);
}

void TwoPathSearch::start_field(tile::TileId from, tile::TileId to,
                                const route::CutFloors& floors) {
  ++field_epoch_;
  field_heap_.clear();
  field_goal_ = to;
  FieldLabel& goal = field_[static_cast<std::size_t>(to)];
  goal.seen = field_epoch_;
  goal.dist = 0.0;
  cut_cols_.resize(static_cast<std::size_t>(g_.nx() - 1));
  for (std::size_t x = 0; x < cut_cols_.size(); ++x) {
    cut_cols_[x] = floors.col(static_cast<std::int32_t>(x));
  }
  cut_rows_.resize(static_cast<std::size_t>(g_.ny() - 1));
  for (std::size_t y = 0; y < cut_rows_.size(); ++y) {
    cut_rows_[y] = floors.row(static_cast<std::int32_t>(y));
  }
  cut_distances(coords_[static_cast<std::size_t>(to)], goal_x_, goal_y_);
  // Aim the field at the forward source: the cut bound is consistent
  // for the field's own expansion (values stay exact, see field_settle).
  field_hot_ = coords_[static_cast<std::size_t>(from)];
  cut_distances(field_hot_, hot_x_, hot_y_);
  field_heap_.push({cut_bound(to, hot_x_, hot_y_), 0.0, to});
}

void TwoPathSearch::aim_field(tile::TileId from) {
  const geom::TileCoord hot = coords_[static_cast<std::size_t>(from)];
  if (hot == field_hot_) return;
  field_hot_ = hot;
  cut_distances(field_hot_, hot_x_, hot_y_);
  field_heap_.rebuild([&](FieldEntry& e) {
    const FieldLabel& fl = field_[static_cast<std::size_t>(e.t)];
    if (fl.settled == field_epoch_ || e.d != fl.dist) return false;
    e.key = e.d + cut_bound(e.t, hot_x_, hot_y_);
    return true;
  });
}

double TwoPathSearch::field_settle(tile::TileId t,
                                   std::span<const double> wire_cost) {
  const auto ti = static_cast<std::size_t>(t);
  while (field_[ti].settled != field_epoch_) {
    RABID_ASSERT_MSG(!field_heap_.empty(), "heuristic field ran dry");
    const FieldEntry top = field_heap_.pop();
    ++field_pops_;
    const auto ui = static_cast<std::size_t>(top.t);
    // Stale heap entry: the tile is settled, or a later push improved its
    // distance.  The d test matters when two entries tie on (key, tile)
    // with different d (a near-ulp improvement under a large key): the
    // heap may pop either first, and only the current one may settle.
    if (field_[ui].settled == field_epoch_ || top.d != field_[ui].dist) {
      continue;
    }
    field_[ui].settled = field_epoch_;
    const tile::TileGraph::Adjacency* adj = g_.adjacency(top.t);
    const int cnt = g_.adj_count(top.t);
    for (int k = 0; k < cnt; ++k) {
      const double nd =
          top.d + wire_cost[static_cast<std::size_t>(adj[k].edge)];
      const auto vi = static_cast<std::size_t>(adj[k].tile);
      FieldLabel& fl = field_[vi];
      if (fl.seen != field_epoch_ || nd < fl.dist) {
        fl.seen = field_epoch_;
        fl.dist = nd;
        field_heap_.push(
            {nd + cut_bound(adj[k].tile, hot_x_, hot_y_), nd, adj[k].tile});
      }
    }
  }
  return field_[ti].dist;
}

TwoPathRoute TwoPathSearch::search(tile::TileId from, tile::TileId to,
                                   std::int32_t L,
                                   std::span<const double> wire_cost,
                                   std::span<const double> buffer_cost,
                                   double wire_weight,
                                   const route::CutFloors& floors,
                                   bool reuse_field) {
  RABID_ASSERT(L >= 1);
  RABID_ASSERT(wire_weight >= 0.0);
  const auto n_tiles = static_cast<std::size_t>(g_.tile_count());
  // Power-of-two row stride: state = (tile << shift) | j.  The mapping
  // is strictly increasing in lexicographic (tile, j) exactly like the
  // old tile * L + j packing (j < L <= stride), so the heap's id
  // tie-break — and therefore every pop — is unchanged; decode becomes
  // shift/mask instead of div/mod.
  const std::uint32_t shift =
      L <= 1 ? 0U : std::bit_width(static_cast<std::uint32_t>(L - 1));
  const std::size_t jmask = (std::size_t{1} << shift) - 1;
  ensure_states(n_tiles << shift);
  ++epoch_;
  heap_.clear();
  auto state_of = [&](tile::TileId t, std::int32_t j) {
    return (static_cast<std::size_t>(t) << shift) |
           static_cast<std::size_t>(j);
  };

  // A* bound per *tile* (states of one tile share it): the exact wire-
  // only distance to the goal, settled lazily by a goal-rooted backward
  // Dijkstra (see the class comment for the admissibility argument).
  const bool use_h = floors.enabled();
  if (use_h) {
    if (reuse_field && field_goal_ == to && same_floors(floors)) {
      aim_field(from);
    } else {
      start_field(from, to, floors);
    }
  }
  const auto h_of = [&](tile::TileId t) -> double {
    if (!use_h) return 0.0;
    return wire_weight * field_distance(t, wire_cost);
  };

  // (tile x L) heap work, flushed to the registry once per search.
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t pruned = 0;
  std::uint64_t deferred = 0;
  std::uint64_t resolved = 0;
  std::uint64_t dropped = 0;

  // Start at the tail with j = 0 (the tail end is an anchor; the exact
  // downstream slack is re-established by the net-wide re-buffering).
  const auto start = static_cast<std::uint32_t>(state_of(from, 0));
  labels_[start] = Label{0.0, -1, epoch_};
  heap_.push({h_of(from), 0.0, start, false});
  ++pushes;

  // True when tile t's record dominates a (t, j) label at distance d
  // (see the class comment: the distance test is explicit).
  const auto dominated = [&](tile::TileId t, std::int32_t j, double d) {
    const TileBest& b = best_[static_cast<std::size_t>(t)];
    return b.stamp == epoch_ && b.j <= j && b.dist <= d;
  };

  // A relaxation that improves a label pushes its exact key when the
  // field already holds h(t), and a lower bound on it otherwise: the
  // field is settled up to t only if the entry reaches the top of the
  // heap (see "Deferred keys" in the class comment).
  auto relax = [&](tile::TileId t, std::int32_t j, double d,
                   std::size_t from_state) {
    const std::size_t s = state_of(t, j);
    Label& lbl = labels_[s];
    if (lbl.stamp == epoch_ && !(d < lbl.dist)) return;
    if (dominated(t, j, d)) {
      ++pruned;
      return;
    }
    lbl = Label{d, static_cast<std::int32_t>(from_state), epoch_};
    const auto s32 = static_cast<std::uint32_t>(s);
    if (!use_h) {
      heap_.push({d, d, s32, false});
    } else if (const FieldLabel& fl = field_[static_cast<std::size_t>(t)];
               fl.settled == field_epoch_) {
      heap_.push({d + wire_weight * fl.dist, d, s32, false});
    } else {
      heap_.push({d + wire_weight * field_lower_bound(t), d, s32, true});
      ++deferred;
    }
    ++pushes;
  };

  std::size_t goal = static_cast<std::size_t>(-1);
  while (!heap_.empty()) {
    const Entry top = heap_.pop();
    ++pops;
    const auto s = static_cast<std::size_t>(top.s);
    if (top.d > labels_[s].dist) {
      if (top.deferred) ++dropped;
      continue;
    }
    const auto t = static_cast<tile::TileId>(s >> shift);
    if (top.deferred) {
      // Resolve: settle the field up to t and queue the exact key.  Only
      // exact pops reach the dominance record, the goal test or the
      // expansion below.
      const double key = top.d + h_of(t);
      RABID_ASSERT(key >= top.key);
      heap_.push({key, top.d, top.s, false});
      ++pushes;
      ++resolved;
      continue;
    }
    const auto j = static_cast<std::int32_t>(s & jmask);
    TileBest& best = best_[static_cast<std::size_t>(t)];
    if (best.stamp != epoch_) {
      best = TileBest{top.d, j, epoch_};
    } else if (best.j <= j && best.dist <= top.d) {
      ++pruned;
      continue;
    } else if (j < best.j) {
      best = TileBest{top.d, j, epoch_};
    }
    if (t == to) {
      goal = s;
      break;
    }
    // Buffer here: pay q(t), reset the run length.
    if (j > 0) {
      const double q = buffer_cost[static_cast<std::size_t>(t)];
      if (std::isfinite(q)) relax(t, 0, top.d + q, s);
    }
    // Step to a neighbor if the length rule still allows it.
    if (j + 1 < L) {
      const tile::TileGraph::Adjacency* adj = g_.adjacency(t);
      const int cnt = g_.adj_count(t);
      for (int k = 0; k < cnt; ++k) {
        relax(adj[k].tile, j + 1,
              top.d + wire_weight *
                          wire_cost[static_cast<std::size_t>(adj[k].edge)],
              s);
      }
    }
  }

  if (obs::counting()) {
    obs::count(obs::Counter::kTwoPathSearches);
    obs::count(obs::Counter::kTwoPathHeapPushes, pushes);
    obs::count(obs::Counter::kTwoPathHeapPops, pops);
    obs::count(obs::Counter::kTwoPathLabelsPruned, pruned);
    obs::count(obs::Counter::kTwoPathFieldPops, field_pops_);
    obs::count(obs::Counter::kTwoPathKeysDeferred, deferred);
    obs::count(obs::Counter::kTwoPathKeysResolved, resolved);
    obs::count(obs::Counter::kTwoPathKeysDropped, dropped);
    obs::count(obs::Counter::kHeapRegrows,
               heap_.take_regrows() + field_heap_.take_regrows());
  }
  field_pops_ = 0;

  TwoPathRoute out;
  if (goal == static_cast<std::size_t>(-1)) {
    // The length rule made `to` unreachable (e.g. a blocked moat wider
    // than L).  Fall back to a pure-wire shortest path; the net will be
    // counted as a length failure by the re-buffering step.
    route::MazeRouter fallback(g_);
    out.tiles = fallback.shortest_path(from, to, wire_cost, floors.min());
    out.cost = kInf;
    return out;
  }

  out.cost = labels_[goal].dist;
  std::size_t s = goal;
  tile::TileId last = tile::kNoTile;
  while (true) {
    const auto t = static_cast<tile::TileId>(s >> shift);
    if (t != last) {
      out.tiles.push_back(t);
      last = t;
    }
    if (labels_[s].prev < 0) break;
    s = static_cast<std::size_t>(labels_[s].prev);
  }
  std::reverse(out.tiles.begin(), out.tiles.end());
  RABID_ASSERT(out.tiles.front() == from && out.tiles.back() == to);
  return out;
}

TwoPathRoute route_two_path(const tile::TileGraph& g, tile::TileId from,
                            tile::TileId to, std::int32_t L,
                            std::span<const double> wire_cost,
                            std::span<const double> buffer_cost,
                            double wire_weight,
                            const route::CutFloors& floors) {
  TwoPathSearch search(g);
  return search.route(from, to, L, wire_cost, buffer_cost, wire_weight,
                      floors);
}

TileTreeEditor::TileTreeEditor(const tile::TileGraph& g)
    : g_(g),
      sink_multiplicity_(static_cast<std::size_t>(g.tile_count()), 0),
      adj_(static_cast<std::size_t>(g.tile_count()), Arcs{{}, 0}),
      seen_(static_cast<std::size_t>(g.tile_count()), 0) {}

TileTreeEditor::TileTreeEditor(const route::RouteTree& tree,
                               const tile::TileGraph& g)
    : TileTreeEditor(g) {
  reset(tree);
}

void TileTreeEditor::reset(const route::RouteTree& tree) {
  for (const tile::TileId t : touched_) {
    adj_[static_cast<std::size_t>(t)].count = 0;
  }
  touched_.clear();
  for (const tile::TileId t : sink_tiles_) {
    sink_multiplicity_[static_cast<std::size_t>(t)] = 0;
  }
  sink_tiles_.clear();
  source_ = tree.node(tree.root()).tile;
  for (const route::RouteNode& n : tree.nodes()) {
    if (n.parent != route::kNoNode) {
      add_arc(n.tile, tree.node(n.parent).tile);
    }
    if (n.sink_count > 0) {
      std::int32_t& m = sink_multiplicity_[static_cast<std::size_t>(n.tile)];
      if (m == 0) sink_tiles_.push_back(n.tile);
      m += n.sink_count;
    }
  }
}

std::uint64_t TileTreeEditor::memory_bytes() const {
  return static_cast<std::uint64_t>(sink_multiplicity_.capacity()) *
             sizeof(std::int32_t) +
         static_cast<std::uint64_t>(adj_.capacity()) * sizeof(Arcs) +
         static_cast<std::uint64_t>(sink_tiles_.capacity() +
                                    touched_.capacity()) *
             sizeof(tile::TileId) +
         static_cast<std::uint64_t>(flat_.capacity()) * sizeof(Slot) +
         static_cast<std::uint64_t>(seen_.capacity()) * sizeof(std::uint32_t);
}

void TileTreeEditor::add_arc(tile::TileId a, tile::TileId b) {
  RABID_ASSERT(g_.edge_between(a, b) != tile::kNoEdge);
  Arcs& na = adj_[static_cast<std::size_t>(a)];
  const auto end_a = na.to.begin() + na.count;
  if (std::find(na.to.begin(), end_a, b) != end_a) return;  // already
  Arcs& nb = adj_[static_cast<std::size_t>(b)];
  if (na.count == 0) touched_.push_back(a);
  if (nb.count == 0) touched_.push_back(b);
  na.to[static_cast<std::size_t>(na.count++)] = b;
  nb.to[static_cast<std::size_t>(nb.count++)] = a;
}

void TileTreeEditor::remove_arc(tile::TileId a, tile::TileId b) {
  // Erase keeping insertion order: rebuild()'s BFS visits arcs in it.
  const auto erase = [](Arcs& arcs, tile::TileId t) {
    const auto end = arcs.to.begin() + arcs.count;
    const auto it = std::find(arcs.to.begin(), end, t);
    if (it == end) return false;
    std::copy(it + 1, end, it);
    --arcs.count;
    return true;
  };
  if (erase(adj_[static_cast<std::size_t>(a)], b)) {
    erase(adj_[static_cast<std::size_t>(b)], a);
  }
}

void TileTreeEditor::remove_path(tile::TileId head,
                                 std::span<const tile::TileId> interior,
                                 tile::TileId tail) {
  tile::TileId prev = head;
  for (const tile::TileId t : interior) {
    remove_arc(prev, t);
    prev = t;
  }
  remove_arc(prev, tail);
}

void TileTreeEditor::add_path(std::span<const tile::TileId> tiles) {
  for (std::size_t i = 1; i < tiles.size(); ++i) {
    add_arc(tiles[i - 1], tiles[i]);
  }
}

bool TileTreeEditor::in_tree(tile::TileId t) const {
  return t == source_ || sink_multiplicity_[static_cast<std::size_t>(t)] > 0 ||
         adj_[static_cast<std::size_t>(t)].count > 0;
}

void TileTreeEditor::prune(const std::function<bool(tile::TileId)>& keep) {
  // BFS from the source, flat_ being the queue; arcs closing a cycle are
  // dropped.
  ++epoch_;
  flat_.assign(1, Slot{source_, -1, 0, 0, 0, false});
  seen_[static_cast<std::size_t>(source_)] = epoch_;
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    const Arcs& arcs = adj_[static_cast<std::size_t>(flat_[i].tile)];
    flat_[i].first = static_cast<std::int32_t>(flat_.size());
    for (std::int32_t k = 0; k < arcs.count; ++k) {
      const tile::TileId v = arcs.to[static_cast<std::size_t>(k)];
      if (seen_[static_cast<std::size_t>(v)] == epoch_) continue;
      seen_[static_cast<std::size_t>(v)] = epoch_;
      flat_.push_back(Slot{v, static_cast<std::int32_t>(i), 0, 0, 0, false});
    }
    flat_[i].end = static_cast<std::int32_t>(flat_.size());
  }
  for (const tile::TileId t : sink_tiles_) {
    RABID_ASSERT_MSG(seen_[static_cast<std::size_t>(t)] == epoch_,
                     "rebuild lost a sink tile");
  }
  // Prune useless leaves bottom-up: reverse BFS order is children first.
  for (std::size_t i = flat_.size(); i-- > 0;) {
    Slot& s = flat_[i];
    s.kept = sink_multiplicity_[static_cast<std::size_t>(s.tile)] > 0 ||
             s.live > 0 || i == 0 || (keep && keep(s.tile));
    if (s.kept && i > 0) ++flat_[static_cast<std::size_t>(s.parent)].live;
  }
}

route::RouteTree TileTreeEditor::tree() const {
  route::RouteTree out(source_);
  std::vector<route::NodeId> node(flat_.size(), out.root());
  for (std::size_t i = 1; i < flat_.size(); ++i) {
    if (!flat_[i].kept) continue;
    node[i] = out.add_child(node[static_cast<std::size_t>(flat_[i].parent)],
                            flat_[i].tile);
  }
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    const std::int32_t sinks =
        sink_multiplicity_[static_cast<std::size_t>(flat_[i].tile)];
    for (std::int32_t s = 0; s < sinks; ++s) out.add_sink(node[i]);
  }
  return out;
}

std::pair<tile::TileId, tile::TileId> TileTreeEditor::first_two_path(
    std::span<const std::pair<tile::TileId, tile::TileId>> done,
    std::vector<tile::TileId>& interior) const {
  const auto kept_child = [&](std::size_t i) {
    auto c = static_cast<std::size_t>(flat_[i].first);
    while (!flat_[c].kept) ++c;
    return c;
  };
  for (std::size_t h = 0; h < flat_.size(); ++h) {
    if (!flat_[h].kept || !anchor(h)) continue;
    for (std::int32_t c = flat_[h].first; c < flat_[h].end; ++c) {
      if (!flat_[static_cast<std::size_t>(c)].kept) continue;
      interior.clear();
      std::size_t cur = static_cast<std::size_t>(c);
      while (!anchor(cur)) {
        interior.push_back(flat_[cur].tile);
        cur = kept_child(cur);
      }
      const std::pair key{flat_[h].tile, flat_[cur].tile};
      if (std::find(done.begin(), done.end(), key) == done.end()) return key;
    }
  }
  interior.clear();
  return {tile::kNoTile, tile::kNoTile};
}

std::size_t TileTreeEditor::two_path_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    if (flat_[i].kept && anchor(i)) {
      count += static_cast<std::size_t>(flat_[i].live);
    }
  }
  return count;
}

TwoPathRerouter::TwoPathRerouter(const tile::TileGraph& g)
    : search_(g), editor_(g) {}

route::RouteTree TwoPathRerouter::reroute(const route::RouteTree& tree,
                                          std::int32_t L,
                                          std::span<const double> wire_cost,
                                          std::span<const double> buffer_cost,
                                          double wire_weight,
                                          const route::CutFloors& floors) {
  // Costs may have moved since the last call: no field survives it.
  // Inside this call they hold still (the net stays uncommitted).
  search_.drop_field();
  editor_.reset(tree);
  editor_.prune();
  done_.clear();
  const std::size_t max_rips = 3 * editor_.two_path_count() + 4;
  for (std::size_t rip = 0; rip < max_rips; ++rip) {
    const auto key = editor_.first_two_path(done_, interior_);
    if (key.first == tile::kNoTile) break;
    done_.push_back(key);
    editor_.remove_path(key.first, interior_, key.second);
    const TwoPathRoute reroute = search_.route_keeping_field(
        key.second, key.first, L, wire_cost, buffer_cost, wire_weight,
        floors);
    editor_.add_path(reroute.tiles);
    editor_.prune();
  }
  return editor_.tree();
}

}  // namespace rabid::core
