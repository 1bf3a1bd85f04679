#pragma once

/// \file mcf.hpp
/// Multicommodity-flow buffered global routing — the third Allocator
/// backend, after the Albrecht–Kahng–Măndoiu–Zelikovsky formulation
/// (PAPERS.md, arXiv:cs/0508045): buffered routing as a fractional MCF
/// over the tile graph, solved epsilon-approximately by multiplicative
/// price updates against per-net *buffered-path oracles*, then made
/// integral by randomized rounding plus hard-capacity legalization.
///
/// Resources carry dual prices: one per tile-graph edge (wire capacity
/// W(e)) and one per tile (buffer-site supply B(v)), initialized to
/// 1/capacity.  Each fractional phase:
///
///   1. freezes a price snapshot;
///   2. runs the oracle for every net against the frozen prices — a
///      Prim-Dijkstra wavefront route under the wire prices followed by
///      the length-rule buffer DP under the site prices, i.e. the
///      cheapest *buffered* tree at current prices (this is where the
///      formulation meets the paper's eq. 1/eq. 2 machinery: the same
///      router and the same DP, fed prices instead of congestion);
///   3. pools the oracle trees into each net's candidate list (counts
///      are the fractional weights: a candidate chosen in k of P phases
///      carries flow k/P);
///   4. bumps every price multiplicatively by its resource's phase
///      usage: price *= 1 + epsilon * usage / capacity.
///
/// Phase updates are Jacobi-style — all oracle calls in a phase read the
/// same frozen snapshot — so step 2 parallelizes over fixed-size net
/// blocks on the ThreadPool with bit-identical results at any thread
/// count (same contract as stages 1-3: parallel work into pre-sized
/// slots, serial merges in net order, integer usage accumulation).
///
/// Rounding draws each net's candidate with probability count/P from a
/// per-net PCG32 stream (seeded by net id — thread-count independent),
/// then a serial legalization pass commits nets in net order under HARD
/// capacity: a candidate that would overflow w(e) or b(v) is skipped for
/// the net's next-best candidate, and a net with no fitting candidate is
/// rerouted fresh against live congestion (eq. 1 soft costs, eq. 2 site
/// costs — site-full tiles are infinite, so b(v) <= B(v) by
/// construction).  A bounded repair loop then rips up and reroutes any
/// net still riding an overflowed edge.  MCF therefore targets the same
/// hard-capacity guarantee as RABID, and it keeps the base class's
/// audit_options(): overflow is an error.

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/insertion.hpp"
#include "core/allocator.hpp"
#include "core/audit.hpp"
#include "core/run_report.hpp"
#include "route/maze.hpp"
#include "util/thread_pool.hpp"

namespace rabid::mcf {

struct McfOptions {
  /// Multiplicative price-update aggressiveness (the epsilon of the
  /// approximation guarantee; smaller = more phases needed).
  double epsilon = 0.25;
  /// Fractional phases P (each runs the oracle once per net).
  std::int32_t phases = 8;
  /// Seed for the per-net rounding streams (net id is mixed in, so one
  /// seed drives the whole design deterministically).
  std::uint64_t round_seed = 0x8d1f3a0b24c96e57ULL;
};

class McfAllocator final : public core::Allocator {
 public:
  /// Graph capacities must be set and its usage books empty; honored
  /// RabidOptions: pd_alpha, threads, tech, buffer_library, audit_level
  /// (final audit), obs_level.  Deadlines and checkpoints are
  /// unsupported (alloc/factory.hpp rejects a deadline).
  McfAllocator(const netlist::Design& design, tile::TileGraph& graph,
               core::RabidOptions options = {}, McfOptions mcf = {});

  core::Backend backend() const override { return core::Backend::kMcf; }
  std::vector<core::StageStats> plan() override;

 private:
  /// One integral per-net solution with its fractional weight.
  struct Candidate {
    route::RouteTree tree;
    buffer::InsertionResult insertion;  ///< the DP's buffering of `tree`
    std::int32_t count = 0;             ///< phases that produced this
  };
  /// One oracle invocation's raw output (pre-dedup).
  struct OracleResult {
    route::RouteTree tree;
    buffer::InsertionResult insertion;
  };

  /// Steps 1-4 for one phase: frozen-price parallel oracle sweep, then
  /// serial candidate pooling + usage accumulation + price bump.
  void run_phase(util::ThreadPool* pool);
  /// True when `cand` fits the live books with hard capacity.
  bool fits(const netlist::NetId id, const Candidate& cand) const;

  McfOptions mcf_;

  std::vector<double> wire_price_;
  std::vector<double> site_price_;
  std::vector<std::vector<Candidate>> candidates_;  ///< per net
};

}  // namespace rabid::mcf
