#pragma once

/// \file brute_force.hpp
/// Exhaustive reference implementation of length-based buffer insertion,
/// used only by tests to certify the DP's optimality on small trees.
///
/// Enumerates every subset of candidate buffer slots (a decoupling slot
/// per tree arc, a driving slot per multi-child node; never the root
/// tile), checks the total-driven-length rule for the driver and every
/// buffer, and returns the cheapest legal configuration.

#include <cstdint>
#include <span>

#include "buffer/frontier.hpp"
#include "buffer/insertion.hpp"

namespace rabid::buffer {

/// Exhaustive optimum. Practical only for trees with ~12 or fewer slots.
InsertionResult brute_force_insert(const route::RouteTree& tree,
                                   std::int32_t L, const TileCostFn& q);

/// True iff `buffers` on `tree` satisfies the rule: every gate (driver
/// included) drives at most L tile-units of wire.  The unit-library case
/// of placement_is_legal_lib; shared by the auditor, BBP and the tests
/// that check DP outputs on trees too large to enumerate.
bool placement_is_legal(const route::RouteTree& tree,
                        const route::BufferList& buffers, std::int32_t L);

/// Total q-cost of a buffer list.
double placement_cost(const route::RouteTree& tree,
                      const route::BufferList& buffers, const TileCostFn& q);

/// Multi-type legality: buffer i (library type types[i]) may drive at
/// most lib.drive_limit(types[i], L) tile-units; the net driver always
/// obeys the plain L.  `types` parallels `buffers`; empty means all
/// type 0.
bool placement_is_legal_lib(const route::RouteTree& tree,
                            const route::BufferList& buffers,
                            std::span<const std::int32_t> types,
                            std::int32_t L, const BufferLibrary& lib);

/// Total scaled site cost: sum of cost_scale_{types[i]} * q(tile_i).
double placement_cost_lib(const route::RouteTree& tree,
                          const route::BufferList& buffers,
                          std::span<const std::int32_t> types,
                          const TileCostFn& q, const BufferLibrary& lib);

/// Exhaustive multi-type optimum: every slot independently empty or one
/// of the b types, (b+1)^slots combinations.  Tiny trees only.
InsertionResult brute_force_insert_lib(const route::RouteTree& tree,
                                       std::int32_t L, const TileCostFn& q,
                                       const BufferLibrary& lib);

/// The exhaustive root frontier: every placement whose *buffers* all
/// obey their type limits (the net driver left unconstrained) yields a
/// (root load, cost) state; states beyond the DP's load cap
/// max(L, lib.max_drive_limit(L)) are dead and dropped; the rest are
/// dominance-pruned.  The oracle battery compares this state-for-state
/// against the candidate DP's root frontier.
Frontier brute_force_frontier_lib(const route::RouteTree& tree,
                                  std::int32_t L, const TileCostFn& q,
                                  const BufferLibrary& lib);

}  // namespace rabid::buffer
