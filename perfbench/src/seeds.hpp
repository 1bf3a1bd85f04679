#pragma once

/// \file seeds.hpp
/// Seeded streams for the benchmark workloads, and the seed-to-instance
/// mapping for renamed circuits.
///
/// The workloads plan the canonical circuits and draw plan orders, ECO
/// perturbations and job orders from the seed (derive_seed,
/// seeded_order).  The circuit generator seeds every random stream from
/// the circuit *name* (circuits/generator.cpp), so a renamed copy of a
/// CircuitSpec draws a new floorplan and netlist with exactly the
/// published statistics — cells, nets, pads, sinks, grid, L_i and sites.
/// Seed 0 keeps the canonical names (the Table-I goldens); seed s
/// appends "-s<s>" ("apte" -> "apte-s7").  No workload plans renamed
/// copies yet (README.md, "Seeds and instances").

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/specs.hpp"

namespace perfbench {

/// "apte" at seed 0, "apte-s7" at seed 7.
std::string seeded_name(std::string_view base, std::uint64_t seed);

/// Owned, renamed copies of a list of specs.  CircuitSpec::name is a
/// string_view, so each copy keeps its name in a heap node that never
/// moves.
class SeededCircuits {
 public:
  SeededCircuits(std::span<const rabid::circuits::CircuitSpec> base,
                 std::uint64_t seed);

  std::size_t size() const { return entries_.size(); }
  const rabid::circuits::CircuitSpec& operator[](std::size_t i) const {
    return entries_[i]->spec;
  }

 private:
  struct Entry {
    std::string name;
    rabid::circuits::CircuitSpec spec;
  };
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Derives an independent 64-bit seed from (seed, index) — splitmix64
/// over the pair — for per-step and per-job streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// A seeded permutation of 0..n-1 (Fisher-Yates over derive_seed).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
