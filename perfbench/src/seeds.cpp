#include "seeds.hpp"

namespace perfbench {

std::string seeded_name(std::string_view base, std::uint64_t seed) {
  std::string name(base);
  if (seed != 0) name += "-s" + std::to_string(seed);
  return name;
}

SeededCircuits::SeededCircuits(
    std::span<const rabid::circuits::CircuitSpec> base, std::uint64_t seed) {
  entries_.reserve(base.size());
  for (const rabid::circuits::CircuitSpec& spec : base) {
    auto entry = std::make_unique<Entry>();
    entry->name = seeded_name(spec.name, seed);
    entry->spec = spec;
    entry->spec.name = entry->name;
    entries_.push_back(std::move(entry));
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = derive_seed(seed, i) % i;
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace perfbench
