#include "alloc/factory.hpp"

#include <utility>

#include "bbp/bbp.hpp"
#include "core/rabid.hpp"

namespace rabid::alloc {

core::Result<std::unique_ptr<core::Allocator>> make_allocator(
    core::Backend backend, const netlist::Design& design,
    tile::TileGraph& graph, AllocatorConfig config) {
  const std::string name(core::backend_name(backend));
  if (backend != core::Backend::kRabid && config.rabid.deadline_ms != 0.0) {
    return core::Status::invalid_input(
        "backend '" + name + "' does not support deadlines",
        "allocator config");
  }
  switch (backend) {
    case core::Backend::kRabid:
      return std::unique_ptr<core::Allocator>(std::make_unique<core::Rabid>(
          design, graph, std::move(config.rabid)));
    case core::Backend::kBbp:
      for (const netlist::Net& net : design.nets()) {
        if (net.sinks.size() > 1) {
          return core::Status::invalid_input(
              "backend 'bbp' requires a two-pin design (net '" + net.name +
                  "' has " + std::to_string(net.sinks.size()) +
                  " sinks); decompose_to_two_pin first",
              "allocator config");
        }
      }
      return std::unique_ptr<core::Allocator>(std::make_unique<
          bbp::BbpAllocator>(design, graph, std::move(config.rabid)));
    case core::Backend::kMcf:
      return std::unique_ptr<core::Allocator>(
          std::make_unique<mcf::McfAllocator>(design, graph,
                                              std::move(config.rabid),
                                              config.mcf));
  }
  return core::Status::internal("unknown backend");
}

}  // namespace rabid::alloc
