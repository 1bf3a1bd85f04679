#include "netlist/design.hpp"

#include "util/assert.hpp"

namespace rabid::netlist {

BlockId Design::add_block(Block b) {
  RABID_ASSERT_MSG(b.site_fraction >= 0.0 && b.site_fraction <= 1.0,
                   "block site_fraction must be in [0,1]");
  blocks_.push_back(std::move(b));
  return static_cast<BlockId>(blocks_.size()) - 1;
}

NetId Design::add_net(Net n) {
  RABID_ASSERT_MSG(!n.sinks.empty(), "a net needs at least one sink");
  nets_.push_back(std::move(n));
  return static_cast<NetId>(nets_.size()) - 1;
}

std::size_t Design::total_sinks() const {
  std::size_t total = 0;
  for (const Net& n : nets_) total += n.sinks.size();
  return total;
}

std::size_t Design::pad_count() const {
  std::size_t total = 0;
  for (const Net& n : nets_) {
    if (n.source.kind == PinKind::kPad) ++total;
    for (const Pin& p : n.sinks) {
      if (p.kind == PinKind::kPad) ++total;
    }
  }
  return total;
}

Design Design::decompose_to_two_pin(const Design& d) {
  Design out{d.name() + "-2pin", d.outline()};
  out.set_default_length_limit(d.default_length_limit());
  for (const Block& b : d.blocks()) out.add_block(b);
  for (const Net& n : d.nets()) {
    int k = 0;
    for (const Pin& sink : n.sinks) {
      Net two;
      two.name = n.name + "/" + std::to_string(k++);
      two.source = n.source;
      two.sinks = {sink};
      two.length_limit = n.length_limit;
      two.width = n.width;
      out.add_net(std::move(two));
    }
  }
  return out;
}

}  // namespace rabid::netlist
