#pragma once

/// \file design.hpp
/// The floorplan-level design model RABID plans on: a chip outline, hard
/// macro blocks, I/O pads, and global nets (one driver pin, >= 1 sink pins).
///
/// This is deliberately an *early-planning* model: no standard cells, no
/// layers, no detailed pin shapes.  Pins are points; blocks are rectangles
/// whose only planning-relevant property is whether buffer sites may live
/// inside them.

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace rabid::netlist {

using BlockId = std::int32_t;
using NetId = std::int32_t;
constexpr BlockId kNoBlock = -1;

/// A hard macro block in the floorplan.
struct Block {
  std::string name;
  geom::Rect shape;
  /// Fraction of the block's area its designer agreed to devote to buffer
  /// sites (the paper's "hole in a macro" methodology, Section I-B).
  /// 0 means the block is off-limits (cache / datapath-like).
  double site_fraction = 0.0;
};

/// Where a pin sits: on a block boundary, on an I/O pad, or free-standing
/// (used by synthetic circuits and unit tests).
enum class PinKind : std::uint8_t { kBlock, kPad, kFree };

/// A net terminal.
struct Pin {
  geom::Point location;
  PinKind kind = PinKind::kFree;
  BlockId block = kNoBlock;  ///< owning block for kBlock pins
};

/// A global signal net: one driver and one or more sinks.
struct Net {
  std::string name;
  Pin source;
  std::vector<Pin> sinks;
  /// Length constraint L_i in tile units: the maximum total interconnect
  /// any one gate (driver or buffer) on this net may drive.  0 means
  /// "use the design default".
  std::int32_t length_limit = 0;
  /// Wire width class: each route arc consumes `width` units of edge
  /// capacity; the RC model scales accordingly (footnote 4 pairs wider
  /// wires with larger L_i).
  std::int32_t width = 1;
};

/// A complete early-planning design.
class Design {
 public:
  Design() = default;
  explicit Design(std::string name, geom::Rect outline)
      : name_(std::move(name)), outline_(outline) {}

  const std::string& name() const { return name_; }
  const geom::Rect& outline() const { return outline_; }

  BlockId add_block(Block b);
  NetId add_net(Net n);

  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Net>& nets() const { return nets_; }
  std::vector<Net>& mutable_nets() { return nets_; }
  const Block& block(BlockId id) const { return blocks_.at(static_cast<std::size_t>(id)); }
  const Net& net(NetId id) const { return nets_.at(static_cast<std::size_t>(id)); }

  /// Default L_i applied to nets whose length_limit is 0.
  std::int32_t default_length_limit() const { return default_length_limit_; }
  void set_default_length_limit(std::int32_t l) { default_length_limit_ = l; }
  /// Effective L_i for a net.
  std::int32_t length_limit(NetId id) const {
    const std::int32_t l = net(id).length_limit;
    return l > 0 ? l : default_length_limit_;
  }

  /// Total number of sink pins across all nets.
  std::size_t total_sinks() const;
  /// Number of pins with kind kPad.
  std::size_t pad_count() const;

  /// Splits every multi-sink net into independent two-pin (source, sink)
  /// nets, as done for the BBP/FR comparison (Section IV-C).  Net names
  /// get a "/k" suffix.
  static Design decompose_to_two_pin(const Design& d);

 private:
  std::string name_;
  geom::Rect outline_;
  std::vector<Block> blocks_;
  std::vector<Net> nets_;
  std::int32_t default_length_limit_ = 6;
};

}  // namespace rabid::netlist
