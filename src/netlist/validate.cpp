#include "netlist/validate.hpp"

#include <cmath>
#include <string>
#include <unordered_set>

namespace rabid::netlist {

namespace {

using core::Status;

/// Largest coordinate magnitude a design may use, far beyond any chip.
/// A finite but extreme outline (say lo.y = -1e308) still overflows the
/// tile graph's derived geometry, such as extents scaled by a tile
/// count, to infinity and NaN; below this bound every such product
/// stays finite.
constexpr double kMaxCoordinate = 1e12;

/// Finite and within kMaxCoordinate (NaN fails both comparisons).
bool in_range(const geom::Point& p) {
  return std::abs(p.x) <= kMaxCoordinate && std::abs(p.y) <= kMaxCoordinate;
}

bool in_range_rect(const geom::Rect& r) {
  return in_range(r.lo()) && in_range(r.hi());
}

/// Exact-location key for duplicate-pin detection.  Bit-exact equality
/// is intentional: two sinks only collide when a generator or file
/// literally repeated a pin, which is what we want to flag.
struct PointKey {
  double x, y;
  bool operator==(const PointKey& o) const { return x == o.x && y == o.y; }
};

struct PointKeyHash {
  std::size_t operator()(const PointKey& k) const {
    const std::hash<double> h;
    return h(k.x) * 31 + h(k.y);
  }
};

Status check_pin(const Design& design, const Pin& pin, const std::string& net,
                 const char* role) {
  if (!in_range(pin.location)) {
    return Status::invalid_input(
        "net '" + net + "' " + role +
            " has a non-finite or out-of-range coordinate",
        "design");
  }
  if (!design.outline().contains(pin.location)) {
    return Status::invalid_input(
        "net '" + net + "' " + role + " at (" +
            std::to_string(pin.location.x) + ", " +
            std::to_string(pin.location.y) + ") lies outside the outline",
        "design");
  }
  if (pin.kind == PinKind::kBlock) {
    if (pin.block < 0 ||
        static_cast<std::size_t>(pin.block) >= design.blocks().size()) {
      return Status::invalid_input("net '" + net + "' " + role +
                                       " references unknown block " +
                                       std::to_string(pin.block),
                                   "design");
    }
  }
  return Status::ok();
}

}  // namespace

Status validate_design(const Design& design) {
  const geom::Rect& outline = design.outline();
  if (!in_range_rect(outline)) {
    return Status::invalid_input(
        "outline has a non-finite or out-of-range coordinate", "design");
  }
  if (!(outline.hi().x > outline.lo().x) ||
      !(outline.hi().y > outline.lo().y)) {
    return Status::invalid_input("outline is degenerate (hi must exceed lo)",
                                 "design");
  }
  if (design.default_length_limit() < 1) {
    return Status::invalid_input("default length_limit must be >= 1",
                                 "design");
  }
  for (const Block& b : design.blocks()) {
    if (!in_range_rect(b.shape)) {
      return Status::invalid_input(
          "block '" + b.name +
              "' has a non-finite or out-of-range coordinate", "design");
    }
    if (!outline.intersects(b.shape)) {
      return Status::invalid_input(
          "block '" + b.name + "' lies entirely outside the outline",
          "design");
    }
    if (!std::isfinite(b.site_fraction) || b.site_fraction < 0.0 ||
        b.site_fraction > 1.0) {
      return Status::invalid_input(
          "block '" + b.name + "' site_fraction must be in [0,1]", "design");
    }
  }
  std::unordered_set<PointKey, PointKeyHash> sink_locations;
  for (NetId id = 0; static_cast<std::size_t>(id) < design.nets().size();
       ++id) {
    const Net& n = design.net(id);
    if (n.name.empty()) {
      return Status::invalid_input("net with empty name", "design");
    }
    if (n.sinks.empty()) {
      return Status::invalid_input("net '" + n.name + "' has no sinks",
                                   "design");
    }
    if (n.width < 1) {
      return Status::invalid_input("net '" + n.name + "' width must be >= 1",
                                   "design");
    }
    if (n.length_limit < 0) {
      return Status::invalid_input(
          "net '" + n.name + "' length_limit must be >= 0", "design");
    }
    if (design.length_limit(id) < 1) {
      return Status::invalid_input(
          "net '" + n.name + "' has no effective length limit", "design");
    }
    if (Status s = check_pin(design, n.source, n.name, "source"); !s) return s;
    sink_locations.clear();
    for (const Pin& p : n.sinks) {
      if (Status s = check_pin(design, p, n.name, "sink"); !s) return s;
      if (!sink_locations.insert({p.location.x, p.location.y}).second) {
        return Status::invalid_input(
            "net '" + n.name + "' has duplicate sink pins at (" +
                std::to_string(p.location.x) + ", " +
                std::to_string(p.location.y) + ")",
            "design");
      }
    }
  }
  return Status::ok();
}

Status validate_incoming_net(const geom::Rect& outline, const Net& net,
                             const std::string& what,
                             const std::string& field) {
  const std::string name = what + " net '" + net.name + "'";
  if (net.sinks.empty()) {
    return Status::invalid_input(name + " has no sinks", field);
  }
  if (net.width < 1) {
    return Status::invalid_input(name + " has a non-positive wire width",
                                 field);
  }
  if (net.length_limit < 0) {
    return Status::invalid_input(name + " has a negative length limit", field);
  }
  if (!outline.contains(net.source.location)) {
    return Status::invalid_input(
        name + " drives from outside the chip outline", field);
  }
  for (const Pin& pin : net.sinks) {
    if (!outline.contains(pin.location)) {
      return Status::invalid_input(
          name + " has a sink outside the chip outline", field);
    }
  }
  return Status::ok();
}

}  // namespace rabid::netlist
