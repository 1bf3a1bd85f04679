#include "netlist/validate.hpp"

#include <cmath>
#include <string>

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

Status check_pin(const Design& host, const Pin& pin, const std::string& net,
                 const char* role, const std::string& field) {
  if (!in_range(pin.location)) {
    return Status::invalid_input(
        net + " " + role + " has a non-finite or out-of-range coordinate",
        field);
  }
  if (!host.outline().contains(pin.location)) {
    return Status::invalid_input(
        net + " " + role + " at (" + std::to_string(pin.location.x) + ", " +
            std::to_string(pin.location.y) + ") lies outside the outline",
        field);
  }
  if (pin.kind == PinKind::kBlock &&
      (pin.block < 0 ||
       static_cast<std::size_t>(pin.block) >= host.blocks().size())) {
    return Status::invalid_input(net + " " + role +
                                     " references unknown block " +
                                     std::to_string(pin.block),
                                 field);
  }
  return Status::ok();
}

}  // namespace

Status validate_net(const Design& host, const Net& net,
                    const std::string& label, const std::string& field) {
  const std::string name =
      (label.empty() ? "" : label + " ") + "net '" + net.name + "'";
  if (net.name.empty()) {
    return Status::invalid_input(name + " has an empty name", field);
  }
  if (net.sinks.empty()) {
    return Status::invalid_input(name + " has no sinks", field);
  }
  if (net.width < 1) {
    return Status::invalid_input(name + " width must be >= 1", field);
  }
  if (net.length_limit < 0) {
    return Status::invalid_input(name + " length_limit must be >= 0", field);
  }
  const std::int32_t effective_limit = net.length_limit > 0
                                           ? net.length_limit
                                           : host.default_length_limit();
  if (effective_limit < 1) {
    return Status::invalid_input(name + " has no effective length limit",
                                 field);
  }
  if (Status s = check_pin(host, net.source, name, "source", field); !s) {
    return s;
  }
  for (const Pin& p : net.sinks) {
    if (Status s = check_pin(host, p, name, "sink", field); !s) return s;
  }
  return Status::ok();
}

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
  }
  for (const Net& n : design.nets()) {
    if (Status s = validate_net(design, n, "", "design"); !s) return s;
  }
  return Status::ok();
}

}  // namespace rabid::netlist
