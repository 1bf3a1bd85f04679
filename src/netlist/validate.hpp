#pragma once

/// \file validate.hpp
/// The one input contract for designs and nets.  validate_net() is the
/// rule every net must meet to join a design, wherever it comes from:
/// a design file (read_design_checked), a caller's Design
/// (validate_design), an ECO's moved or added net
/// (eco::IncrementalPlanner) and a streamed net (eco::StreamPlanner).
/// Both return a structured core::Status instead of asserting, so
/// hostile inputs (fuzzed circuits, user files, daemon requests) are
/// rejected without tearing down the process.
///
/// Repeated sink locations are valid: the router folds them into one
/// tree sink whose multiplicity is the sink count (route/maze.hpp), and
/// an ECO pin move can itself snap two sinks onto one tile centre.
///
/// Design::add_net / add_block keep their precondition asserts as the
/// contract for trusted in-process construction.

#include <string>

#include "core/status.hpp"
#include "netlist/design.hpp"

namespace rabid::netlist {

/// Full semantic validation: a finite, non-degenerate outline, a default
/// length limit >= 1, blocks that are finite and touch the outline, then
/// validate_net() for every net.  The first violation found is returned.
/// (A block's site fraction needs no check here: Design::add_block
/// asserts it, and the design reader rejects a bad one as it parses.)
core::Status validate_design(const Design& design);

/// Checks `net` against the design it joins: a non-empty name, at least
/// one sink, width >= 1, a length limit >= 0 and an effective limit
/// >= 1 under `host`'s default, every pin finite, in range and inside
/// `host`'s outline, and every block pin naming one of `host`'s blocks.
/// The message names the net as "<label> net '<name>'" (or "net
/// '<name>'" for an empty label); `field` is the Status context.
core::Status validate_net(const Design& host, const Net& net,
                          const std::string& label, const std::string& field);

}  // namespace rabid::netlist
