#pragma once

/// \file validate.hpp
/// Semantic validation of a Design beyond what the parser's grammar can
/// see: finite geometry, pins inside the outline, duplicate sink pins,
/// in-range block references.  Returns a structured core::Status instead
/// of asserting, so hostile inputs (fuzzed circuits, user files) can be
/// rejected without tearing down the process.
///
/// Relationship to Design::check_invariants(): check_invariants() is the
/// internal abort-on-violation contract check for trusted in-process
/// construction; validate_design() is the *boundary* check for data that
/// crossed a parse or came from an untrusted caller.  Every condition
/// check_invariants() asserts is also reported here.

#include <string>

#include "core/status.hpp"
#include "netlist/design.hpp"

namespace rabid::netlist {

/// Full semantic validation; the first violation found is returned.
core::Status validate_design(const Design& design);

/// Admission check for one net joining a planned design (an ECO's moved
/// or added net, a streamed net): at least one sink, a positive wire
/// width, a non-negative length limit, and every pin inside `outline`.
/// The message names the net as "<what> net '<name>'"; `field` is the
/// Status context.
core::Status validate_incoming_net(const geom::Rect& outline, const Net& net,
                                   const std::string& what,
                                   const std::string& field);

}  // namespace rabid::netlist
