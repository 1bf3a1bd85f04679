#pragma once

/// \file io.hpp
/// Plain-text serialization of designs — the interchange format that
/// lets downstream users run RABID on their own floorplans and keep the
/// generated benchmarks under version control.
///
/// Format (line-oriented, '#' comments, whitespace-separated):
///
///   design NAME
///   outline LOX LOY HIX HIY
///   length_limit L
///   block NAME LOX LOY HIX HIY SITE_FRACTION
///   net NAME [length_limit [width]]
///     source X Y KIND [BLOCK]
///     sink X Y KIND [BLOCK]
///     ...
///   end
///
/// KIND is one of block/pad/free; BLOCK is the owning block index for
/// KIND == block.  Coordinates are micrometers.

#include <istream>
#include <ostream>
#include <string>

#include "core/status.hpp"
#include "netlist/design.hpp"

namespace rabid::netlist {

/// Writes `design` in the text format above.
void write_design(std::ostream& out, const Design& design);

/// The one design reader.  Grammar errors come back as a structured
/// Status carrying the offending 1-based line.  The outline, default
/// limit and blocks are checked as validate_design() checks them, and
/// each net is checked by validate_net() before it joins the design —
/// so a success here is a design the planner can safely consume.  Never
/// aborts, never exhibits UB (non-finite or out-of-range numeric fields
/// are parse errors, not casts).  Callers that trust their input take
/// value(), which aborts on an error.
core::Result<Design> read_design_checked(std::istream& in);

/// Convenience: round-trip through a string.
std::string to_string(const Design& design);
core::Result<Design> design_from_string_checked(const std::string& text);

}  // namespace rabid::netlist
