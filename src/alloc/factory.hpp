#pragma once

/// \file factory.hpp
/// Backend selection behind one checked entry point.
///
/// The factory is the only place that knows every concrete Allocator,
/// so it lives above core/bbp/mcf in its own target (rabid_alloc) and
/// the callers that take a backend *name* — rabid_cli, rabid_serve,
/// backend_compare — link this instead of each backend library.
///
/// make_allocator validates the configuration against the backend's
/// capability contract before constructing anything: deadlines are
/// RABID-only, and BBP/FR additionally requires a two-pin design
/// (callers decompose first — see netlist::decompose_to_two_pin).
/// Violations come back as kInvalidInput Statuses, not asserts: a serve
/// job or CLI flag combo must map to an exit code, not an abort.

#include <memory>

#include "core/allocator.hpp"
#include "core/audit.hpp"
#include "core/run_report.hpp"
#include "core/status.hpp"
#include "mcf/mcf.hpp"

namespace rabid::alloc {

/// Options a backend name travels with (extends RabidOptions with the
/// MCF knobs; BBP tuning stays at its defaults — the baseline is a
/// fixed yardstick).
struct AllocatorConfig {
  core::RabidOptions rabid;
  mcf::McfOptions mcf;
};

/// Constructs the backend, or explains why the configuration is
/// invalid.  `graph` must have capacities set and empty usage books.
core::Result<std::unique_ptr<core::Allocator>> make_allocator(
    core::Backend backend, const netlist::Design& design,
    tile::TileGraph& graph, AllocatorConfig config = {});

}  // namespace rabid::alloc
