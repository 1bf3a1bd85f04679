#pragma once

/// \file workloads.hpp
/// The three benchmark workloads (see README.md for why each exists).

#include "metrics.hpp"

namespace perfbench {

/// Closed loop, one thread: each pass plans the ten Table-I circuits.
Result run_table1(const Config& cfg);
/// Serial batch plans of scale10k, then independent 1% ECO steps.
Result run_scale(const Config& cfg);
/// In-process rabid_serve behind a loopback TCP transport, closed loop.
Result run_serve(const Config& cfg);

}  // namespace perfbench
