#include "circuits/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "circuits/floorplan.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rabid::circuits {

namespace {

/// A point on a block's boundary: random side, random offset.
geom::Point boundary_point(const geom::Rect& r, util::Rng& rng) {
  const double t = rng.uniform();
  switch (rng.uniform_int(0, 3)) {
    case 0: return {r.lo().x + t * r.width(), r.lo().y};   // south
    case 1: return {r.lo().x + t * r.width(), r.hi().y};   // north
    case 2: return {r.lo().x, r.lo().y + t * r.height()};  // west
    default: return {r.hi().x, r.lo().y + t * r.height()}; // east
  }
}

/// Evenly spaced pad locations around the die periphery (with jitter),
/// nudged inward so they map to boundary tiles cleanly.
std::vector<geom::Point> pad_ring(const geom::Rect& die, std::int32_t count,
                                  util::Rng& rng) {
  std::vector<geom::Point> pads;
  pads.reserve(static_cast<std::size_t>(count));
  const double w = die.width();
  const double h = die.height();
  const double perimeter = 2.0 * (w + h);
  const double inset = std::min(w, h) * 1e-3;
  const double start = rng.uniform() * perimeter;
  for (std::int32_t i = 0; i < count; ++i) {
    const double jitter = (rng.uniform() - 0.5) * 0.5;
    double d = std::fmod(
        start + (static_cast<double>(i) + jitter + 0.5) * perimeter /
                    static_cast<double>(count),
        perimeter);
    geom::Point p;
    if (d < w) {
      p = {die.lo().x + d, die.lo().y + inset};
    } else if (d < w + h) {
      p = {die.hi().x - inset, die.lo().y + (d - w)};
    } else if (d < 2.0 * w + h) {
      p = {die.hi().x - (d - w - h), die.hi().y - inset};
    } else {
      p = {die.lo().x + inset, die.hi().y - (d - 2.0 * w - h)};
    }
    p.x = std::clamp(p.x, die.lo().x, die.hi().x);
    p.y = std::clamp(p.y, die.lo().y, die.hi().y);
    pads.push_back(p);
  }
  return pads;
}

/// Partitions `total_sinks` over `nets` nets: every net gets one sink,
/// extras are spread with a heavy tail (half uniformly, half onto nets
/// that already fan out) so a few bus-like nets emerge, as in the MCNC
/// netlists.
std::vector<std::int32_t> sink_counts(std::int32_t nets,
                                      std::int32_t total_sinks,
                                      util::Rng& rng) {
  RABID_ASSERT(total_sinks >= nets);
  std::vector<std::int32_t> counts(static_cast<std::size_t>(nets), 1);
  std::vector<std::int32_t> fat;  // nets with >= 2 sinks
  for (std::int32_t extra = total_sinks - nets; extra > 0; --extra) {
    std::size_t pick;
    if (!fat.empty() && rng.chance(0.5)) {
      pick = static_cast<std::size_t>(
          fat[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(fat.size()) - 1))]);
    } else {
      pick = static_cast<std::size_t>(rng.uniform_int(0, nets - 1));
    }
    if (counts[pick] == 1) fat.push_back(static_cast<std::int32_t>(pick));
    ++counts[pick];
  }
  return counts;
}

/// The scale-family netlist model: sources uniform over the die, sinks
/// at Pareto-distributed distances (Rent's-rule-flavored locality — most
/// connections span a few tiles, a heavy tail crosses many), plus a
/// small fraction of chip-spanning "global" nets.  All pins are free-
/// standing points: at 10^5-10^6 nets the block-boundary model of the
/// Table-I generator adds nothing but generation cost.
netlist::Design generate_scale_design(const CircuitSpec& spec) {
  util::Rng rng(spec.name);
  const geom::Rect die = geom::Rect::from_size(
      {0.0, 0.0}, spec.chip_width_um(), spec.chip_height_um());

  netlist::Design design{std::string(spec.name), die};
  design.set_default_length_limit(spec.length_limit);

  const std::vector<geom::Rect> shapes =
      slicing_floorplan(die, spec.cells, rng);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    design.add_block({std::string(spec.name) + "_b" + std::to_string(i),
                      shapes[i], /*site_fraction=*/0.05});
  }

  const std::vector<std::int32_t> fanouts =
      sink_counts(spec.nets, spec.sinks, rng);
  const double tile_side = std::sqrt(spec.tile_area_mm2) * 1000.0;  // um
  // Pareto(alpha=1.6, min=0.75 tiles): mean ~2 tiles, tail past L_i so
  // a realistic minority of nets genuinely needs buffers; capped at a
  // third of the die so locality survives the tail.
  constexpr double kParetoAlpha = 1.6;
  constexpr double kMinTiles = 0.75;
  constexpr double kGlobalNetFraction = 0.02;
  const double cap_um =
      std::min(die.width(), die.height()) / 3.0;
  auto uniform_point = [&]() -> geom::Point {
    return {die.lo().x + rng.uniform() * die.width(),
            die.lo().y + rng.uniform() * die.height()};
  };
  auto nearby_point = [&](const geom::Point& from) -> geom::Point {
    const double u = rng.uniform();
    double r_um =
        kMinTiles * tile_side * std::pow(1.0 - u, -1.0 / kParetoAlpha);
    r_um = std::min(r_um, cap_um);
    const double theta = rng.uniform() * 2.0 * 3.14159265358979323846;
    geom::Point p{from.x + r_um * std::cos(theta),
                  from.y + r_um * std::sin(theta)};
    // Reflect off the die edges rather than clamping: clamping piles
    // coincident pins onto the boundary, tripping the duplicate-sink
    // invariant.  One bounce suffices since r is capped at a third of
    // the die and `from` is interior.
    if (p.x < die.lo().x) p.x = 2.0 * die.lo().x - p.x;
    if (p.x > die.hi().x) p.x = 2.0 * die.hi().x - p.x;
    if (p.y < die.lo().y) p.y = 2.0 * die.lo().y - p.y;
    if (p.y > die.hi().y) p.y = 2.0 * die.hi().y - p.y;
    return p;
  };

  for (std::int32_t i = 0; i < spec.nets; ++i) {
    netlist::Net net;
    net.name = std::string(spec.name) + "_n" + std::to_string(i);
    const bool global_net = rng.chance(kGlobalNetFraction);
    const geom::Point src = uniform_point();
    net.source = {src, netlist::PinKind::kFree, netlist::kNoBlock};
    const std::int32_t fan = fanouts[static_cast<std::size_t>(i)];
    net.sinks.reserve(static_cast<std::size_t>(fan));
    for (std::int32_t s = 0; s < fan; ++s) {
      const geom::Point at = global_net ? uniform_point() : nearby_point(src);
      net.sinks.push_back({at, netlist::PinKind::kFree, netlist::kNoBlock});
    }
    design.add_net(std::move(net));
  }

  return design;
}

}  // namespace

netlist::Design generate_design(const CircuitSpec& spec) {
  if (spec.scale) return generate_scale_design(spec);
  util::Rng rng(spec.name);
  const geom::Rect die = geom::Rect::from_size(
      {0.0, 0.0}, spec.chip_width_um(), spec.chip_height_um());

  netlist::Design design{std::string(spec.name), die};
  design.set_default_length_limit(spec.length_limit);

  const std::vector<geom::Rect> shapes =
      slicing_floorplan(die, spec.cells, rng);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    design.add_block({std::string(spec.name) + "_b" + std::to_string(i),
                      shapes[i], /*site_fraction=*/0.05});
  }

  const std::vector<geom::Point> pads = pad_ring(die, spec.pads, rng);
  const std::vector<std::int32_t> fanouts =
      sink_counts(spec.nets, spec.sinks, rng);

  // Build all nets on block-boundary pins first.
  auto random_block_pin = [&]() -> netlist::Pin {
    const auto b = static_cast<netlist::BlockId>(
        rng.uniform_int(0, spec.cells - 1));
    return {boundary_point(design.block(b).shape, rng),
            netlist::PinKind::kBlock, b};
  };
  for (std::int32_t i = 0; i < spec.nets; ++i) {
    netlist::Net net;
    net.name = std::string(spec.name) + "_n" + std::to_string(i);
    net.source = random_block_pin();
    for (std::int32_t s = 0; s < fanouts[static_cast<std::size_t>(i)]; ++s) {
      net.sinks.push_back(random_block_pin());
    }
    design.add_net(std::move(net));
  }

  // Rewire `pads` distinct endpoints (source or sink slots) to the pad
  // ring so the published pad count is met exactly.
  struct Slot {
    netlist::NetId net;
    std::int32_t sink;  // -1 == source
  };
  std::vector<Slot> slots;
  for (std::int32_t i = 0; i < spec.nets; ++i) {
    slots.push_back({i, -1});
    for (std::int32_t s = 0; s < fanouts[static_cast<std::size_t>(i)]; ++s) {
      slots.push_back({i, s});
    }
  }
  RABID_ASSERT(slots.size() >= pads.size());
  util::shuffle(slots, rng);
  for (std::size_t p = 0; p < pads.size(); ++p) {
    netlist::Net& net =
        design.mutable_nets()[static_cast<std::size_t>(slots[p].net)];
    netlist::Pin pin{pads[p], netlist::PinKind::kPad, netlist::kNoBlock};
    if (slots[p].sink < 0) {
      net.source = pin;
    } else {
      net.sinks[static_cast<std::size_t>(slots[p].sink)] = pin;
    }
  }

  return design;
}

tile::TileGraph build_tile_graph(const netlist::Design& design,
                                 const CircuitSpec& spec,
                                 const TilingOptions& opt) {
  const std::int32_t nx = opt.nx > 0 ? opt.nx : spec.grid_x;
  const std::int32_t ny = opt.ny > 0 ? opt.ny : spec.grid_y;
  const std::int64_t sites =
      opt.buffer_sites >= 0 ? opt.buffer_sites : spec.buffer_sites;

  tile::TileGraph g(design.outline(), nx, ny);

  // The blocked "cache" region: fixed physical rectangle sized like
  // blocked_span default-grid tiles, placed by the per-circuit seed so
  // every sweep (sites, grid) blocks the same silicon.
  util::Rng rng(std::string(spec.name) + ":tiles");
  geom::Rect blocked{{0.0, 0.0}, {0.0, 0.0}};
  bool have_blocked = false;
  if (opt.blocked_span > 0) {
    const double bw =
        design.outline().width() * opt.blocked_span / spec.grid_x;
    const double bh =
        design.outline().height() * opt.blocked_span / spec.grid_y;
    const double x =
        design.outline().lo().x +
        rng.uniform() * (design.outline().width() - bw);
    const double y =
        design.outline().lo().y +
        rng.uniform() * (design.outline().height() - bh);
    blocked = geom::Rect::from_size({x, y}, bw, bh);
    have_blocked = true;
  }

  std::vector<tile::TileId> allowed;
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    if (!have_blocked || !blocked.contains(g.center(t))) allowed.push_back(t);
  }
  RABID_ASSERT_MSG(!allowed.empty(), "blocked region covers every tile");
  for (std::int64_t s = 0; s < sites; ++s) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(allowed.size()) - 1));
    g.set_site_supply(allowed[pick], g.site_supply(allowed[pick]) + 1);
  }

  // Wire capacity: uniform, calibrated so the HPWL lower-bound demand
  // would average the congestion target.  Table-I circuits reproduce the
  // paper's comfortable regime; the scale family is deliberately tighter
  // so its hottest edges start overflowed and stage 2 is exercised for
  // real at 100k-1M nets (see TilingOptions::target_avg_congestion).
  double demand_tiles = 0.0;
  for (const netlist::Net& net : design.nets()) {
    geom::Point lo = net.source.location;
    geom::Point hi = net.source.location;
    for (const netlist::Pin& p : net.sinks) {
      lo.x = std::min(lo.x, p.location.x);
      lo.y = std::min(lo.y, p.location.y);
      hi.x = std::max(hi.x, p.location.x);
      hi.y = std::max(hi.y, p.location.y);
    }
    demand_tiles += (hi.x - lo.x) / g.tile_width() +
                    (hi.y - lo.y) / g.tile_height();
  }
  const double avg_demand = demand_tiles / g.edge_count();
  const double target = opt.target_avg_congestion > 0.0
                            ? opt.target_avg_congestion
                            : (spec.scale ? 0.55 : 0.25);
  const auto cap = static_cast<std::int32_t>(
      std::max(3.0, std::ceil(avg_demand / target)));
  g.set_uniform_wire_capacity(cap);

  if (opt.over_block_capacity_factor < 1.0) {
    RABID_ASSERT(opt.over_block_capacity_factor >= 0.0);
    auto covered = [&](tile::TileId t) {
      const geom::Point c = g.center(t);
      for (const netlist::Block& b : design.blocks()) {
        if (b.shape.contains(c)) return true;
      }
      return false;
    };
    const auto reduced = static_cast<std::int32_t>(std::max(
        1.0, std::floor(cap * opt.over_block_capacity_factor)));
    for (tile::EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto [u, v] = g.edge_tiles(e);
      if (covered(u) && covered(v)) g.set_wire_capacity(e, reduced);
    }
  }
  return g;
}

netlist::Design generate_design(const CircuitSpec& spec,
                                const DesignVariations& var) {
  netlist::Design design = generate_design(spec);
  if (var.thick_metal_fraction > 0.0) {
    RABID_ASSERT(var.thick_metal_fraction <= 1.0);
    RABID_ASSERT(var.thick_metal_scale >= 1.0);
    util::Rng rng(std::string(spec.name) + ":layers");
    const auto thick_limit = static_cast<std::int32_t>(
        static_cast<double>(design.default_length_limit()) *
            var.thick_metal_scale +
        0.5);
    for (netlist::Net& net : design.mutable_nets()) {
      if (rng.chance(var.thick_metal_fraction)) {
        net.length_limit = thick_limit;
        net.width = var.thick_metal_width;
      }
    }
  }
  return design;
}

tile::SiteMap generate_site_map(const CircuitSpec& spec,
                                const tile::TileGraph& g) {
  util::Rng rng(std::string(spec.name) + ":sitepts");
  tile::SiteMap map(g);
  for (tile::TileId t = 0; t < g.tile_count(); ++t) {
    const geom::Rect r = g.tile_rect(t);
    for (std::int32_t s = 0; s < g.site_supply(t); ++s) {
      map.add_site(t, {r.lo().x + rng.uniform() * r.width(),
                       r.lo().y + rng.uniform() * r.height()});
    }
  }
  RABID_ASSERT(map.consistent_with(g));
  return map;
}

double pct_chip_area(const CircuitSpec& spec, std::int64_t sites) {
  const double chip_um2 = spec.chip_width_um() * spec.chip_height_um();
  return 100.0 * static_cast<double>(sites) * kBufferSiteAreaUm2 / chip_um2;
}

}  // namespace rabid::circuits
