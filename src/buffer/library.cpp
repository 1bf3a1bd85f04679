#include "buffer/library.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/assert.hpp"

namespace rabid::buffer {

namespace {

/// A `size`-times unit cell: output resistance down, input cap up.
BufferType scaled(std::string name, double size, bool inverting,
                  const timing::Technology& tech) {
  BufferType t;
  t.name = std::move(name);
  t.size = size;
  t.input_cap = tech.buffer_cap * size;
  t.output_res = tech.buffer_res / size;
  // Inverters are a single stage: slightly quicker through.
  t.intrinsic_ps = tech.buffer_intrinsic_ps * (inverting ? 0.6 : 1.0);
  t.inverting = inverting;
  return t;
}

/// A planning type: its drive_scale is also its electrical size.
BufferType planning(std::string name, double cost_scale,
                    double drive_scale) {
  BufferType t =
      scaled(std::move(name), drive_scale, false, timing::kTech180nm);
  t.cost_scale = cost_scale;
  t.drive_scale = drive_scale;
  return t;
}

}  // namespace

BufferLibrary::BufferLibrary(std::vector<BufferType> types)
    : types_(std::move(types)) {
  RABID_ASSERT_MSG(!types_.empty(), "buffer library must have >= 1 type");
  std::unordered_set<std::string_view> names;
  for (const BufferType& t : types_) {
    RABID_ASSERT_MSG(!t.name.empty(), "buffer type needs a name");
    RABID_ASSERT_MSG(names.insert(t.name).second,
                     "duplicate buffer type name");
    RABID_ASSERT_MSG(t.cost_scale >= 0.0, "cost_scale must be >= 0");
    RABID_ASSERT_MSG(t.drive_scale > 0.0, "drive_scale must be > 0");
  }
}

BufferLibrary BufferLibrary::single_unit() {
  return BufferLibrary({planning("dpbuf_x1", 1.0, 1.0)});
}

BufferLibrary BufferLibrary::paper2() {
  return BufferLibrary({
      planning("dpbuf_x1", 1.0, 1.0),
      planning("dpbuf_x2", 2.0, 2.0),
  });
}

BufferLibrary BufferLibrary::paper4() {
  return BufferLibrary({
      planning("dpbuf_x0p5", 0.6, 0.5),
      planning("dpbuf_x1", 1.0, 1.0),
      planning("dpbuf_x2", 2.0, 2.0),
      planning("dpbuf_x4", 4.0, 4.0),
  });
}

BufferLibrary BufferLibrary::standard_180nm(const timing::Technology& tech) {
  return BufferLibrary({
      scaled("BUF_X0P5", 0.5, false, tech),
      scaled("BUF_X1", 1.0, false, tech),
      scaled("BUF_X2", 2.0, false, tech),
      scaled("BUF_X4", 4.0, false, tech),
      scaled("BUF_X8", 8.0, false, tech),
      scaled("INV_X1", 1.0, true, tech),
      scaled("INV_X2", 2.0, true, tech),
      scaled("INV_X4", 4.0, true, tech),
  });
}

BufferLibrary BufferLibrary::buffers_only() const {
  std::vector<BufferType> buffers;
  for (const BufferType& t : types_) {
    if (!t.inverting) buffers.push_back(t);
  }
  return BufferLibrary(std::move(buffers));
}

bool BufferLibrary::preset(std::string_view name, BufferLibrary* out) {
  if (name == "unit") {
    *out = single_unit();
    return true;
  }
  if (name == "paper2") {
    *out = paper2();
    return true;
  }
  if (name == "paper4") {
    *out = paper4();
    return true;
  }
  return false;
}

bool BufferLibrary::is_unit() const {
  return types_.size() == 1 && types_[0].cost_scale == 1.0 &&
         types_[0].drive_scale == 1.0;
}

std::int32_t BufferLibrary::drive_limit(std::size_t i, std::int32_t L) const {
  const double scaled = types_.at(i).drive_scale * static_cast<double>(L);
  const auto floor_scaled = static_cast<std::int32_t>(std::floor(scaled));
  return floor_scaled < 1 ? 1 : floor_scaled;
}

std::int32_t BufferLibrary::max_drive_limit(std::int32_t L) const {
  std::int32_t best = 1;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    best = std::max(best, drive_limit(i, L));
  }
  return best;
}

std::int32_t BufferLibrary::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

}  // namespace rabid::buffer
