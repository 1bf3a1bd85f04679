#pragma once

/// \file library.hpp
/// The buffer library: the cells a buffer site may realize.
///
/// Section I-B: a buffer site may realize "either a buffer, inverter
/// (with a range of power levels), or even a decoupling capacitor" —
/// the cell is chosen only when the site is assigned.  One library
/// serves every consumer:
///
///   * the stage-3/4 insertion DP chooses between its types (Li & Shi's
///     multi-type candidate-list formulation, arXiv:0710.4691; buffer
///     sizing per Kallakuri, arXiv:0710.4638), where a type changes the
///     planning problem itself —
///       - `cost_scale`  multiplies the eq. (2) site cost q(v): a
///         stronger buffer occupies one site but burns more area/power,
///         so the DP should prefer it only where its reach pays;
///       - `drive_scale` multiplies the net's length rule L: a type t
///         gate may drive up to L_t = max(1, floor(drive_scale * L))
///         tile-units of unbuffered interconnect.  The net driver
///         itself always obeys the plain L;
///   * the van Ginneken rebuffering (buffer/timing_driven.hpp) picks
///     power levels by their electrical numbers;
///   * the delay model (timing/delay.hpp) and the solution dump read a
///     placed cell's electrical numbers and name.
///
/// Electrical scaling: a k-times buffer has output resistance R_b/k and
/// input capacitance ~k*C_b; intrinsic delay is size-independent to
/// first order.  All types fit the same 400 um^2 buffer site footprint
/// envelope except the largest, which is why power levels above ~8x are
/// not offered.
///
/// The default library holds exactly the paper's single unit type
/// (cost_scale == drive_scale == 1), for which the one insertion DP
/// (insertion.hpp) reproduces the paper's single-type DP bit-for-bit.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "timing/tech.hpp"

namespace rabid::buffer {

/// One library cell.  Placed buffers carry a copy (core::NetState::
/// buffer_types), so a tag never refers back into its library.
struct BufferType {
  std::string name;           ///< identity in solutions / audits
  double size = 1.0;          ///< drive strength multiple of the unit buffer
  double input_cap = 0.0;     ///< pF
  double output_res = 0.0;    ///< ohm
  double intrinsic_ps = 0.0;  ///< ps
  bool inverting = false;
  double cost_scale = 1.0;   ///< multiplies q(v); >= 0
  double drive_scale = 1.0;  ///< multiplies L; > 0
};

/// An ordered, immutable set of buffer types.  The DP tie-breaks
/// equal-cost choices toward lower indices, so library order is part of
/// the deterministic contract.
class BufferLibrary {
 public:
  /// The paper's library: one unit type.  This is the RabidOptions
  /// default and makes the whole flow behave exactly as before.
  static BufferLibrary single_unit();

  /// `single_unit` plus one double-reach type at double cost.
  static BufferLibrary paper2();

  /// Four power levels: 0.5x / 1x / 2x / 4x reach with matching cost.
  static BufferLibrary paper4();

  /// The van Ginneken power levels for 0.18 um: non-inverting buffers
  /// at 0.5x, 1x, 2x, 4x, 8x the unit drive (1x == the Technology
  /// buffer), plus matching inverters at 1x/2x/4x.  Planning scales are
  /// all 1.
  static BufferLibrary standard_180nm(
      const timing::Technology& tech = timing::kTech180nm);

  /// This library's non-inverting cells, in order (van Ginneken
  /// rebuffering with buffers only).  Asserts that there is one.
  BufferLibrary buffers_only() const;

  /// Library preset by name ("unit", "paper2", "paper4"); false when
  /// `name` matches no preset.
  static bool preset(std::string_view name, BufferLibrary* out);

  /// Builds a library from explicit types (validated: nonempty, names
  /// unique and nonempty, cost_scale >= 0, drive_scale > 0).
  explicit BufferLibrary(std::vector<BufferType> types);
  BufferLibrary() : BufferLibrary(single_unit()) {}

  std::span<const BufferType> types() const { return types_; }
  const BufferType& type(std::size_t i) const { return types_.at(i); }
  std::size_t size() const { return types_.size(); }

  /// True when the library is exactly {unit}: the paper's single-type
  /// setting, whose placements carry no type tags (InsertionResult::
  /// types stays empty) and whose goldens reproduce bit-for-bit.
  bool is_unit() const;

  /// Per-type length limit for a net with length rule L:
  /// max(1, floor(drive_scale * L)).
  std::int32_t drive_limit(std::size_t i, std::int32_t L) const;

  /// Largest drive_limit over all types (the DP's j range).
  std::int32_t max_drive_limit(std::int32_t L) const;

  /// Index of the type named `name`; -1 when absent.
  std::int32_t index_of(std::string_view name) const;

 private:
  std::vector<BufferType> types_;
};

}  // namespace rabid::buffer
