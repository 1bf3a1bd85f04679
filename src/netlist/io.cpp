#include "netlist/io.hpp"

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <optional>
#include <sstream>

#include "netlist/validate.hpp"
#include "util/assert.hpp"

namespace rabid::netlist {

namespace {

const char* kind_name(PinKind k) {
  switch (k) {
    case PinKind::kBlock: return "block";
    case PinKind::kPad: return "pad";
    case PinKind::kFree: return "free";
  }
  RABID_ASSERT_MSG(false, "unknown pin kind");
}

void write_pin(std::ostream& out, const char* tag, const Pin& p) {
  out << "  " << tag << ' ' << p.location.x << ' ' << p.location.y << ' '
      << kind_name(p.kind);
  if (p.kind == PinKind::kBlock) out << ' ' << p.block;
  out << '\n';
}

/// Thrown by the tokenizer on malformed input; read_design_checked()
/// converts it to a Status carrying the line.
struct ParseError {
  std::string message;
  int line;
};

/// Line-based tokenizer with throw-on-error diagnostics.
class Parser {
 public:
  explicit Parser(std::istream& in) : in_(in) {}

  /// Next non-empty, non-comment line split into tokens; false at EOF.
  bool next_line(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ss(line);
      tokens.clear();
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  /// 1-based number of the line next_line() last returned.
  int line() const { return line_no_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError{msg, line_no_};
  }

  double num(const std::string& tok) const {
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) fail("malformed number '" + tok + "'");
      return v;
    } catch (const ParseError&) {
      throw;
    } catch (...) {
      fail("malformed number '" + tok + "'");
    }
  }

  /// An integer field.  Rejecting non-finite and out-of-range values here
  /// matters: static_cast<int32_t> of NaN or 1e308 is undefined behavior,
  /// and those are exactly the values a hostile file contains.
  std::int32_t int_num(const std::string& tok) const {
    const double v = num(tok);
    if (!std::isfinite(v) || v < -2147483648.0 || v > 2147483647.0 ||
        v != std::floor(v)) {
      fail("expected an integer, got '" + tok + "'");
    }
    return static_cast<std::int32_t>(v);
  }

  /// A coordinate: any finite real (NaN/inf would poison every geometric
  /// predicate downstream).
  double coord(const std::string& tok) const {
    const double v = num(tok);
    if (!std::isfinite(v)) fail("non-finite coordinate '" + tok + "'");
    return v;
  }

  PinKind kind(const std::string& tok) const {
    if (tok == "block") return PinKind::kBlock;
    if (tok == "pad") return PinKind::kPad;
    if (tok == "free") return PinKind::kFree;
    fail("unknown pin kind '" + tok + "'");
  }

  /// Four coordinate tokens into a rectangle; ordering is checked here
  /// because geom::Rect's own precondition assert would abort on a
  /// hostile file instead of reporting a parse error.
  geom::Rect rect(const std::string& x1, const std::string& y1,
                  const std::string& x2, const std::string& y2) const {
    const geom::Point lo{coord(x1), coord(y1)};
    const geom::Point hi{coord(x2), coord(y2)};
    if (lo.x > hi.x || lo.y > hi.y) {
      fail("rectangle corners must be ordered lo <= hi");
    }
    return geom::Rect{lo, hi};
  }

 private:
  std::istream& in_;
  int line_no_ = 0;
};

/// Parsed file content before Design construction.  Kept raw so each
/// net can be validated *before* Design::add_net, whose precondition
/// assert would abort on hostile data.
struct RawDesign {
  std::string name = "unnamed";
  geom::Rect outline{{0, 0}, {1, 1}};
  std::optional<std::int32_t> default_limit;  ///< as given, if given
  int default_limit_line = 0;
  std::vector<Block> blocks;
  std::vector<Net> nets;
};

RawDesign parse_design(std::istream& in) {
  Parser p(in);
  std::vector<std::string> tok;
  RawDesign raw;
  bool have_outline = false;

  Net* open_net = nullptr;
  Net current;

  auto parse_pin = [&](const std::vector<std::string>& t) {
    if (t.size() < 4) p.fail("pin needs: tag X Y KIND [BLOCK]");
    Pin pin;
    pin.location = {p.coord(t[1]), p.coord(t[2])};
    pin.kind = p.kind(t[3]);
    if (pin.kind == PinKind::kBlock) {
      if (t.size() < 5) p.fail("block pin needs a block index");
      pin.block = p.int_num(t[4]);
    }
    return pin;
  };

  while (p.next_line(tok)) {
    const std::string& cmd = tok[0];
    if (open_net != nullptr) {
      if (cmd == "source") {
        open_net->source = parse_pin(tok);
      } else if (cmd == "sink") {
        open_net->sinks.push_back(parse_pin(tok));
      } else if (cmd == "end") {
        raw.nets.push_back(std::move(current));
        open_net = nullptr;
      } else {
        p.fail("expected source/sink/end inside net, got '" + cmd + "'");
      }
      continue;
    }
    if (cmd == "design") {
      if (tok.size() != 2) p.fail("design needs a name");
      raw.name = tok[1];
    } else if (cmd == "outline") {
      if (tok.size() != 5) p.fail("outline needs 4 coordinates");
      raw.outline = p.rect(tok[1], tok[2], tok[3], tok[4]);
      have_outline = true;
    } else if (cmd == "length_limit") {
      if (tok.size() != 2) p.fail("length_limit needs a value");
      raw.default_limit = p.int_num(tok[1]);
      raw.default_limit_line = p.line();
    } else if (cmd == "block") {
      if (tok.size() != 7) p.fail("block needs: name 4 coords fraction");
      // Range-checked here because Design::add_block asserts it.
      const double fraction = p.num(tok[6]);
      if (!(fraction >= 0.0 && fraction <= 1.0)) {
        p.fail("block site_fraction must be in [0,1]");
      }
      raw.blocks.push_back(
          Block{tok[1], p.rect(tok[2], tok[3], tok[4], tok[5]), fraction});
    } else if (cmd == "net") {
      if (tok.size() < 2) p.fail("net needs a name");
      current = Net{};
      current.name = tok[1];
      if (tok.size() > 2) {
        current.length_limit = p.int_num(tok[2]);
      }
      if (tok.size() > 3) {
        current.width = p.int_num(tok[3]);
      }
      open_net = &current;
    } else {
      p.fail("unknown directive '" + cmd + "'");
    }
  }
  if (open_net != nullptr) p.fail("unterminated net (missing 'end')");
  if (!have_outline) p.fail("missing outline");
  return raw;
}

}  // namespace

void write_design(std::ostream& out, const Design& design) {
  out << std::setprecision(17);
  out << "# RABID design format v1\n";
  out << "design " << design.name() << '\n';
  out << "outline " << design.outline().lo().x << ' '
      << design.outline().lo().y << ' ' << design.outline().hi().x << ' '
      << design.outline().hi().y << '\n';
  out << "length_limit " << design.default_length_limit() << '\n';
  for (const Block& b : design.blocks()) {
    out << "block " << b.name << ' ' << b.shape.lo().x << ' '
        << b.shape.lo().y << ' ' << b.shape.hi().x << ' ' << b.shape.hi().y
        << ' ' << b.site_fraction << '\n';
  }
  for (const Net& n : design.nets()) {
    out << "net " << n.name;
    // Any non-zero limit is written, a negative one included: dropping
    // it would turn an invalid design into a valid one on a round trip.
    if (n.length_limit != 0 || n.width != 1) out << ' ' << n.length_limit;
    if (n.width != 1) out << ' ' << n.width;
    out << '\n';
    write_pin(out, "source", n.source);
    for (const Pin& s : n.sinks) write_pin(out, "sink", s);
    out << "end\n";
  }
}

core::Result<Design> read_design_checked(std::istream& in) {
  RawDesign raw;
  try {
    raw = parse_design(in);
  } catch (const ParseError& e) {
    return core::Status::invalid_input(e.message, "design", e.line);
  }
  Design design{raw.name, raw.outline};
  for (Block& b : raw.blocks) design.add_block(std::move(b));
  // Still net-less: this checks the outline and the blocks.
  if (core::Status s = validate_design(design); !s) return s;
  // A given limit is applied as written, so a bad one (0, negative) fails
  // validate_design here instead of falling back to the default; the
  // only new failure this check can find is the limit's, so it carries
  // the directive's line.
  if (raw.default_limit) {
    design.set_default_length_limit(*raw.default_limit);
    if (core::Status s = validate_design(design); !s) {
      return core::Status::invalid_input(s.message(), s.context(),
                                         raw.default_limit_line);
    }
  }
  for (Net& n : raw.nets) {
    if (core::Status s = validate_net(design, n, "", "design"); !s) return s;
    design.add_net(std::move(n));
  }
  return design;
}

std::string to_string(const Design& design) {
  std::ostringstream out;
  write_design(out, design);
  return out.str();
}

core::Result<Design> design_from_string_checked(const std::string& text) {
  std::istringstream in(text);
  return read_design_checked(in);
}

}  // namespace rabid::netlist
