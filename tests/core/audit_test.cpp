#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "obs/json.hpp"

namespace rabid {
namespace {

/// The auditor's contract cuts both ways: a genuine flow solution must
/// audit clean, and *any* corruption — a stale book, a dishonest flag, a
/// mutated delay, a dangling buffer reference — must surface as a typed
/// violation.  Each corruption test injects exactly one defect into a
/// known-good solution and checks it is caught under the right category.

struct Flow {
  netlist::Design design;
  tile::TileGraph graph;
  core::Rabid rabid;

  explicit Flow(std::string_view circuit)
      : design(circuits::generate_design(circuits::spec_by_name(circuit))),
        graph(circuits::build_tile_graph(design,
                                         circuits::spec_by_name(circuit))),
        rabid(design, graph) {
    rabid.run_all();
  }
};

bool has_check(const core::AuditReport& report, core::AuditCheck check) {
  for (const core::AuditViolation& v : report.violations) {
    if (v.check == check) return true;
  }
  return false;
}

TEST(Audit, FinishedFlowIsClean) {
  Flow f("apte");
  const core::AuditReport report = f.rabid.audit();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.warning_count(), 0u);
  // "Clean" must mean "checked": coverage counters prove the auditor
  // actually visited every net and ran comparisons.
  EXPECT_EQ(report.nets_audited, f.design.nets().size());
  EXPECT_GT(report.checks_run, 0);
}

TEST(Audit, PerStageAccumulationCoversEveryStage) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.audit_level = core::AuditLevel::kPerStage;
  core::Rabid rabid(design, graph, options);
  EXPECT_EQ(rabid.last_audit(), nullptr);
  rabid.run_all();
  ASSERT_NE(rabid.last_audit(), nullptr);
  // Solution *integrity* holds at every stage; stage-1/2 wire overload
  // may appear, but only as warnings (clean() counts errors).
  EXPECT_TRUE(rabid.last_audit()->clean())
      << rabid.last_audit()->summary();
  // nets_audited is coverage (max across stages), not a running sum.
  EXPECT_EQ(rabid.last_audit()->nets_audited, design.nets().size());
  EXPECT_GT(rabid.last_audit()->checks_run, 0);
  for (const core::AuditViolation& v : rabid.last_audit()->violations) {
    EXPECT_EQ(v.check, core::AuditCheck::kWireCapacity);
    EXPECT_EQ(v.severity, core::AuditSeverity::kWarning);
    EXPECT_TRUE(v.stage == "1" || v.stage == "2") << v.stage;
  }
}

TEST(Audit, FinalAuditLevelRunsExactlyOnce) {
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.audit_level = core::AuditLevel::kFinal;
  core::Rabid rabid(design, graph, options);
  rabid.run_stage1();
  rabid.run_stage2();
  rabid.run_stage3();
  EXPECT_EQ(rabid.last_audit(), nullptr);  // not a final stage yet
  rabid.run_stage4();
  ASSERT_NE(rabid.last_audit(), nullptr);
  EXPECT_EQ(rabid.last_audit()->nets_audited, design.nets().size());
  EXPECT_TRUE(rabid.last_audit()->clean());
}

TEST(Audit, CatchesDishonestLengthRuleFlag) {
  Flow f("apte");
  std::vector<core::NetState> nets = f.rabid.nets();
  nets[0].meets_length_rule = !nets[0].meets_length_rule;
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kLengthRule));
}

TEST(Audit, CatchesMutatedDelay) {
  Flow f("apte");
  std::vector<core::NetState> nets = f.rabid.nets();
  nets[2].delay.max_ps += 1.0;
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kDelay));
}

TEST(Audit, CatchesStaleWireBook) {
  Flow f("apte");
  f.graph.add_wire(0);  // book now over-counts edge 0 by one
  const core::AuditReport report = f.rabid.audit();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kWireBooks));
  f.graph.remove_wire(0);
  EXPECT_TRUE(f.rabid.audit().clean());
}

TEST(Audit, CatchesStaleBufferBook) {
  Flow f("apte");
  tile::TileId victim = tile::kNoTile;
  for (tile::TileId t = 0; t < f.graph.tile_count(); ++t) {
    if (f.graph.site_usage(t) < f.graph.site_supply(t)) {
      victim = t;
      break;
    }
  }
  ASSERT_NE(victim, tile::kNoTile);
  f.graph.add_buffer(victim);
  const core::AuditReport report = f.rabid.audit();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferBooks));
}

TEST(Audit, CatchesDanglingBufferReference) {
  Flow f("xerox");
  std::vector<core::NetState> nets = f.rabid.nets();
  std::size_t victim = nets.size();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!nets[i].buffers.empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, nets.size());
  nets[victim].buffers[0].node =
      static_cast<route::NodeId>(nets[victim].tree.node_count() + 7);
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferRefs));
}

TEST(Audit, CatchesDroppedBufferAgainstTheBooks) {
  Flow f("xerox");
  std::vector<core::NetState> nets = f.rabid.nets();
  for (core::NetState& n : nets) {
    if (!n.buffers.empty()) {
      n.buffers.pop_back();
      break;
    }
  }
  // The graph still books the dropped buffer: recount != declared.
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferBooks));
}

TEST(Audit, ViolationsCarryIdentityAndValues) {
  Flow f("apte");
  f.graph.add_wire(5);
  const core::AuditReport report = f.rabid.audit();
  ASSERT_FALSE(report.clean());
  bool found = false;
  for (const core::AuditViolation& v : report.violations) {
    if (v.check != core::AuditCheck::kWireBooks) continue;
    found = true;
    EXPECT_EQ(v.edge, 5);
    EXPECT_EQ(v.actual, v.expected + 1.0);  // declared one above recount
    EXPECT_FALSE(v.detail.empty());
  }
  EXPECT_TRUE(found);
}

/// Type-tag auditing (multi-type buffer libraries): a genuine paper4
/// flow audits with zero errors, and each way a tag can rot — foreign
/// electrical numbers, a nameless tag, a tag array out of step with the
/// placements — surfaces under the right category.

struct Paper4Flow {
  netlist::Design design;
  tile::TileGraph graph;
  core::RabidOptions options;
  core::Rabid rabid;

  static core::RabidOptions paper4_options() {
    core::RabidOptions o;
    EXPECT_TRUE(buffer::BufferLibrary::preset("paper4", &o.buffer_library));
    return o;
  }

  explicit Paper4Flow(std::string_view circuit)
      : design(circuits::generate_design(circuits::spec_by_name(circuit))),
        graph(circuits::build_tile_graph(design,
                                         circuits::spec_by_name(circuit))),
        options(paper4_options()),
        rabid(design, graph, options) {
    rabid.run_all();
  }

  core::AuditOptions audit_options() const {
    core::AuditOptions o;
    o.buffer_library = options.buffer_library;
    return o;
  }

  /// A net with at least one buffer (multi-type runs tag every one).
  std::size_t tagged_net(const std::vector<core::NetState>& nets) const {
    for (std::size_t i = 0; i < nets.size(); ++i) {
      if (!nets[i].buffers.empty()) {
        EXPECT_EQ(nets[i].buffer_types.size(), nets[i].buffers.size());
        return i;
      }
    }
    ADD_FAILURE() << "no buffered net in the flow";
    return 0;
  }
};

TEST(Audit, Paper4FlowTypeTagsAuditClean) {
  Paper4Flow f("apte");
  const core::AuditReport report = f.rabid.audit();
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_FALSE(has_check(report, core::AuditCheck::kBufferTypes));
  EXPECT_FALSE(has_check(report, core::AuditCheck::kLengthRule));
}

TEST(Audit, CatchesTamperedTagElectricalPayload) {
  Paper4Flow f("apte");
  std::vector<core::NetState> nets = f.rabid.nets();
  const std::size_t victim = f.tagged_net(nets);
  nets[victim].buffer_types[0].input_cap *= 2.0;
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph, f.audit_options()).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferTypes));
}

TEST(Audit, CatchesNamelessTypeTag) {
  Paper4Flow f("apte");
  std::vector<core::NetState> nets = f.rabid.nets();
  const std::size_t victim = f.tagged_net(nets);
  nets[victim].buffer_types[0].name.clear();
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph, f.audit_options()).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferTypes));
}

TEST(Audit, CatchesTagArrayOutOfStepWithPlacements) {
  Paper4Flow f("apte");
  std::vector<core::NetState> nets = f.rabid.nets();
  const std::size_t victim = f.tagged_net(nets);
  ASSERT_GT(nets[victim].buffer_types.size(), 0u);
  nets[victim].buffer_types.pop_back();
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph, f.audit_options()).audit(nets);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_check(report, core::AuditCheck::kBufferRefs));
}

TEST(Audit, AuditingTaggedNetsAgainstUnitLibraryStillWorks) {
  // A *unit* auditor handed a paper4 solution treats every unknown tag
  // as the library's (only) type; the placements were made under looser
  // multi-type limits, so this is allowed to flag length-rule errors
  // but must never crash or mislabel them as tag corruption.
  Paper4Flow f("apte");
  const std::vector<core::NetState> nets = f.rabid.nets();
  const core::AuditReport report =
      core::SolutionAuditor(f.design, f.graph).audit(nets);
  EXPECT_FALSE(has_check(report, core::AuditCheck::kBufferTypes));
}

TEST(Audit, ReportMergeAndCountsAndJson) {
  core::AuditReport a;
  a.checks_run = 10;
  a.nets_audited = 2;
  a.violations.push_back({core::AuditCheck::kWireCapacity,
                          core::AuditSeverity::kWarning, -1, tile::kNoTile,
                          3, 4.0, 6.0, "w(e) exceeds W(e)", ""});
  core::AuditReport b;
  b.checks_run = 5;
  b.nets_audited = 2;
  b.violations.push_back({core::AuditCheck::kDelay,
                          core::AuditSeverity::kError, 1, tile::kNoTile,
                          tile::kNoEdge, 100.0, 101.0, "delay drift", ""});
  a.merge(std::move(b), "4");
  EXPECT_EQ(a.checks_run, 15);
  EXPECT_EQ(a.nets_audited, 2u);  // coverage = max, not sum
  EXPECT_EQ(a.warning_count(), 1u);
  EXPECT_EQ(a.error_count(), 1u);
  EXPECT_FALSE(a.clean());
  EXPECT_EQ(a.violations.back().stage, "4");

  const std::string text = a.summary();
  EXPECT_NE(text.find("delay"), std::string::npos);

  std::ostringstream json;
  a.write_json(json);
  EXPECT_NE(json.str().find("\"errors\""), std::string::npos);
  EXPECT_NE(json.str().find("\"delay\""), std::string::npos);
}

TEST(Audit, JsonKeepsQuotesAndControlBytesInStrings) {
  core::AuditReport report;
  report.violations.push_back({core::AuditCheck::kDelay,
                               core::AuditSeverity::kError, 0, tile::kNoTile,
                               tile::kNoEdge, 1.0, 2.0,
                               "net \"a\"\r\x01 drift", "vG\t"});
  std::ostringstream json;
  report.write_json(json);
  std::string error;
  const auto doc = obs::json::parse(json.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::json::Value& v = doc->find("violations")->items.at(0);
  EXPECT_EQ(v.find("detail")->as_string(), "net \"a\"\r\x01 drift");
  EXPECT_EQ(v.find("stage")->as_string(), "vG\t");
}

}  // namespace
}  // namespace rabid
