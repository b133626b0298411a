#include <gtest/gtest.h>

#include "core/camouflage.hpp"
#include "core/flow.hpp"
#include "core/security.hpp"
#include "defense/registry.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/strings.hpp"
#include "verify/lint.hpp"

namespace stt {
namespace {

int count_rule(const std::vector<LintFinding>& findings, LintRule rule) {
  int n = 0;
  for (const LintFinding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

const LintFinding* find_rule(const std::vector<LintFinding>& findings,
                             LintRule rule) {
  for (const LintFinding& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// -- layer 1: seeded structural defects -------------------------------------

TEST(StructuralLint, CleanEmbeddedNetlistHasNoFindings) {
  const Netlist nl = embedded_netlist("s27");
  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.counts.total(), 0);
  EXPECT_EQ(report.verdict(), "clean");
  EXPECT_TRUE(report.audit_ran);
  EXPECT_FALSE(report.failed(/*strict=*/true));
}

TEST(StructuralLint, CombinationalCycleFiresExactlyStr001) {
  // g1 = AND(a, g2); g2 = OR(g1, b): a 2-cell combinational loop. finalize()
  // would throw here, which is exactly why the lint layer never calls it.
  Netlist nl("cycle");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_cell(CellKind::kAnd, "g1");
  const CellId g2 = nl.add_cell(CellKind::kOr, "g2");
  nl.connect(g1, {a, g2});
  nl.connect(g2, {g1, b});
  nl.mark_output(g2);

  const StructuralLintResult result = run_structural_lint(nl);
  EXPECT_FALSE(result.evaluable);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kCombinationalCycle);
  EXPECT_EQ(result.findings[0].severity, LintSeverity::kError);
  EXPECT_EQ(result.findings[0].cell, std::min(g1, g2));
}

TEST(StructuralLint, UnresolvedFaninFiresExactlyStr002) {
  Netlist nl("unresolved");
  const CellId g = nl.add_cell(CellKind::kNot, "g");
  nl.append_fanin(g, kNullCell);  // a parser that never resolved
  nl.mark_output(g);

  const StructuralLintResult result = run_structural_lint(nl);
  EXPECT_FALSE(result.evaluable);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kUnresolvedFanin);
}

TEST(StructuralLint, ArityMismatchFiresExactlyStr003) {
  Netlist nl("arity");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_cell(CellKind::kNot, "g");
  nl.connect(g, {a, b});  // NOT with two fan-ins
  nl.mark_output(g);

  const StructuralLintResult result = run_structural_lint(nl);
  EXPECT_FALSE(result.evaluable);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kArityMismatch);
}

TEST(StructuralLint, FanoutDesyncFiresExactlyStr004) {
  Netlist nl("desync");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();
  nl.cell(a).fanouts.clear();  // simulate an in-place editing bug

  const StructuralLintResult result = run_structural_lint(nl);
  EXPECT_TRUE(result.evaluable);  // fan-in side is still sound
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kFanoutDesync);
  EXPECT_EQ(result.findings[0].cell, g);
}

TEST(StructuralLint, DeadMissingGateIsErrorDeadCmosIsWarning) {
  Netlist nl("dead");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});  // never read
  const CellId h = nl.add_gate(CellKind::kOr, "h", {a, b});
  nl.mark_output(h);
  nl.finalize();

  {
    const StructuralLintResult result = run_structural_lint(nl);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, LintRule::kDeadGate);
    EXPECT_EQ(result.findings[0].severity, LintSeverity::kWarning);
  }
  nl.replace_with_lut(g);  // now a dead *missing* gate: inflates M
  {
    const StructuralLintResult result = run_structural_lint(nl);
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].rule, LintRule::kDeadGate);
    EXPECT_EQ(result.findings[0].severity, LintSeverity::kError);
  }
}

TEST(StructuralLint, DuplicateFaninFiresExactlyStr008) {
  Netlist nl("dup");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, a});
  nl.mark_output(g);
  nl.finalize();

  const StructuralLintResult result = run_structural_lint(nl);
  EXPECT_TRUE(result.evaluable);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kDuplicateFanin);
}

TEST(StructuralLint, LutMaskWidthFiresExactlyStr009) {
  Netlist nl("mask");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId l = nl.add_lut("l", {a, b}, 0x6);
  nl.mark_output(l);
  nl.finalize();
  nl.cell(l).lut_mask = 0x16;  // bit 4 is beyond the 4-row truth table

  const StructuralLintResult result = run_structural_lint(nl);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, LintRule::kLutMaskWidth);
}

TEST(StructuralLint, CamouflageInvariants) {
  Netlist nl("camo");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});  // plain CMOS
  const CellId l = nl.add_lut("l", {a, b}, 0x6);  // XOR: outside camo set
  nl.mark_output(g);
  nl.mark_output(l);
  nl.finalize();

  StructuralLintOptions opt;
  opt.camouflaged = {g, l};
  const StructuralLintResult result = run_structural_lint(nl, opt);
  EXPECT_EQ(count_rule(result.findings, LintRule::kCamouflagedCmos), 1);
  EXPECT_EQ(count_rule(result.findings, LintRule::kCamouflageMask), 1);
  // A declared-camouflaged LUT configured as NAND is fine.
  nl.cell(l).lut_mask = gate_truth_mask(CellKind::kNand, 2);
  const StructuralLintResult ok = run_structural_lint(nl, opt);
  EXPECT_EQ(count_rule(ok.findings, LintRule::kCamouflageMask), 0);
}

// -- layer 2: seeded security defects ---------------------------------------

TEST(StaticAudit, ConstantFedLutFiresExactlySec001) {
  // l = LUT_0x6(a, c0): input 1 tied to constant 0 halves the reachable
  // rows; the restricted function still depends on `a` (it is BUF(a)).
  Netlist nl("constfed");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_const(false, "c0");
  const CellId l = nl.add_lut("l", {a, c0}, 0x6);
  nl.mark_output(l);
  nl.finalize();

  LintOptions opt;
  opt.audit.scoap = false;  // isolate SEC001 from the SEC004 proxy
  const LintReport report = run_lint(nl, opt);
  EXPECT_EQ(count_rule(report.findings, LintRule::kConstantFedLut), 1);
  EXPECT_EQ(count_rule(report.findings, LintRule::kInferableLut), 0);
  EXPECT_EQ(count_rule(report.findings, LintRule::kVacuousLutInput), 0);
  EXPECT_EQ(count_rule(report.findings, LintRule::kMaskedLut), 0);

  ASSERT_EQ(report.audit.luts.size(), 1u);
  const LutAudit& audit = report.audit.luts[0];
  EXPECT_EQ(audit.cell, l);
  EXPECT_EQ(audit.constant_inputs, 1);
  EXPECT_EQ(audit.reachable_rows, 0x3ull);  // rows with input 1 == 0
  EXPECT_EQ(audit.effective_support, 1);
  // The collapsed candidate set shrinks Eq. (2): the audit must report a
  // strictly positive security drop.
  EXPECT_GT(report.audit.log10_drop_dep, 0.0);
}

TEST(StaticAudit, InferableLutFiresExactlySec002) {
  // An all-zeros mask is the constant-0 function: statically inferable, so
  // the gate contributes nothing to M.
  Netlist nl("inferable");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId l = nl.add_lut("l", {a, b}, 0x0);
  nl.mark_output(l);
  nl.finalize();

  LintOptions opt;
  opt.audit.scoap = false;
  const LintReport report = run_lint(nl, opt);
  EXPECT_EQ(count_rule(report.findings, LintRule::kInferableLut), 1);
  EXPECT_EQ(count_rule(report.findings, LintRule::kConstantFedLut), 0);
  EXPECT_EQ(count_rule(report.findings, LintRule::kVacuousLutInput), 0);
  EXPECT_EQ(report.audit.optimistic.missing_gates, 1);
  EXPECT_EQ(report.audit.audited.missing_gates, 0);
}

TEST(StaticAudit, MaskedLutFiresExactlySec005) {
  // The missing gate's only reader ANDs it with constant 0: forcing the LUT
  // output to 0 and to 1 produces identical definite values at the PO, so
  // its secret never influences the chip.
  Netlist nl("masked");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId c0 = nl.add_const(false, "c0");
  const CellId l = nl.add_lut("l", {a, b}, 0x6);
  const CellId m = nl.add_gate(CellKind::kAnd, "m", {l, c0});
  nl.mark_output(m);
  nl.finalize();

  LintOptions opt;
  opt.audit.scoap = false;
  const LintReport report = run_lint(nl, opt);
  EXPECT_EQ(count_rule(report.findings, LintRule::kMaskedLut), 1);
  EXPECT_EQ(count_rule(report.findings, LintRule::kConstantFedLut), 0);
  const LintFinding* f = find_rule(report.findings, LintRule::kMaskedLut);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->cell, l);
  EXPECT_EQ(report.audit.audited.missing_gates, 0);
}

TEST(StaticAudit, PiAdjacentLutFiresExactlySec004) {
  // A missing gate fed by PIs and driving a PO: every truth-table row is
  // justified and observed at trivial SCOAP cost, well under the threshold.
  Netlist nl("piadj");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId l = nl.add_lut("l", {a, b}, 0x8);
  nl.mark_output(l);
  nl.finalize();

  const LintReport report = run_lint(nl);  // scoap on by default
  EXPECT_EQ(count_rule(report.findings, LintRule::kResolvableLut), 1);
  const LintFinding* f = find_rule(report.findings, LintRule::kResolvableLut);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, LintSeverity::kInfo);  // advisory: never gates CI
  EXPECT_EQ(count_rule(report.findings, LintRule::kConstantFedLut), 0);
  EXPECT_EQ(count_rule(report.findings, LintRule::kInferableLut), 0);
}

TEST(StaticAudit, UnevaluableNetlistSkipsAuditWithSec000) {
  Netlist nl("cycle");
  const CellId a = nl.add_input("a");
  const CellId g1 = nl.add_cell(CellKind::kAnd, "g1");
  const CellId g2 = nl.add_cell(CellKind::kOr, "g2");
  nl.connect(g1, {a, g2});
  nl.connect(g2, {g1, a});
  nl.mark_output(g2);

  const LintReport report = run_lint(nl);
  EXPECT_FALSE(report.audit_ran);
  EXPECT_EQ(count_rule(report.findings, LintRule::kAuditSkipped), 1);
  EXPECT_EQ(report.verdict(), "errors");
}

// -- exact-match acceptance: audited == optimistic when nothing collapses ---

TEST(StaticAudit, AuditedEquationsMatchSecurityReportExactly) {
  const auto profile = find_profile("s641");
  ASSERT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 1);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  for (const SelectionAlgorithm alg :
       {SelectionAlgorithm::kIndependent, SelectionAlgorithm::kDependent,
        SelectionAlgorithm::kParametric}) {
    FlowOptions opt;
    opt.algorithm = alg;
    opt.selection.seed = 7;
    const FlowResult flow = run_secure_flow(original, lib, opt);
    const LintReport report = run_lint(flow.hybrid);
    ASSERT_TRUE(report.audit_ran);
    EXPECT_EQ(report.counts.errors, 0) << algorithm_name(alg);
    EXPECT_EQ(report.counts.warnings, 0) << algorithm_name(alg);

    // The optimistic leg reproduces core/security.cpp verbatim.
    const SecurityReport direct =
        security_report(flow.hybrid, SimilarityModel::paper());
    EXPECT_EQ(report.audit.optimistic.n_indep.to_string(),
              direct.n_indep.to_string());
    EXPECT_EQ(report.audit.optimistic.n_dep.to_string(),
              direct.n_dep.to_string());
    EXPECT_EQ(report.audit.optimistic.n_bf.to_string(),
              direct.n_bf.to_string());

    // No candidate set collapses on a freshly locked netlist, so the
    // audited figures are bit-for-bit identical (same arithmetic, same
    // order), not merely close.
    EXPECT_EQ(report.audit.audited.missing_gates,
              report.audit.optimistic.missing_gates);
    EXPECT_EQ(report.audit.audited.accessible_inputs,
              report.audit.optimistic.accessible_inputs);
    EXPECT_EQ(report.audit.audited.n_indep.to_string(),
              report.audit.optimistic.n_indep.to_string());
    EXPECT_EQ(report.audit.audited.n_dep.to_string(),
              report.audit.optimistic.n_dep.to_string());
    EXPECT_EQ(report.audit.audited.n_bf.to_string(),
              report.audit.optimistic.n_bf.to_string());
    EXPECT_EQ(report.audit.log10_drop_indep, 0.0);
    EXPECT_EQ(report.audit.log10_drop_dep, 0.0);
    EXPECT_EQ(report.audit.log10_drop_bf, 0.0);
  }
}

// -- clean-ISCAS regression: zero findings on unlocked benchmarks -----------

TEST(Lint, CleanGeneratedIscasNetlistsHaveZeroFindings) {
  for (const std::string name : {"s641", "s820", "s1238"}) {
    const auto profile = find_profile(name);
    ASSERT_TRUE(profile.has_value());
    const Netlist nl = generate_circuit(*profile, 1);
    const LintReport report = run_lint(nl);
    EXPECT_EQ(report.counts.total(), 0) << name;
    EXPECT_EQ(report.verdict(), "clean") << name;
  }
}

// -- report plumbing --------------------------------------------------------

TEST(Lint, StrictPromotesWarningsButNotInfos) {
  Netlist nl("warn");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  nl.add_gate(CellKind::kAnd, "g", {a, b});  // dead CMOS gate: warning
  const CellId h = nl.add_gate(CellKind::kOr, "h", {a, b});
  nl.mark_output(h);
  nl.finalize();

  const LintReport report = run_lint(nl);
  EXPECT_EQ(report.verdict(), "warnings");
  EXPECT_FALSE(report.failed(/*strict=*/false));
  EXPECT_TRUE(report.failed(/*strict=*/true));

  // HYB001 (one-input missing gate) is info: never fails, even strict.
  Netlist nl2("info");
  const CellId x = nl2.add_input("x");
  const CellId l = nl2.add_lut("l", {x}, 0x2);
  nl2.mark_output(l);
  nl2.finalize();
  LintOptions opt;
  opt.audit.scoap = false;
  const LintReport info = run_lint(nl2, opt);
  EXPECT_EQ(info.verdict(), "info");
  EXPECT_FALSE(info.failed(/*strict=*/true));
}

TEST(Lint, JsonReportCarriesRuleIdsAndAuditBlock) {
  Netlist nl("json");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_const(false, "c0");
  const CellId l = nl.add_lut("l", {a, c0}, 0x6);
  nl.mark_output(l);
  nl.finalize();

  LintOptions opt;
  opt.audit.scoap = false;
  const LintReport report = run_lint(nl, opt);
  const std::string json = lint_json(report);
  EXPECT_NE(json.find("\"netlist\": \"json\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"SEC001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"audit\""), std::string::npos);
  EXPECT_NE(json.find("\"log10_drop\""), std::string::npos);

  const std::string arr = lint_json(std::vector<LintReport>{report, report});
  EXPECT_EQ(arr.front(), '[');
}

// -- golden reports ---------------------------------------------------------

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(Lint, GoldenReportsPinned) {
  // The lint JSON and the `sttlock analyze` JSON of two benchmarks under
  // every defense, pinned byte for byte: a change to the attacker-view
  // propagation, the audit or keydep that moves any finding, count or
  // figure shows up here.
  struct Golden {
    const char* bench;
    const char* defense;
    std::uint64_t lint;
    std::uint64_t keydep;
  };
  const Golden golden[] = {
      {"s641", "const", 0x8f3380ee8fd4ee12ull,
       0xb29c21f33bd6c73dull},
      {"s641", "dependent", 0x5e78476bbb63aa24ull,
       0x799b72c1ce5851bfull},
      {"s641", "independent", 0xe6f375ebe34b010bull,
       0x5d83756c5ecdf60eull},
      {"s641", "latch", 0xe69e2dd649a81878ull,
       0x3b1e7fba04e344d9ull},
      {"s641", "parametric", 0x08b1a8fd026d5d3full,
       0x4d6234a98fd2c936ull},
      {"s641", "xor", 0xe2fb87536f1c5b25ull,
       0xe9c8b90f69f9d4daull},
      {"s820", "const", 0x31cb3e78b6974ed3ull,
       0x16ee7c4bb7d4b85full},
      {"s820", "dependent", 0x823f5a438fc8a6ffull,
       0x2b69c4918849f3e7ull},
      {"s820", "independent", 0x858813c20d59e846ull,
       0x95a32076c092eecfull},
      {"s820", "latch", 0xaa524bf5a20af3aaull,
       0xcf3adec17be4fd74ull},
      {"s820", "parametric", 0x9d88286b2d0a919dull,
       0xd891ef44d7a4ed57ull},
      {"s820", "xor", 0x1abb1614069eb703ull,
       0x9ea9676e14a9b5abull},
  };
  EXPECT_EQ(defense::registry().names().size() * 2, std::size(golden));
  const TechLibrary lib = TechLibrary::cmos90_stt();
  for (const Golden& g : golden) {
    SCOPED_TRACE(std::string(g.bench) + "/" + g.defense);
    const auto profile = find_profile(g.bench);
    ASSERT_TRUE(profile.has_value());
    defense::DefenseOptions dopt;
    dopt.seed = 7;
    const defense::DefenseResult r = defense::registry().apply(
        g.defense, generate_circuit(*profile, 7), lib, dopt, {});

    LintOptions lopt;
    lopt.defense = r.annotations;
    const std::uint64_t lint = fnv1a64(lint_json(run_lint(r.locked, lopt)));
    KeydepOptions kopt;
    kopt.defense = r.annotations;
    const std::uint64_t keydep =
        fnv1a64(keydep_json(r.locked, analyze_keydep(r.locked, kopt)));
    EXPECT_EQ(lint, g.lint) << strformat("lint 0x%016llx",
                                         static_cast<unsigned long long>(lint));
    EXPECT_EQ(keydep, g.keydep)
        << strformat("keydep 0x%016llx",
                     static_cast<unsigned long long>(keydep));
  }
}

// -- defense annotations (HYB004-006 + by-design suppression) ----------------

TEST(DefenseLint, LockedBenchmarkIsCleanWithAnnotationsNoisyWithout) {
  // Lock an ISCAS benchmark with every related-work defense composed, then
  // lint it twice. Without annotations the locked netlist looks defective
  // (single-input LUTs, inferable constants, vacuous mux inputs); with the
  // defense's own annotations those by-design findings vanish and the
  // netlist gates clean.
  const auto profile = find_profile("s641");
  ASSERT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();

  defense::DefenseOptions dopt;
  dopt.seed = 11;
  const defense::DefenseResult xorlock = defense::registry().apply(
      "xor", original, lib, dopt, {{"count", "6"}});
  const defense::DefenseResult latched = defense::registry().apply(
      "latch", xorlock.locked, lib, dopt, {{"count", "4"}});
  const defense::DefenseResult constant = defense::registry().apply(
      "const", latched.locked, lib, dopt, {{"inject", "4"}});
  DefenseAnnotations all = xorlock.annotations;
  all.merge(latched.annotations);
  all.merge(constant.annotations);
  ASSERT_EQ(all.size(), 6u + 4u + 4u);

  const LintReport noisy = run_lint(constant.locked);
  EXPECT_GT(count_rule(noisy.findings, LintRule::kSingleInputLut), 0);
  EXPECT_GT(count_rule(noisy.findings, LintRule::kInferableLut), 0);
  EXPECT_GT(count_rule(noisy.findings, LintRule::kVacuousLutInput), 0);
  EXPECT_TRUE(noisy.failed(/*strict=*/false));

  LintOptions opt;
  opt.defense = all;
  const LintReport annotated = run_lint(constant.locked, opt);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kSingleInputLut), 0);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kInferableLut), 0);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kVacuousLutInput), 0);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kKeyGate), 0);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kDecoyLatch), 0);
  EXPECT_EQ(count_rule(annotated.findings, LintRule::kLockedConstant), 0);
  EXPECT_FALSE(annotated.failed(/*strict=*/false));

  // The suppression is diagnostics-only: the audited security arithmetic
  // must be identical with and without annotations.
  ASSERT_TRUE(noisy.audit_ran);
  ASSERT_TRUE(annotated.audit_ran);
  EXPECT_EQ(annotated.audit.audited.missing_gates,
            noisy.audit.audited.missing_gates);
  EXPECT_EQ(annotated.audit.audited.n_bf.to_string(),
            noisy.audit.audited.n_bf.to_string());
  EXPECT_EQ(annotated.audit.audited.n_indep.to_string(),
            noisy.audit.audited.n_indep.to_string());
}

TEST(DefenseLint, StaleOrMalformedAnnotationsFireHyb004To006) {
  Netlist nl("annot");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();

  LintOptions opt;
  opt.run_audit = false;
  opt.defense.key_gates.insert("ghost");   // no such cell
  opt.defense.key_gates.insert("g");       // exists but is a plain AND
  opt.defense.decoy_latches.insert("g");   // not a mux either
  opt.defense.locked_constants.insert("g");
  const LintReport report = run_lint(nl, opt);
  EXPECT_EQ(count_rule(report.findings, LintRule::kKeyGate), 2);
  EXPECT_EQ(count_rule(report.findings, LintRule::kDecoyLatch), 1);
  EXPECT_EQ(count_rule(report.findings, LintRule::kLockedConstant), 1);
  EXPECT_TRUE(report.failed(/*strict=*/false));
}

TEST(DefenseLint, MisconfiguredConstructsAreFlagged) {
  // A declared key gate with a 2-row mask that is neither BUF nor NOT, and
  // a declared decoy latch configured to the *latched* polarity.
  Netlist nl("misconf");
  const CellId a = nl.add_input("a");
  const CellId kg = nl.add_lut("kg0", {a}, 0b11);  // const1, not a key bit
  const CellId q = nl.add_dff("dl0_q", a);
  const CellId mux = nl.add_lut("dl0", {a, q}, 0xC);  // latched, not clear
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {kg, mux});
  nl.mark_output(g);
  nl.finalize();

  LintOptions opt;
  opt.run_audit = false;
  opt.defense.key_gates.insert("kg0");
  opt.defense.decoy_latches.insert("dl0");
  const LintReport report = run_lint(nl, opt);
  const LintFinding* kgf = find_rule(report.findings, LintRule::kKeyGate);
  ASSERT_NE(kgf, nullptr);
  EXPECT_EQ(kgf->cell_name, "kg0");
  const LintFinding* dlf = find_rule(report.findings, LintRule::kDecoyLatch);
  ASSERT_NE(dlf, nullptr);
  EXPECT_EQ(dlf->cell_name, "dl0");
}

TEST(DefenseLint, AnnotationsSerializationRoundTrips) {
  DefenseAnnotations a;
  a.key_gates = {"kg1", "kg0"};
  a.decoy_latches = {"dl0"};
  a.locked_constants = {"lc0", "G17"};
  const std::string text = annotations_to_string(a);
  const DefenseAnnotations back = annotations_from_string(text);
  EXPECT_EQ(back.key_gates, a.key_gates);
  EXPECT_EQ(back.decoy_latches, a.decoy_latches);
  EXPECT_EQ(back.locked_constants, a.locked_constants);
  // Deterministic (sorted) emission.
  EXPECT_EQ(annotations_to_string(back), text);
  EXPECT_THROW(annotations_from_string("widget kg0\n"), std::runtime_error);
  EXPECT_THROW(annotations_from_string("keygate\n"), std::runtime_error);
  EXPECT_EQ(annotations_from_string("# comment\n\n").size(), 0u);
}

}  // namespace
}  // namespace stt
