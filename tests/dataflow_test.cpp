// The dataflow framework (verify/dataflow): solver behavior on hand-built
// netlists, the attacker-view ternary engine's partial LUT knowledge, and
// the refinement conformance — every fact the ternary domain proves must be
// provable in the support domain — pinned on real locked benchmarks.
#include <gtest/gtest.h>

#include "defense/registry.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/dataflow.hpp"

namespace stt {
namespace {

Netlist locked_netlist(const std::string& bench, const std::string& kind) {
  const auto profile = find_profile(bench);
  EXPECT_TRUE(profile.has_value());
  const Netlist original = generate_circuit(*profile, 7);
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions opt;
  opt.seed = 7;
  return defense::registry().apply(kind, original, lib, opt, {}).locked;
}

// -- forward ternary --------------------------------------------------------

TEST(TernaryDataflow, ConstantsPropagateAndLutOutputsAreUnknown) {
  Netlist nl("tern");
  const CellId a = nl.add_input("a");
  const CellId c0 = nl.add_gate(CellKind::kConst0, "c0", {});
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, c0});
  const CellId l = nl.add_lut("l", {a}, 0x2);  // BUF mask — secret to the pass
  const CellId z = nl.add_gate(CellKind::kOr, "z", {l, c0});
  nl.mark_output(y);
  nl.mark_output(z);

  ForwardDataflow<TernaryDomain> solver(nl);
  const std::vector<Tri>& v = solver.solve();
  EXPECT_EQ(v[a], Tri::kX);      // primary input
  EXPECT_EQ(v[c0], Tri::kZero);  // constant source
  EXPECT_EQ(v[y], Tri::kZero);   // AND with a controlling 0
  EXPECT_EQ(v[l], Tri::kX);      // LUT mask is secret (attacker view)
  EXPECT_EQ(v[z], Tri::kX);      // OR(X, 0) = X
}

TEST(TernaryDataflow, ForceProbePinsOneCell) {
  Netlist nl("force");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, b});
  nl.mark_output(y);

  TernaryDomain domain;
  domain.force_cell = a;
  domain.force_value = Tri::kZero;
  ForwardDataflow<TernaryDomain> solver(nl, domain);
  const std::vector<Tri>& v = solver.solve();
  EXPECT_EQ(v[a], Tri::kZero);
  EXPECT_EQ(v[y], Tri::kZero);  // 0 controls the AND regardless of b

  TernaryDomain one = domain;
  one.force_value = Tri::kOne;
  ForwardDataflow<TernaryDomain> solver1(nl, one);
  EXPECT_EQ(solver1.solve()[y], Tri::kX);  // AND(1, X) = X

  // The shared probe reads both forced waves at the observation points.
  ForwardDataflow<TernaryDomain> probe(nl);
  const ForceProbe blocked = force_probe(probe, observation_points(nl), a);
  EXPECT_EQ(blocked.at0, std::vector<Tri>{Tri::kZero});
  EXPECT_EQ(blocked.at1, std::vector<Tri>{Tri::kX});
  EXPECT_FALSE(blocked.masked());
  EXPECT_EQ(blocked.sensitized(), -1);
  EXPECT_EQ(probe.domain().force_cell, kNullCell);  // cleared again
  // With b = 1 the output follows a whatever else is unknown.
  const std::vector<Tri> sources{Tri::kX, Tri::kOne};
  probe.domain().sources = sources;
  EXPECT_EQ(force_probe(probe, observation_points(nl), a).sensitized(), 0);
}

TEST(TernaryDataflow, DffOutputsAreUnknownSources) {
  Netlist nl("seq");
  const CellId a = nl.add_input("a");
  const CellId c1 = nl.add_gate(CellKind::kConst1, "c1", {});
  const CellId ff = nl.add_dff("ff", c1);  // driven by a constant...
  const CellId y = nl.add_gate(CellKind::kAnd, "y", {a, ff});
  nl.mark_output(y);

  ForwardDataflow<TernaryDomain> solver(nl);
  const std::vector<Tri>& v = solver.solve();
  // ...but the state bit is still a source: the forward edge is cut at the
  // D pin, so the initial-state-unknown semantics hold.
  EXPECT_EQ(v[ff], Tri::kX);
  EXPECT_EQ(v[y], Tri::kX);
}

TEST(TernaryDataflow, PartialLutKnowledgeResolvesRows) {
  Netlist nl("partial");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId tracked = nl.add_lut("tracked", {a, b}, 0x8);      // AND
  const CellId untracked = nl.add_lut("untracked", {a, b}, 0x6);  // XOR
  nl.mark_output(tracked);
  nl.mark_output(untracked);

  // Row r holds a at bit 0 and b at bit 1. Rows 0, 1 and 2 are resolved
  // (all 0); row 3 is not.
  LutKnowledgeMap luts;
  luts[tracked] = LutKnowledge{.rows = 4, .known_mask = 0b0111};
  std::vector<Tri> sources{Tri::kZero, Tri::kX};
  ForwardDataflow<TernaryDomain> solver(
      nl, TernaryDomain{.luts = &luts, .sources = sources});
  // a = 0 leaves rows 0 and 2: both resolved, and they agree.
  EXPECT_EQ(solver.solve()[tracked], Tri::kZero);
  // a = 1 leaves rows 1 and 3: row 3 is unresolved.
  sources[0] = Tri::kOne;
  EXPECT_EQ(solver.solve()[tracked], Tri::kX);
  // Row 3 resolves to 1: both rows are known but disagree while b is X...
  luts[tracked].known_mask = 0b1111;
  luts[tracked].value_mask = 0b1000;
  EXPECT_EQ(solver.solve()[tracked], Tri::kX);
  // ...and b = 1 selects row 3.
  sources[1] = Tri::kOne;
  EXPECT_EQ(solver.solve()[tracked], Tri::kOne);
  // A LUT the map does not track evaluates as configured: XOR(1, 1) = 0.
  EXPECT_EQ(solver.value(untracked), Tri::kZero);

  // Without a map no mask is known, so every LUT is X.
  ForwardDataflow<TernaryDomain> blind(nl, TernaryDomain{.sources = sources});
  EXPECT_EQ(blind.solve()[tracked], Tri::kX);
  EXPECT_EQ(blind.value(untracked), Tri::kX);
}

// -- backward observability -------------------------------------------------

TEST(ObservabilityDataflow, DeadConesAreUnobservable) {
  Netlist nl("obs");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {a, b});  // dangles
  const CellId g3 = nl.add_gate(CellKind::kNot, "g3", {b});
  const CellId ff = nl.add_dff("ff", g3);  // D pin is an observation point
  nl.mark_output(g1);

  BackwardDataflow<ObservabilityDomain> solver(nl);
  const std::vector<char>& v = solver.solve();
  EXPECT_EQ(v[g1], 1);  // primary output
  EXPECT_EQ(v[g2], 0);  // no path to any observation point
  EXPECT_EQ(v[g3], 1);  // feeds a DFF D pin
  EXPECT_EQ(v[a], 1);   // reaches g1
  EXPECT_EQ(v[ff], 0);  // the state bit itself drives nothing
}

// -- support functions ------------------------------------------------------

TEST(SupportDataflow, RedundantMuxDropsItsSelect) {
  // y = OR(AND(s, a), AND(NOT s, a)) == a: the select is functionally
  // vacuous. Ternary says X for everything; the support domain proves the
  // collapse — a strict refinement of the ternary domain.
  Netlist nl("mux");
  const CellId s = nl.add_input("s");
  const CellId a = nl.add_input("a");
  const CellId n = nl.add_gate(CellKind::kNot, "n", {s});
  const CellId t1 = nl.add_gate(CellKind::kAnd, "t1", {s, a});
  const CellId t2 = nl.add_gate(CellKind::kAnd, "t2", {n, a});
  const CellId y = nl.add_gate(CellKind::kOr, "y", {t1, t2});
  nl.mark_output(y);

  SupportDomain::CutState state;
  state.cut.assign(nl.size(), 0);
  state.absorbed.assign(nl.size(), 0);
  SupportDomain domain;
  domain.cut_state = &state;
  ForwardDataflow<SupportDomain> solver(nl, domain);
  const std::vector<SupportFunction>& v = solver.solve();

  ForwardDataflow<TernaryDomain> ternary(nl);
  EXPECT_EQ(ternary.solve()[y], Tri::kX);  // the ternary domain cannot see it

  ASSERT_EQ(v[y].vars.size(), 1u);
  EXPECT_EQ(v[y].vars[0], a);
  EXPECT_TRUE(v[y].depends_on(a));
  EXPECT_FALSE(v[y].depends_on(s));
  EXPECT_EQ(v[y].mask, 0x2u);  // identity in a
}

// -- refinement conformance on locked benchmarks ----------------------------

TEST(DataflowConformance, SupportRefinesTernaryOnLockedBenches) {
  for (const char* kind : {"xor", "const", "latch"}) {
    const Netlist nl = locked_netlist("s820", kind);
    ForwardDataflow<TernaryDomain> tern(nl);
    const std::vector<Tri>& t = tern.solve();

    SupportDomain::CutState state;
    state.cut.assign(nl.size(), 0);
    state.absorbed.assign(nl.size(), 0);
    SupportDomain domain;
    domain.cut_state = &state;
    ForwardDataflow<SupportDomain> solver(nl, domain);
    const std::vector<SupportFunction>& v = solver.solve();

    for (CellId id = 0; id < nl.size(); ++id) {
      if (t[id] == Tri::kX || state.cut[id]) continue;
      // Every ternary-definite cell the support pass did not cut must be
      // the same constant function.
      ASSERT_TRUE(v[id].is_constant())
          << kind << ": support lost a ternary fact at " << nl.cell(id).name;
      EXPECT_EQ(v[id].constant_value(), t[id] == Tri::kOne);
    }
  }
}

}  // namespace
}  // namespace stt
