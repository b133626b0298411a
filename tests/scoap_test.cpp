#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/selection.hpp"
#include "defense/registry.hpp"
#include "sim/scoap.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"

namespace stt {
namespace {

TEST(Scoap, PrimaryInputsCostOne) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kNot, "g", {a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[a], 1.0);
  EXPECT_DOUBLE_EQ(r.cc1[a], 1.0);
  // NOT: CC0(g) = CC1(a)+1 = 2; CC1(g) = CC0(a)+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  EXPECT_DOUBLE_EQ(r.cc1[g], 2.0);
  EXPECT_DOUBLE_EQ(r.co[g], 0.0);   // drives a PO
  EXPECT_DOUBLE_EQ(r.co[a], 1.0);   // through the inverter
}

TEST(Scoap, AndGateTextbookValues) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g = nl.add_gate(CellKind::kAnd, "g", {a, b});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  // CC1(AND) = CC1(a)+CC1(b)+1 = 3; CC0(AND) = min(CC0(a),CC0(b))+1 = 2.
  EXPECT_DOUBLE_EQ(r.cc1[g], 3.0);
  EXPECT_DOUBLE_EQ(r.cc0[g], 2.0);
  // CO(a) = CO(g) + CC1(b) + 1 = 2.
  EXPECT_DOUBLE_EQ(r.co[a], 2.0);
}

TEST(Scoap, ConstantsAreOneSided) {
  Netlist nl;
  const CellId zero = nl.add_const(false, "zero");
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kOr, "g", {zero, a});
  nl.mark_output(g);
  nl.finalize();
  const auto r = compute_scoap(nl);
  EXPECT_DOUBLE_EQ(r.cc0[zero], 0.0);
  EXPECT_GT(r.cc1[zero], 1e12);  // cannot set a tied-low net to 1
}

TEST(Scoap, FlipFlopAddsSequentialIncrement) {
  Netlist nl;
  const CellId a = nl.add_input("a");
  const CellId ff = nl.add_dff("ff", a);
  const CellId g = nl.add_gate(CellKind::kNot, "g", {ff});
  nl.mark_output(g);
  nl.finalize();
  ScoapOptions opt;
  opt.sequential_increment = 7.0;
  const auto r = compute_scoap(nl, opt);
  EXPECT_DOUBLE_EQ(r.cc0[ff], 1.0 + 7.0);
  EXPECT_DOUBLE_EQ(r.co[a], 0.0 + 1.0 + 7.0);  // through ff then inverter
}

TEST(Scoap, SequentialLoopConverges) {
  const Netlist nl = embedded_netlist("s27");
  const auto r = compute_scoap(nl);
  for (const CellId id : nl.topo_order()) {
    EXPECT_GE(r.cc0[id], 0.0);
    EXPECT_GE(r.cc1[id], 0.0);
    // Every cell in s27 is controllable both ways and observable.
    EXPECT_LT(r.cc0[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.cc1[id], 1e6) << nl.cell(id).name;
    EXPECT_LT(r.co[id], 1e6) << nl.cell(id).name;
  }
}

TEST(Scoap, DeterministicAndIdempotent) {
  const Netlist nl = generate_circuit({"sc", 8, 6, 6, 120, 8}, 3);
  const auto r1 = compute_scoap(nl);
  const auto r2 = compute_scoap(nl);
  EXPECT_EQ(r1.cc0, r2.cc0);
  EXPECT_EQ(r1.cc1, r2.cc1);
  EXPECT_EQ(r1.co, r2.co);
}

TEST(Scoap, AttackerViewPenalizesLutNeighbourhood) {
  // Lock a middle gate; in the attacker view the cells behind it become
  // expensive to control and the cells before it expensive to observe.
  Netlist nl("chain");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd, "g1", {a, b});
  const CellId g2 = nl.add_gate(CellKind::kOr, "g2", {g1, b});
  const CellId g3 = nl.add_gate(CellKind::kXor, "g3", {g2, a});
  nl.mark_output(g3);
  nl.finalize();
  Netlist hybrid = nl;
  hybrid.replace_with_lut(g2);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto before = compute_scoap(nl, attacker);
  const auto after = compute_scoap(hybrid, attacker);
  EXPECT_GT(after.cc1[g2], before.cc1[g2]);  // output uncontrollable
  EXPECT_GT(after.co[g1], before.co[g1]);    // upstream unobservable
  // Designer view is unaffected by LUT-ness (configured function known).
  const auto designer = compute_scoap(hybrid);
  EXPECT_DOUBLE_EQ(designer.cc1[g2], compute_scoap(nl).cc1[g2]);
}

TEST(Scoap, ResolvabilityRanksLockedRegionsHarder) {
  const CircuitProfile profile{"res", 10, 8, 8, 200, 9};
  const Netlist original = generate_circuit(profile, 5);
  Netlist hybrid = original;
  const TechLibrary lib = TechLibrary::cmos90_stt();
  GateSelector selector(lib);
  SelectionOptions sopt;
  sopt.seed = 5;
  const auto sel = selector.run(hybrid, SelectionAlgorithm::kDependent, sopt);
  ASSERT_GT(sel.replaced.size(), 1u);

  ScoapOptions attacker;
  attacker.attacker_view = true;
  const auto r = compute_scoap(hybrid, attacker);
  // At least one missing gate must be (near-)unresolvable for the testing
  // adversary: dependent LUTs gate each other's justification/propagation.
  double worst = 0;
  for (const CellId id : sel.replaced) {
    worst = std::max(worst, r.resolvability(hybrid, id));
  }
  EXPECT_GT(worst, attacker.unknown_lut_cost / 2);
}


// -- equivalence with the full-enumeration sweeps -----------------------------

// The straightforward SCOAP relaxation: every sweep re-evaluates every cell,
// minimizing over all 3^k input cubes with a truth-table row scan each. It
// pins compute_scoap's prime-cube tables and dirty-cell sweeps bit for bit.
namespace reference {

constexpr double kInfCost = 1e17;

double cap(double v) { return std::min(v, kInfCost); }

std::uint64_t func_mask(const Cell& c) {
  switch (c.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return full_mask(0);
    case CellKind::kLut:
      return c.lut_mask;
    default:
      return gate_truth_mask(c.kind, c.fanin_count());
  }
}

ScoapResult compute_scoap(const Netlist& nl, const ScoapOptions& opt) {
  ScoapResult r;
  r.cc0.assign(nl.size(), kInfCost);
  r.cc1.assign(nl.size(), kInfCost);
  r.co.assign(nl.size(), kInfCost);

  const auto order = nl.topo_order();

  // ---- controllability: forward relaxation --------------------------------
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    for (const CellId id : order) {
      const Cell& c = nl.cell(id);
      double new0 = r.cc0[id];
      double new1 = r.cc1[id];
      switch (c.kind) {
        case CellKind::kInput:
          new0 = new1 = 1;
          break;
        case CellKind::kConst0:
          new0 = 0;
          break;
        case CellKind::kConst1:
          new1 = 0;
          break;
        case CellKind::kDff:
          if (!c.fanins.empty()) {
            new0 = cap(r.cc0[c.fanins[0]] + opt.sequential_increment);
            new1 = cap(r.cc1[c.fanins[0]] + opt.sequential_increment);
          }
          break;
        default: {
          if (opt.attacker_view && c.kind == CellKind::kLut) {
            new0 = new1 = opt.unknown_lut_cost;
            break;
          }
          if (c.fanin_count() > kMaxLutInputs) {
            // Wide standard gates: closed-form SCOAP rules.
            double sum0 = 0, sum1 = 0, min0 = kInfCost, min1 = kInfCost,
                   summin = 0;
            for (const CellId f : c.fanins) {
              sum0 += r.cc0[f];
              sum1 += r.cc1[f];
              min0 = std::min(min0, r.cc0[f]);
              min1 = std::min(min1, r.cc1[f]);
              summin += std::min(r.cc0[f], r.cc1[f]);
            }
            switch (c.kind) {
              case CellKind::kAnd:
                new1 = cap(sum1 + 1);
                new0 = cap(min0 + 1);
                break;
              case CellKind::kNand:
                new0 = cap(sum1 + 1);
                new1 = cap(min0 + 1);
                break;
              case CellKind::kOr:
                new0 = cap(sum0 + 1);
                new1 = cap(min1 + 1);
                break;
              case CellKind::kNor:
                new1 = cap(sum0 + 1);
                new0 = cap(min1 + 1);
                break;
              default:  // XOR/XNOR: parity, both values cost every input
                new0 = new1 = cap(summin + 1);
                break;
            }
            break;
          }
          const std::uint64_t mask = func_mask(c);
          const int k = c.fanin_count();
          // Minimize over *cubes* (each input 0/1/don't-care): a cube is a
          // valid justification of value v when every completion produces
          // v, and only the assigned inputs are charged. This yields the
          // textbook values (e.g. CC0(AND2) = min(CC0 inputs) + 1).
          double best0 = kInfCost;
          double best1 = kInfCost;
          std::uint32_t ternary[kMaxLutInputs] = {};  // 0,1,2=dc per input
          std::uint32_t cubes = 1;
          for (int i = 0; i < k; ++i) cubes *= 3;
          for (std::uint32_t code = 0; code < cubes; ++code) {
            std::uint32_t t = code;
            double cost = 1;
            std::uint32_t fixed_mask = 0;
            std::uint32_t fixed_val = 0;
            for (int i = 0; i < k; ++i) {
              ternary[i] = t % 3;
              t /= 3;
              if (ternary[i] == 0) {
                fixed_mask |= (1u << i);
                cost += r.cc0[c.fanins[i]];
              } else if (ternary[i] == 1) {
                fixed_mask |= (1u << i);
                fixed_val |= (1u << i);
                cost += r.cc1[c.fanins[i]];
              }
            }
            cost = cap(cost);
            // Skip only when neither polarity can improve.
            if (cost >= best0 && cost >= best1) continue;
            bool all0 = true;
            bool all1 = true;
            for (std::uint32_t row = 0; row < num_rows(k); ++row) {
              if ((row & fixed_mask) != fixed_val) continue;
              ((mask >> row) & 1ull) ? all0 = false : all1 = false;
              if (!all0 && !all1) break;
            }
            if (all1) best1 = std::min(best1, cost);
            if (all0) best0 = std::min(best0, cost);
          }
          new0 = best0;
          new1 = best1;
          break;
        }
      }
      if (new0 < r.cc0[id] || new1 < r.cc1[id]) {
        r.cc0[id] = std::min(r.cc0[id], new0);
        r.cc1[id] = std::min(r.cc1[id], new1);
        changed = true;
      }
    }
    if (!changed) break;
  }

  // ---- observability: backward relaxation ---------------------------------
  for (const CellId id : nl.outputs()) r.co[id] = 0;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const CellId id = *it;
      const Cell& c = nl.cell(id);
      // Observability of this cell's *inputs* through this cell.
      if (c.kind == CellKind::kDff) {
        if (!c.fanins.empty()) {
          const CellId d = c.fanins[0];
          const double v = cap(r.co[id] + opt.sequential_increment);
          if (v < r.co[d]) {
            r.co[d] = v;
            changed = true;
          }
        }
        continue;
      }
      if (!is_combinational(c.kind) || c.fanins.empty()) continue;
      if (opt.attacker_view && c.kind == CellKind::kLut) {
        // Propagation through an unknown function is blocked for a testing
        // attacker: charge the unknown-LUT penalty.
        for (const CellId f : c.fanins) {
          const double v = cap(r.co[id] + opt.unknown_lut_cost);
          if (v < r.co[f]) {
            r.co[f] = v;
            changed = true;
          }
        }
        continue;
      }
      if (c.fanin_count() > kMaxLutInputs) {
        // Wide standard gates: sensitize by fixing the side inputs to the
        // gate's non-controlling value (AND/NAND: 1, OR/NOR: 0, XOR: any).
        for (int i = 0; i < c.fanin_count(); ++i) {
          double side = 1;
          for (int j = 0; j < c.fanin_count(); ++j) {
            if (j == i) continue;
            const CellId f = c.fanins[j];
            switch (c.kind) {
              case CellKind::kAnd:
              case CellKind::kNand:
                side += r.cc1[f];
                break;
              case CellKind::kOr:
              case CellKind::kNor:
                side += r.cc0[f];
                break;
              default:
                side += std::min(r.cc0[f], r.cc1[f]);
                break;
            }
          }
          const double v = cap(r.co[id] + side);
          if (v < r.co[c.fanins[i]]) {
            r.co[c.fanins[i]] = v;
            changed = true;
          }
        }
        continue;
      }
      const std::uint64_t mask = func_mask(c);
      const int k = c.fanin_count();
      for (int i = 0; i < k; ++i) {
        // Cheapest side-input *cube* under which the output is sensitive
        // to input i for every completion of the unassigned inputs.
        double best = kInfCost;
        std::uint32_t cubes = 1;
        for (int j = 0; j < k - 1; ++j) cubes *= 3;
        for (std::uint32_t code = 0; code < cubes; ++code) {
          std::uint32_t t = code;
          double cost = 1;
          std::uint32_t fixed_mask = 0;
          std::uint32_t fixed_val = 0;
          for (int j = 0; j < k; ++j) {
            if (j == i) continue;
            const std::uint32_t tv = t % 3;
            t /= 3;
            if (tv == 0) {
              fixed_mask |= (1u << j);
              cost += r.cc0[c.fanins[j]];
            } else if (tv == 1) {
              fixed_mask |= (1u << j);
              fixed_val |= (1u << j);
              cost += r.cc1[c.fanins[j]];
            }
          }
          cost = cap(cost);
          if (cost >= best) continue;
          bool sensitive = true;
          for (std::uint32_t row = 0; row < num_rows(k) && sensitive; ++row) {
            if (row & (1u << i)) continue;
            if ((row & fixed_mask) != fixed_val) continue;
            const bool lo = (mask >> row) & 1ull;
            const bool hi = (mask >> (row | (1u << i))) & 1ull;
            sensitive = (lo != hi);
          }
          if (sensitive) best = cost;
        }
        const double v = cap(r.co[id] + best);
        if (v < r.co[c.fanins[i]]) {
          r.co[c.fanins[i]] = v;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return r;
}

}  // namespace reference

void expect_matches_reference(const Netlist& nl, const ScoapOptions& opt) {
  const ScoapResult got = compute_scoap(nl, opt);
  const ScoapResult want = reference::compute_scoap(nl, opt);
  EXPECT_TRUE(got.cc0 == want.cc0);
  EXPECT_TRUE(got.cc1 == want.cc1);
  EXPECT_TRUE(got.co == want.co);
}

TEST(Scoap, MatchesFullSweepReference) {
  const TechLibrary lib = TechLibrary::cmos90_stt();
  defense::DefenseOptions dopt;
  dopt.seed = 7;
  for (const CircuitProfile& profile : iscas89_profiles()) {
    const Netlist original = generate_circuit(profile, 7);
    for (const std::string kind : {"", "dependent", "xor", "const"}) {
      const Netlist nl =
          kind.empty()
              ? original
              : defense::registry().apply(kind, original, lib, dopt).locked;
      for (const bool attacker : {false, true}) {
        SCOPED_TRACE(profile.name + "/" + kind +
                     (attacker ? "/attacker" : "/designer"));
        ScoapOptions opt;
        opt.attacker_view = attacker;
        expect_matches_reference(nl, opt);
      }
    }
  }

  // The sweep-count truncation is part of the definition.
  const Netlist s5378 = generate_circuit(*find_profile("s5378a"), 7);
  for (const int iterations : {1, 2, 16}) {
    SCOPED_TRACE(iterations);
    ScoapOptions opt;
    opt.max_iterations = iterations;
    expect_matches_reference(s5378, opt);
  }

  // Wide gates (closed-form branch) and random-function LUTs of every
  // fan-in, evaluated with their configured functions.
  Netlist nl("wide");
  std::mt19937_64 rng(11);
  std::vector<CellId> signals;
  for (int i = 0; i < 8; ++i) {
    signals.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const CellId ff = nl.add_dff("ff");
  signals.push_back(ff);
  auto pick = [&](int count) {
    std::vector<CellId> out;
    for (int i = 0; i < count; ++i) {
      out.push_back(signals[rng() % signals.size()]);
    }
    return out;
  };
  for (int round = 0; round < 4; ++round) {
    for (int k = 1; k <= kMaxLutInputs; ++k) {
      const std::vector<CellId> fanins = pick(k);
      signals.push_back(nl.add_lut(
          "l" + std::to_string(round) + "_" + std::to_string(k), fanins,
          rng() & full_mask(k)));
    }
  }
  const CellId wide_and = nl.add_gate(CellKind::kAnd, "wide_and", pick(7));
  const CellId wide_xor = nl.add_gate(CellKind::kXor, "wide_xor", pick(7));
  nl.connect(ff, {wide_and});
  nl.mark_output(wide_xor);
  nl.mark_output(signals.back());
  nl.finalize();
  expect_matches_reference(nl, ScoapOptions{});
}

}  // namespace
}  // namespace stt
