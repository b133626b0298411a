#include <gtest/gtest.h>

#include "io/bench_io.hpp"
#include "sim/activity.hpp"
#include "sim/compiled.hpp"
#include "sim/ternary.hpp"
#include "sim_util.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"
#include "verify/dataflow.hpp"

namespace stt {
namespace {

// Property: word-parallel cell evaluation (a one-cell CompiledSim) agrees
// with eval_gate on every row, for every standard kind and fan-in.
class WordEvalMatchesGate
    : public ::testing::TestWithParam<std::tuple<CellKind, int>> {};

TEST_P(WordEvalMatchesGate, AllRows) {
  const auto [kind, fanin] = GetParam();
  std::vector<std::uint64_t> words(fanin, 0);
  // Pack all rows into word lanes: lane r carries input assignment r.
  for (int i = 0; i < fanin; ++i) {
    for (std::uint32_t row = 0; row < num_rows(fanin); ++row) {
      if (row & (1u << i)) words[i] |= (1ull << row);
    }
  }
  const std::uint64_t out = eval_cell_word(kind, 0, words);
  for (std::uint32_t row = 0; row < num_rows(fanin); ++row) {
    EXPECT_EQ(((out >> row) & 1ull) != 0, eval_gate(kind, row, fanin))
        << kind_name(kind) << " fanin " << fanin << " row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, WordEvalMatchesGate,
    ::testing::Combine(::testing::Values(CellKind::kAnd, CellKind::kNand,
                                         CellKind::kOr, CellKind::kNor,
                                         CellKind::kXor, CellKind::kXnor),
                       ::testing::Range(2, kMaxLutInputs + 1)));

TEST(WordEval, LutMatchesItsMask) {
  Rng rng(3);
  for (int k = 1; k <= kMaxLutInputs; ++k) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::uint64_t mask = rng() & full_mask(k);
      std::vector<std::uint64_t> words(k);
      for (int i = 0; i < k; ++i) {
        for (std::uint32_t row = 0; row < num_rows(k); ++row) {
          if (row & (1u << i)) words[i] |= (1ull << row);
        }
      }
      const std::uint64_t out = eval_cell_word(CellKind::kLut, mask, words);
      EXPECT_EQ(out & full_mask(k), mask);
    }
  }
}

TEST(Simulator, S27KnownVectors) {
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  // With all PIs 0 and state (G5,G6,G7) = 0:
  //   G14 = NOT(G0)=1, G8 = AND(G14,G6)=0, G12 = NOR(G1,G7)=1,
  //   G15 = OR(G12,G8)=1, G16 = OR(G3,G8)=0, G9 = NAND(G16,G15)=1,
  //   G10 = NOR(G14,G11); G11 = NOR(G5,G9)=0 -> G10 = NOR(1,0)=0,
  //   G13 = NOR(G2,G12)=0, G17 = NOT(G11)=1.
  const auto out = eval_single(sim, {false, false, false, false},
                               {false, false, false});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]);  // G17 = 1
}

TEST(Simulator, StimulusSizeMismatchThrows) {
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> pi(4), bad_pi(2), ff(3), bad_ff(2);
  std::vector<std::uint64_t> wave(sim.wave_size()), bad_wave(2);
  EXPECT_THROW(sim.eval_word(bad_pi, ff, wave), std::invalid_argument);
  EXPECT_THROW(sim.eval_word(pi, bad_ff, wave), std::invalid_argument);
  EXPECT_THROW(sim.eval_word(pi, ff, bad_wave), std::invalid_argument);
  EXPECT_NO_THROW(sim.eval_word(pi, ff, wave));
}

TEST(Simulator, WordLanesAreIndependent) {
  // Evaluating 64 patterns at once equals evaluating them one by one.
  CircuitProfile profile{"lanes", 6, 4, 3, 40, 5};
  const Netlist nl = generate_circuit(profile, 77);
  const CompiledSim sim(nl);
  Rng rng(123);
  std::vector<std::uint64_t> pis(nl.inputs().size());
  std::vector<std::uint64_t> ffs(nl.dffs().size());
  for (auto& w : pis) w = rng();
  for (auto& w : ffs) w = rng();
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(pis, ffs, wave);
  std::vector<std::uint64_t> word_out(sim.num_outputs());
  sim.gather_outputs(1, wave, word_out);

  for (int lane = 0; lane < 64; lane += 17) {
    std::vector<bool> pi_bits(pis.size());
    std::vector<bool> ff_bits(ffs.size());
    for (std::size_t i = 0; i < pis.size(); ++i) {
      pi_bits[i] = (pis[i] >> lane) & 1ull;
    }
    for (std::size_t j = 0; j < ffs.size(); ++j) {
      ff_bits[j] = (ffs[j] >> lane) & 1ull;
    }
    const auto single = eval_single(sim, pi_bits, ff_bits);
    for (std::size_t o = 0; o < single.size(); ++o) {
      EXPECT_EQ(single[o], ((word_out[o] >> lane) & 1ull) != 0);
    }
  }
}

// One clock of a caller-owned state: evaluate, return the PO words, latch
// the next state in place.
std::vector<std::uint64_t> step(const CompiledSim& sim,
                                std::span<const std::uint64_t> pi,
                                std::vector<std::uint64_t>& state) {
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(pi, state, wave);
  sim.gather_next_state(1, wave, state);
  std::vector<std::uint64_t> out(sim.num_outputs());
  sim.gather_outputs(1, wave, out);
  return out;
}

TEST(SequentialSimulator, CounterCountsUp) {
  const Netlist nl = embedded_netlist("count2");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> state(sim.num_dffs(), 0);
  // en=1, clr=0 for every lane.
  const std::vector<std::uint64_t> stim{~0ull, 0ull};
  // count2's outputs are the *current* state (q0,q1) before the clock edge.
  int expected = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const auto out = step(sim, stim, state);
    const int q = static_cast<int>((out[0] & 1ull) | ((out[1] & 1ull) << 1));
    EXPECT_EQ(q, expected % 4) << "cycle " << cycle;
    ++expected;
  }
}

TEST(SequentialSimulator, ClearForcesZero) {
  const Netlist nl = embedded_netlist("count2");
  const CompiledSim sim(nl);
  std::vector<std::uint64_t> state(sim.num_dffs(), ~0ull);  // all-ones state
  const std::vector<std::uint64_t> clr{0ull, ~0ull};  // en=0, clr=1
  (void)step(sim, clr, state);
  const auto out = step(sim, clr, state);
  EXPECT_EQ(out[0], 0ull);
  EXPECT_EQ(out[1], 0ull);
}

TEST(SequentialSimulator, SetStateRoundtrip) {
  // Caller-owned state reaches the flip-flop rows of the wave unchanged,
  // and a state of the wrong size is rejected.
  const Netlist nl = embedded_netlist("s27");
  const CompiledSim sim(nl);
  const std::vector<std::uint64_t> pi(sim.num_inputs(), 0);
  const std::vector<std::uint64_t> state{1, 2, 3};
  std::vector<std::uint64_t> wave(sim.wave_size());
  sim.eval_word(pi, state, wave);
  for (std::size_t j = 0; j < state.size(); ++j) {
    EXPECT_EQ(wave[sim.dff_cells()[j]], state[j]);
  }
  std::vector<std::uint64_t> bad(2);
  EXPECT_THROW(sim.eval_word(pi, bad, wave), std::invalid_argument);
}

// ---------------------------------------------------------- ternary ----

TEST(Ternary, KleeneAnd) {
  Cell c;
  c.kind = CellKind::kAnd;
  const Tri x = Tri::kX;
  const Tri zero = Tri::kZero;
  const Tri one = Tri::kOne;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{zero, x}), Tri::kZero);
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{one, x}), Tri::kX);
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{one, one}), Tri::kOne);
}

TEST(Ternary, KleeneOrNorXor) {
  Cell c;
  c.kind = CellKind::kOr;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kOne);
  c.kind = CellKind::kNor;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kZero);
  c.kind = CellKind::kXor;
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kOne, Tri::kX}),
            Tri::kX);
}

// Property: Kleene evaluation is exact — X exactly when the completions of
// the unknown inputs disagree — for every gate kind and a LUT, at every
// fan-in a truth mask covers.
TEST(Ternary, AgreesWithEveryCompletion) {
  Rng rng(11);
  for (const CellKind kind :
       {CellKind::kBuf, CellKind::kNot, CellKind::kAnd, CellKind::kNand,
        CellKind::kOr, CellKind::kNor, CellKind::kXor, CellKind::kXnor,
        CellKind::kLut}) {
    const FaninRange range = fanin_range(kind);
    for (int n = range.min; n <= std::min(range.max, kMaxLutInputs); ++n) {
      Cell c;
      c.kind = kind;
      c.lut_mask = rng() & full_mask(n);
      const std::uint64_t mask =
          kind == CellKind::kLut ? c.lut_mask : gate_truth_mask(kind, n);
      int cases = 1;
      for (int i = 0; i < n; ++i) cases *= 3;
      for (int code = 0; code < cases; ++code) {
        std::vector<Tri> in;
        for (int i = 0, rest = code; i < n; ++i, rest /= 3) {
          in.push_back(static_cast<Tri>(rest % 3));
        }
        bool saw0 = false;
        bool saw1 = false;
        for (std::uint32_t row = 0; row < num_rows(n); ++row) {
          bool consistent = true;
          for (int i = 0; i < n; ++i) {
            if (in[i] != Tri::kX && (in[i] == Tri::kOne) != ((row >> i) & 1u)) {
              consistent = false;
            }
          }
          if (consistent) ((mask >> row) & 1ull) ? saw1 = true : saw0 = true;
        }
        const Tri expect =
            saw0 && saw1 ? Tri::kX : (saw1 ? Tri::kOne : Tri::kZero);
        EXPECT_EQ(eval_cell_tri(c, in), expect)
            << kind_name(kind) << " fanin " << n << " case " << code;
      }
    }
  }
}

TEST(Ternary, LutUnknownForcesX) {
  Cell c;
  c.kind = CellKind::kLut;
  c.lut_mask = 0b1000;  // AND2
  const std::vector<Tri> in{Tri::kOne, Tri::kOne};
  EXPECT_EQ(eval_cell_tri(c, in), Tri::kOne);  // as configured
  // The attacker view: with no row resolved the output is X.
  EXPECT_EQ(eval_partial_lut(LutKnowledge{.rows = 4}, in), Tri::kX);
}

TEST(Ternary, ConstantLutStaysDefiniteUnderX) {
  Cell c;
  c.kind = CellKind::kLut;
  c.lut_mask = full_mask(2);  // constant 1
  EXPECT_EQ(eval_cell_tri(c, std::vector<Tri>{Tri::kX, Tri::kX}),
            Tri::kOne);
}

// The attacker-view engine with definite sources is plain configured
// evaluation: an empty knowledge map tracks no LUT, so every LUT evaluates
// as configured.
std::vector<Tri> ternary_outputs(const Netlist& nl,
                                 std::span<const Tri> sources) {
  const LutKnowledgeMap configured;
  ForwardDataflow<TernaryDomain> engine(
      nl, TernaryDomain{.luts = &configured, .sources = sources});
  const std::vector<Tri>& wave = engine.solve();
  std::vector<Tri> out;
  for (const CellId po : nl.outputs()) out.push_back(wave[po]);
  return out;
}

TEST(TernarySimulator, MatchesBinaryOnDefiniteInputs) {
  CircuitProfile profile{"tern", 5, 4, 3, 40, 5};
  const Netlist nl = generate_circuit(profile, 9);
  const CompiledSim bin(nl);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> pi(nl.inputs().size());
    std::vector<bool> ff(nl.dffs().size());
    for (auto&& b : pi) b = rng.chance(0.5);
    for (auto&& b : ff) b = rng.chance(0.5);
    std::vector<Tri> sources;
    for (const bool b : pi) sources.push_back(tri_from_bool(b));
    for (const bool b : ff) sources.push_back(tri_from_bool(b));
    const auto expect = eval_single(bin, pi, ff);
    const auto got = ternary_outputs(nl, sources);
    for (std::size_t o = 0; o < expect.size(); ++o) {
      EXPECT_EQ(got[o], tri_from_bool(expect[o]));
    }
  }
}

TEST(TernarySimulator, XStateStaysConservative) {
  const Netlist nl = embedded_netlist("s27");
  // Definite PIs, unknown state.
  const std::vector<Tri> sources{Tri::kZero, Tri::kZero, Tri::kZero,
                                 Tri::kZero, Tri::kX,    Tri::kX,
                                 Tri::kX};
  // G17 = NOT(G11) where G11 = NOR(G5, G9): with unknown state the output
  // may or may not be X, but it must never contradict a definite evaluation
  // of any concrete state. Check against both all-0 and all-1 states.
  const CompiledSim bin(nl);
  const auto o0 = eval_single(bin, {false, false, false, false},
                              {false, false, false});
  const auto o1 = eval_single(bin, {false, false, false, false},
                              {true, true, true});
  const Tri got = ternary_outputs(nl, sources)[0];
  if (got != Tri::kX) {
    EXPECT_EQ(got, tri_from_bool(o0[0]));
    EXPECT_EQ(got, tri_from_bool(o1[0]));
  }
}

TEST(TriChar, Mapping) {
  EXPECT_EQ(tri_char(Tri::kZero), '0');
  EXPECT_EQ(tri_char(Tri::kOne), '1');
  EXPECT_EQ(tri_char(Tri::kX), 'X');
}

// --------------------------------------------------------- activity ----

TEST(Activity, BoundsAndDeterminism) {
  CircuitProfile profile{"act", 6, 4, 4, 60, 6};
  const Netlist nl = generate_circuit(profile, 21);
  Rng rng_a(1);
  Rng rng_b(1);
  ActivityOptions opt;
  opt.cycles = 64;
  const auto a = estimate_activity(nl, rng_a, opt);
  const auto b = estimate_activity(nl, rng_b, opt);
  EXPECT_EQ(a.alpha, b.alpha);  // deterministic
  for (const double alpha : a.alpha) {
    EXPECT_GE(alpha, 0.0);
    EXPECT_LE(alpha, 1.0);
  }
  EXPECT_GT(a.average, 0.0);
  EXPECT_LT(a.average, 1.0);
}

TEST(Activity, HigherInputToggleRaisesActivity) {
  CircuitProfile profile{"act2", 6, 4, 4, 60, 6};
  const Netlist nl = generate_circuit(profile, 22);
  Rng r1(9), r2(9);
  ActivityOptions lo;
  lo.input_toggle = 0.05;
  lo.cycles = 128;
  ActivityOptions hi;
  hi.input_toggle = 0.5;
  hi.cycles = 128;
  const auto a_lo = estimate_activity(nl, r1, lo);
  const auto a_hi = estimate_activity(nl, r2, hi);
  EXPECT_GT(a_hi.average, a_lo.average);
}

}  // namespace
}  // namespace stt
