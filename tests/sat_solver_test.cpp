// Tests for the solver-core features behind the fast attack engine:
// restart schedule, incremental assumption reuse, budget/deadline stop
// causes, learnt-database reduction, and configuration-seeded portfolios.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attack/sat.hpp"
#include "util/rng.hpp"

namespace stt::sat {
namespace {

// Pigeonhole principle (n+1 pigeons, n holes): resolution-hard UNSAT.
// With `guard` defined, every clause is disabled unless guard is assumed
// true, so the refutation runs under an assumption and the solver stays
// usable (ok) afterwards.
std::vector<std::vector<Var>> add_php(Solver& s, int pigeons, int holes,
                                      const Lit* guard = nullptr) {
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> at_least;
    if (guard) at_least.push_back(~*guard);
    for (int j = 0; j < holes; ++j) at_least.push_back(pos(p[i][j]));
    s.add_clause(at_least);
  }
  for (int j = 0; j < holes; ++j) {
    for (int i1 = 0; i1 < pigeons; ++i1) {
      for (int i2 = i1 + 1; i2 < pigeons; ++i2) {
        if (guard) {
          s.add_ternary(~*guard, neg(p[i1][j]), neg(p[i2][j]));
        } else {
          s.add_binary(neg(p[i1][j]), neg(p[i2][j]));
        }
      }
    }
  }
  return p;
}

TEST(SatSolverCore, LubySequenceValues) {
  const std::int64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1,
                                   1, 2, 1, 1, 2, 4, 8};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(luby_sequence(static_cast<std::int64_t>(i)), expected[i])
        << "index " << i;
  }
  EXPECT_EQ(luby_sequence(62), 32);  // tail of the fourth block
}

TEST(SatSolverCore, PigeonholeUnsatWithLearning) {
  Solver s;
  add_php(s, 7, 6);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.conflicts(), 0);
  EXPECT_GT(s.learned(), 0);
  EXPECT_GE(s.peak_clauses(), s.live_clauses());
}

TEST(SatSolverCore, ConflictBudgetStopsAndResumes) {
  Solver s;
  add_php(s, 8, 7);
  s.set_conflict_budget(50);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_EQ(s.last_stop(), StopCause::kConflictBudget);
  const std::int64_t after_first = s.conflicts();
  EXPECT_GE(after_first, 50);

  // Resumption: the learnt clauses survive, and an unlimited re-solve
  // finishes the refutation.
  s.set_conflict_budget(-1);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.last_stop(), StopCause::kNone);
  EXPECT_GT(s.conflicts(), after_first);
}

TEST(SatSolverCore, DeadlineStopsHardInstance) {
  Solver s;
  add_php(s, 9, 8);
  s.set_deadline(0.0);  // already expired; trips at the first check
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_EQ(s.last_stop(), StopCause::kDeadline);

  // Disabling the deadline lets the same call run to completion.
  s.set_deadline(-1.0);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatSolverCore, ExpiredDeadlineStillDecidesEasyFormula) {
  // The deadline is only polled between conflicts, so a formula decided by
  // propagation alone is immune to it — solve() never returns kUnknown
  // without at least one conflict batch.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));
  s.add_unit(neg(a));
  s.set_deadline(0.0);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(b));
}

TEST(SatSolverCore, AssumptionReuseAcrossIncrementalCalls) {
  Solver s;
  const Var e = s.new_var();
  const Lit guard = pos(e);
  add_php(s, 5, 4, &guard);

  // Under the guard the instance is UNSAT; without it, SAT — repeatedly,
  // in both orders, on one solver.
  for (int round = 0; round < 3; ++round) {
    const Lit assume_on[] = {guard};
    EXPECT_EQ(s.solve(assume_on), Result::kUnsat) << "round " << round;
    const Lit assume_off[] = {~guard};
    EXPECT_EQ(s.solve(assume_off), Result::kSat) << "round " << round;
    EXPECT_FALSE(s.value(e));
  }
  // Clauses added between calls are honored by later assumptions.
  const Var x = s.new_var();
  s.add_binary(neg(e), pos(x));  // e -> x
  const Lit assume_x[] = {neg(x)};
  EXPECT_EQ(s.solve(assume_x), Result::kSat);
  EXPECT_FALSE(s.value(e));
}

TEST(SatSolverCore, ModelConsistentAfterReduceDb) {
  // Force learnt-database reductions during a guarded PHP refutation, then
  // drop the guard and check the model against every original clause.
  Solver s;
  SolverConfig cfg;
  cfg.restart_unit = 1;  // restart (and reduce-check) as often as possible
  s.set_config(cfg);
  const Var e = s.new_var();
  const Lit guard = pos(e);
  const auto p = add_php(s, 9, 8, &guard);

  const Lit assume_on[] = {guard};
  ASSERT_EQ(s.solve(assume_on), Result::kUnsat);
  EXPECT_GE(s.db_reductions(), 1);

  const Lit assume_off[] = {~guard};
  ASSERT_EQ(s.solve(assume_off), Result::kSat);
  // With the guard false every PHP clause is trivially satisfied; what must
  // hold is that the solver still produces a total, consistent model.
  EXPECT_FALSE(s.value(e));

  // And a fresh unguarded satisfiable instance after reductions: n into n.
  Solver s2;
  SolverConfig cfg2;
  cfg2.restart_unit = 1;
  s2.set_config(cfg2);
  const auto holes = add_php(s2, 6, 6);
  ASSERT_EQ(s2.solve(), Result::kSat);
  // Verify the assignment is a real pigeon->hole matching.
  for (int i = 0; i < 6; ++i) {
    int assigned = 0;
    for (int j = 0; j < 6; ++j) assigned += s2.value(holes[i][j]) ? 1 : 0;
    EXPECT_GE(assigned, 1) << "pigeon " << i;
  }
  for (int j = 0; j < 6; ++j) {
    int occupancy = 0;
    for (int i = 0; i < 6; ++i) occupancy += s2.value(holes[i][j]) ? 1 : 0;
    EXPECT_LE(occupancy, 1) << "hole " << j;
  }
}

// A seeded incremental workload for the trajectory pins below: a block of
// level-0 facts (units plus binary implication chains, so level-0 literals
// carry clause reasons through every database reduction), random 3-SAT over
// the remaining variables near the satisfiability threshold, and rounds of
// random assumptions with fresh clauses added between rounds.
struct GoldenRun {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t learned = 0;
  std::int64_t db_reductions = 0;
  std::int64_t peak_clauses = 0;
  std::uint64_t model_hash = 0;  ///< FNV-1a over every SAT model and verdict
  int sat_rounds = 0;
  int models_checked = 0;
};

constexpr int kGoldenFacts = 24;
constexpr int kGoldenVars = 224;
constexpr int kGoldenClauses = 800;
constexpr int kGoldenRounds = 12;
constexpr int kGoldenAssumptions = 6;

// `late_facts` adds a fresh unit-plus-implication pair after every round:
// those binary reasons are stored behind learnt clauses, so each database
// reduction moves them and clears their level-0 reasons.
GoldenRun run_golden_workload(const SolverConfig& config = {},
                              bool late_facts = false) {
  Rng rng(20160605);
  Solver s;
  s.set_config(config);
  for (int v = 0; v < kGoldenVars; ++v) s.new_var();
  std::vector<std::vector<Lit>> formula;
  const auto add = [&](std::vector<Lit> c) {
    formula.push_back(c);
    s.add_clause(c);
  };
  const auto random_lit = [&](int lo) {
    const Var v = lo + static_cast<Var>(rng() % (kGoldenVars - lo));
    return Lit(v, (rng() & 1) != 0);
  };
  const auto random_ternary = [&]() {
    std::vector<Lit> c;
    while (c.size() < 3) {
      const Lit l = random_lit(kGoldenFacts);
      bool fresh = true;
      for (const Lit o : c) fresh = fresh && o.var() != l.var();
      if (fresh) c.push_back(l);
    }
    return c;
  };

  // Facts: three chains of eight, each rooted in a unit. The implications
  // go in before their root, so the unit propagates through stored binary
  // clauses (a clause added after its premise would shrink to a unit).
  for (int chain = 0; chain < 3; ++chain) {
    const Var root = chain * 8;
    for (Var v = root + 1; v < root + 8; ++v) {
      add({Lit(v - 1, chain != 1), Lit(v, (v & 1) != 0)});
    }
    add({Lit(root, chain == 1)});
  }
  for (int i = 0; i < kGoldenClauses; ++i) add(random_ternary());

  GoldenRun run;
  const auto fold = [&run](std::uint64_t x) {
    run.model_hash = (run.model_hash ^ x) * 0x100000001b3ull;
  };
  run.model_hash = 0xcbf29ce484222325ull;
  for (int round = 0; round < kGoldenRounds; ++round) {
    std::vector<Lit> assume;
    for (int k = 0; k < kGoldenAssumptions; ++k) {
      assume.push_back(random_lit(kGoldenFacts));
    }
    const Result r = s.solve(assume);
    fold(static_cast<std::uint64_t>(r));
    if (r == Result::kSat) {
      ++run.sat_rounds;
      std::uint64_t word = 0;
      for (Var v = 0; v < kGoldenVars; ++v) {
        word = (word << 1) | (s.value(v) ? 1u : 0u);
        if ((v & 63) == 63) fold(word);
      }
      fold(word);
      // The model satisfies every clause ever added and every assumption.
      bool ok = true;
      for (const auto& c : formula) {
        bool sat = false;
        for (const Lit l : c) sat = sat || s.value(l.var()) != l.negated();
        ok = ok && sat;
      }
      for (const Lit l : assume) ok = ok && s.value(l.var()) != l.negated();
      EXPECT_TRUE(ok) << "round " << round;
      ++run.models_checked;
    }
    for (int i = 0; i < 4; ++i) add(random_ternary());
    if (late_facts) {
      const Var a = s.new_var();
      const Var b = s.new_var();
      add({neg(a), Lit(b, (round & 1) != 0)});
      add({pos(a)});
    }
  }
  run.conflicts = s.conflicts();
  run.decisions = s.decisions();
  run.propagations = s.propagations();
  run.learned = s.learned();
  run.db_reductions = s.db_reductions();
  run.peak_clauses = s.peak_clauses();
  return run;
}

TEST(SatSolverCore, GoldenTrajectoryPinned) {
  const GoldenRun run = run_golden_workload();
  // The workload must exercise what the pins guard: several database
  // reductions (each compacts the clause arena and clears level-0
  // reasons) and a variable-activity rescale (var_inc grows by 1/0.95 per
  // conflict and is rescaled past 1e100, i.e. after ~4,500 conflicts).
  EXPECT_GE(run.db_reductions, 3);
  EXPECT_GE(run.conflicts, 5000);
  EXPECT_GE(run.sat_rounds, 1);
  // Values produced by the clause-per-vector solver the flat arena
  // replaced: any change to the search trajectory moves at least one.
  EXPECT_EQ(run.conflicts, 16526);
  EXPECT_EQ(run.decisions, 19952);
  EXPECT_EQ(run.propagations, 645224);
  EXPECT_EQ(run.learned, 16526);
  EXPECT_EQ(run.db_reductions, 4);
  EXPECT_EQ(run.peak_clauses, 8290);
  EXPECT_EQ(run.model_hash, 17330808660082291972ull);
}

TEST(SatSolverCore, ModelsCorrectAfterGc) {
  // Restart after every conflict, so reductions run as soon as the learnt
  // limit allows, while late level-0 facts add binary clauses that sit
  // behind deleted learnts and move with every compaction. Every model
  // is checked against every clause and assumption inside the workload.
  SolverConfig cfg;
  cfg.restart_unit = 1;
  const GoldenRun run = run_golden_workload(cfg, /*late_facts=*/true);
  EXPECT_GE(run.db_reductions, 4);
  EXPECT_GE(run.models_checked, 1);
  EXPECT_EQ(run.models_checked, run.sat_rounds);
}

TEST(SatSolverCore, RestartsCounted) {
  Solver s;
  SolverConfig cfg;
  cfg.restart_unit = 1;
  s.set_config(cfg);
  add_php(s, 7, 6);
  EXPECT_EQ(s.restarts(), 0);
  ASSERT_EQ(s.solve(), Result::kUnsat);
  // Luby units of one conflict: a restart every few conflicts, and never
  // more restarts than conflicts or fewer reductions than restarts allow.
  EXPECT_GT(s.restarts(), 0);
  EXPECT_LE(s.restarts(), s.conflicts());
  EXPECT_LE(s.db_reductions(), s.restarts());
}

TEST(SatSolverCore, ConfiguredSolversAreDeterministic) {
  SolverConfig cfg;
  cfg.seed = 42;
  cfg.random_branch_freq = 0.1;
  cfg.restart_unit = 37;
  cfg.default_phase = true;

  auto run = [&cfg]() {
    Solver s;
    s.set_config(cfg);
    add_php(s, 7, 6);
    EXPECT_EQ(s.solve(), Result::kUnsat);
    return std::pair{s.conflicts(), s.decisions()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

TEST(SatSolverCore, DiversifiedConfigsStayCorrect) {
  // Whatever the branching noise, verdicts must not change.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    SolverConfig cfg;
    cfg.seed = seed;
    cfg.random_branch_freq = 0.5;
    cfg.restart_unit = 3;
    cfg.default_phase = (seed & 1) != 0;

    Solver uns;
    uns.set_config(cfg);
    add_php(uns, 6, 5);
    EXPECT_EQ(uns.solve(), Result::kUnsat) << "seed " << seed;

    Solver sat_s;
    sat_s.set_config(cfg);
    add_php(sat_s, 5, 5);
    EXPECT_EQ(sat_s.solve(), Result::kSat) << "seed " << seed;
  }
}

TEST(SatSolverCore, PhaseSavingAndSetPhase) {
  Solver s;
  SolverConfig cfg;
  cfg.default_phase = true;
  s.set_config(cfg);
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_binary(pos(a), pos(b));  // both free; decisions follow the phase
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));

  s.set_phase(a, false);
  const Lit keep_b[] = {pos(b)};  // keep the clause satisfied regardless
  ASSERT_EQ(s.solve(keep_b), Result::kSat);
  EXPECT_FALSE(s.value(a));
}

TEST(SatSolverCore, StatisticsTrackClauseLifecycle) {
  Solver s;
  const std::int64_t before = s.clauses_added();
  add_php(s, 5, 4);
  const std::int64_t submitted = s.clauses_added() - before;
  EXPECT_EQ(submitted, 5 + 4 * (5 * 4) / 2);  // at-least + at-most clauses
  EXPECT_GT(s.live_clauses(), 0);
  ASSERT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GE(s.peak_clauses(), s.live_clauses());
  EXPECT_GT(s.propagations(), 0);
}

}  // namespace
}  // namespace stt::sat
