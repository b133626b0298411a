// A from-scratch CDCL SAT solver (MiniSat-style).
//
// The oracle-guided SAT attack (attack/sat_attack.*) and the equivalence
// checker need incremental SAT over Tseitin-encoded netlists. The solver
// implements the standard toolkit: two-literal watching with blocker
// literals, dedicated binary-clause watch lists, first-UIP conflict
// analysis with recursive learnt-clause minimization, VSIDS decision
// heuristic with exponential decay, phase saving across incremental calls,
// Luby restarts, and learnt-clause database reduction. Clauses live inline
// in one flat arena (see the layout note at `ClauseRef`).
// `solve()` accepts assumption literals plus two resource caps — a conflict
// budget and a wall-clock deadline — so attacks can run under a resource
// cap and report "undecided" (with the cause) rather than hanging.
//
// `SolverConfig` diversifies restart cadence, decision randomization and
// default polarity; the attack portfolio races differently-configured
// solvers over the same clause set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace stt::sat {

/// Variables are dense 0-based indices created by `Solver::new_var`.
using Var = std::int32_t;

/// A literal packs (var << 1) | negated.
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(Var v, bool negated) : code_((v << 1) | (negated ? 1 : 0)) {}

  Var var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  Lit operator~() const { return from_code(code_ ^ 1); }
  bool operator==(const Lit& o) const { return code_ == o.code_; }
  bool operator!=(const Lit& o) const { return code_ != o.code_; }

  std::int32_t code() const { return code_; }
  static Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }
  static Lit undef() { return {}; }

 private:
  std::int32_t code_;
};

inline Lit pos(Var v) { return Lit(v, false); }
inline Lit neg(Var v) { return Lit(v, true); }

enum class Result { kSat, kUnsat, kUnknown };

/// Why the last solve() returned kUnknown.
enum class StopCause : std::uint8_t { kNone, kConflictBudget, kDeadline };

/// The Luby restart sequence (0-indexed): 1,1,2,1,1,2,4,1,1,2,...
/// Exposed for tests and for callers sizing conflict slices.
std::int64_t luby_sequence(std::int64_t i);

/// Heuristic knobs that diversify solver behaviour without affecting
/// soundness. All defaults reproduce the classic deterministic solver; a
/// nonzero seed enables randomized decision tie-breaking.
struct SolverConfig {
  std::uint64_t seed = 0;            ///< PRNG seed (0 keeps decisions pure VSIDS)
  double random_branch_freq = 0.0;   ///< probability of a random decision var
  int restart_unit = 100;            ///< conflicts per Luby restart unit
  bool default_phase = false;        ///< initial saved polarity of variables
};

class Solver {
 public:
  Solver();

  Var new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Install heuristic knobs. Resets saved phases of existing variables to
  /// the configured default; call before solving for reproducible runs.
  void set_config(const SolverConfig& config);

  /// Add a clause over existing variables. Returns false if the formula is
  /// already unsatisfiable at level 0.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits);
  bool add_unit(Lit l) { return add_clause({l}); }
  bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
  bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

  /// Solve under optional assumptions. kUnknown when the conflict budget or
  /// the deadline (if set) is exhausted; `last_stop()` tells which.
  Result solve(std::span<const Lit> assumptions = {});

  /// Model access after kSat.
  bool value(Var v) const;

  /// Override the saved phase of a variable (warm-start hint).
  void set_phase(Var v, bool phase) { phase_[v] = phase; }

  /// Limit the number of conflicts for the next solve() calls; <0 disables.
  void set_conflict_budget(std::int64_t budget) { conflict_budget_ = budget; }

  /// Abort solve() (returning kUnknown) once `seconds_from_now` of wall
  /// clock have elapsed. Checked every 256 conflicts, so overshoot is
  /// bounded by one conflict batch; a conflict-free solve is never
  /// interrupted (it terminates quickly by construction). Negative
  /// disables. The deadline persists across solve() calls until reset.
  void set_deadline(double seconds_from_now);

  /// Why the most recent solve() stopped without an answer.
  StopCause last_stop() const { return last_stop_; }

  // Statistics (cumulative).
  std::int64_t conflicts() const { return stats_conflicts_; }
  std::int64_t decisions() const { return stats_decisions_; }
  std::int64_t propagations() const { return stats_propagations_; }
  /// Clauses ever learnt from conflicts (monotone; deletion does not undo).
  std::int64_t learned() const { return stats_learned_; }
  /// Problem clauses submitted through add_clause (before simplification).
  std::int64_t clauses_added() const { return stats_clauses_added_; }
  /// Stored, non-deleted clauses right now (problem + learnt).
  std::int64_t live_clauses() const { return live_clauses_; }
  /// High-water mark of live_clauses().
  std::int64_t peak_clauses() const { return peak_clauses_; }
  /// Times the learnt database was halved.
  std::int64_t db_reductions() const { return stats_db_reductions_; }
  /// Luby restarts taken inside solve() (the final model or refutation
  /// does not count as one).
  std::int64_t restarts() const { return stats_restarts_; }

 private:
  enum LBool : std::uint8_t { kTrue, kFalse, kUndef };

  // Clause arena. Every stored clause (problem or learnt, size >= 2) lives
  // inline in one flat word array, addressed by its first word's offset:
  //   [0]     header: size << 2 | deleted << 1 | learnt
  //   [1..2]  activity (a double, copied in and out with memcpy)
  //   [3..]   literal codes, the two watched literals first
  // Clauses sit in creation order. reduce_db() marks clauses deleted and
  // then compacts the arena in place, order-preserving, so creation order
  // (which reduce_db's candidate list and rebuild_watches() rely on)
  // survives every collection.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause = ~ClauseRef{0};
  static constexpr std::uint32_t kHeaderWords = 3;
  static constexpr std::uint32_t kLearntBit = 1u;
  static constexpr std::uint32_t kDeletedBit = 2u;

  /// Watcher for clauses of size >= 3: `blocker` is some other literal of
  /// the clause; when it is already true the clause is satisfied and the
  /// watch list entry is skipped without touching the clause memory.
  struct Watch {
    ClauseRef cr;
    Lit blocker;
  };

  /// Watcher for binary clauses: the clause is implicit in the list entry
  /// (the other literal + the backing clause for conflict analysis), so
  /// propagation over binaries never dereferences clause storage and the
  /// entry never migrates between lists.
  struct BinWatch {
    Lit other;
    ClauseRef cr;
  };

  LBool lit_value(Lit l) const { return lit_vals_[l.code()]; }

  std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr] >> 2; }
  bool clause_learnt(ClauseRef cr) const { return arena_[cr] & kLearntBit; }
  bool clause_deleted(ClauseRef cr) const {
    return arena_[cr] & kDeletedBit;
  }
  /// Words the clause at `cr` occupies, header included.
  std::uint32_t clause_words(ClauseRef cr) const {
    return kHeaderWords + clause_size(cr);
  }
  Lit clause_lit(ClauseRef cr, std::uint32_t k) const {
    return Lit::from_code(
        static_cast<std::int32_t>(arena_[cr + kHeaderWords + k]));
  }
  double clause_activity(ClauseRef cr) const;
  void set_clause_activity(ClauseRef cr, double a);

  ClauseRef store_clause(std::span<const Lit> lits, bool learnt);
  // Defined here so the propagation loop inlines it.
  void enqueue(Lit l, ClauseRef reason) {
    lit_vals_[l.code()] = kTrue;
    lit_vals_[l.code() ^ 1] = kFalse;
    level_[l.var()] = static_cast<int>(trail_lim_.size());
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }
  ClauseRef propagate();
  void analyze(ClauseRef confl, std::vector<Lit>& learnt, int& bt_level);
  void backtrack(int level, bool save_phases = true);
  Lit pick_branch();
  void bump_var(Var v);
  void bump_clause(ClauseRef cr);
  void decay_activities();
  void reduce_db();
  void collect_garbage();
  void rebuild_watches();
  void attach(ClauseRef cr);
  bool lit_redundant(Lit l, std::uint32_t levels_mask);
  std::uint32_t abstract_level(Var v) const {
    return 1u << (level_[v] & 31);
  }
  std::uint64_t next_random();
  bool deadline_expired() const;

  // Heap with positions for VSIDS.
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);
  bool heap_contains(Var v) const { return heap_pos_[v] >= 0; }

  std::vector<std::uint32_t> arena_;
  /// Clauses ever stored, deleted ones included: the learnt-database limit
  /// scales with it.
  std::int64_t clauses_stored_ = 0;
  std::vector<std::vector<Watch>> watches_;        // indexed by lit code
  std::vector<std::vector<BinWatch>> bin_watches_;  // indexed by lit code
  std::vector<LBool> lit_vals_;  ///< indexed by lit code
  std::vector<std::uint8_t> phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;

  std::vector<std::uint8_t> seen_;
  std::vector<Var> analyze_clear_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> add_scratch_;

  SolverConfig config_;
  std::uint64_t rng_state_ = 0;

  bool has_deadline_ = false;
  std::int64_t deadline_ns_ = 0;  ///< steady_clock epoch nanoseconds

  std::int64_t conflict_budget_ = -1;
  StopCause last_stop_ = StopCause::kNone;
  std::int64_t stats_conflicts_ = 0;
  std::int64_t stats_decisions_ = 0;
  std::int64_t stats_propagations_ = 0;
  std::int64_t stats_learned_ = 0;
  std::int64_t stats_clauses_added_ = 0;
  std::int64_t stats_db_reductions_ = 0;
  std::int64_t stats_restarts_ = 0;
  std::int64_t live_clauses_ = 0;
  std::int64_t peak_clauses_ = 0;
  std::int64_t learnt_count_ = 0;  ///< live learnt clauses (reduction policy)
  bool ok_ = true;
};

}  // namespace stt::sat
