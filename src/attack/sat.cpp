#include "attack/sat.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace stt::sat {

namespace {

constexpr double kVarDecay = 1.0 / 0.95;
constexpr double kClauseDecay = 1.0 / 0.999;
constexpr double kRescale = 1e100;

// Deadline polling period: one wall-clock read per this many conflicts.
constexpr std::int64_t kDeadlineCheckMask = 255;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int64_t luby_sequence(std::int64_t i) {
  // Find the smallest complete binary sequence (size 2^seq - 1) holding i.
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i %= size;
  }
  return 1ll << seq;
}

Solver::Solver() = default;

void Solver::set_config(const SolverConfig& config) {
  config_ = config;
  if (config_.restart_unit < 1) config_.restart_unit = 1;
  rng_state_ = config.seed | 1ull;  // xorshift must not start at zero
  for (std::size_t v = 0; v < phase_.size(); ++v) {
    phase_[v] = config_.default_phase;
  }
}

std::uint64_t Solver::next_random() {
  std::uint64_t x = rng_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return rng_state_ = x;
}

void Solver::set_deadline(double seconds_from_now) {
  if (seconds_from_now < 0) {
    has_deadline_ = false;
    return;
  }
  // Saturate: a huge limit (e.g. a campaign's "effectively unbounded")
  // must not overflow the nanosecond epoch into an already-expired one.
  const double ns = seconds_from_now * 1e9;
  if (ns >= 9.0e18 - static_cast<double>(steady_now_ns())) {
    has_deadline_ = false;
    return;
  }
  has_deadline_ = true;
  deadline_ns_ = steady_now_ns() + static_cast<std::int64_t>(ns);
}

bool Solver::deadline_expired() const {
  return has_deadline_ && steady_now_ns() >= deadline_ns_;
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(activity_.size());
  activity_.push_back(0.0);
  lit_vals_.push_back(kUndef);
  lit_vals_.push_back(kUndef);
  phase_.push_back(config_.default_phase);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] >= 0) return;
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

void Solver::heap_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > kRescale) {
    for (double& a : activity_) a /= kRescale;
    var_inc_ /= kRescale;
  }
  if (heap_pos_[v] >= 0) heap_up(heap_pos_[v]);
}

double Solver::clause_activity(ClauseRef cr) const {
  double a;
  std::memcpy(&a, &arena_[cr + 1], sizeof a);
  return a;
}

void Solver::set_clause_activity(ClauseRef cr, double a) {
  std::memcpy(&arena_[cr + 1], &a, sizeof a);
}

void Solver::bump_clause(ClauseRef cr) {
  const double a = clause_activity(cr) + clause_inc_;
  set_clause_activity(cr, a);
  if (a > kRescale) {
    for (ClauseRef c = 0; c < arena_.size(); c += clause_words(c)) {
      if (clause_learnt(c)) {
        set_clause_activity(c, clause_activity(c) / kRescale);
      }
    }
    clause_inc_ /= kRescale;
  }
}

void Solver::decay_activities() {
  var_inc_ *= kVarDecay;
  clause_inc_ *= kClauseDecay;
}

void Solver::attach(ClauseRef cr) {
  const Lit l0 = clause_lit(cr, 0);
  const Lit l1 = clause_lit(cr, 1);
  if (clause_size(cr) == 2) {
    bin_watches_[(~l0).code()].push_back({l1, cr});
    bin_watches_[(~l1).code()].push_back({l0, cr});
    return;
  }
  watches_[(~l0).code()].push_back({cr, l1});
  watches_[(~l1).code()].push_back({cr, l0});
}

Solver::ClauseRef Solver::store_clause(std::span<const Lit> lits,
                                       bool learnt) {
  const std::size_t words = kHeaderWords + lits.size();
  if (arena_.size() + words >= kNoClause) {
    throw std::length_error("sat::Solver: clause arena exhausted");
  }
  const auto cr = static_cast<ClauseRef>(arena_.size());
  arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 2 |
                   (learnt ? kLearntBit : 0u));
  arena_.push_back(0);
  arena_.push_back(0);  // activity 0.0
  for (const Lit l : lits) {
    arena_.push_back(static_cast<std::uint32_t>(l.code()));
  }
  ++clauses_stored_;
  ++live_clauses_;
  if (live_clauses_ > peak_clauses_) peak_clauses_ = live_clauses_;
  return cr;
}

bool Solver::add_clause(std::initializer_list<Lit> lits) {
  return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
}

bool Solver::add_clause(std::span<const Lit> lits_in) {
  if (!ok_) return false;
  ++stats_clauses_added_;
  backtrack(0);

  // Simplify at level 0: sort, dedupe, drop false literals, detect
  // tautologies and already-satisfied clauses. Survivors are compacted in
  // place (the write index never passes the read index).
  std::vector<Lit>& lits = add_scratch_;
  lits.assign(lits_in.begin(), lits_in.end());
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::size_t n = 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i] == lits[i + 1]) continue;
    if (i + 1 < lits.size() && lits[i] == ~lits[i + 1]) return true;  // taut
    const LBool v = lit_value(lits[i]);
    if (v == kTrue) return true;  // satisfied at level 0
    if (v == kFalse) continue;    // falsified at level 0: drop
    lits[n++] = lits[i];
  }

  if (n == 0) {
    ok_ = false;
    return false;
  }
  if (n == 1) {
    enqueue(lits[0], kNoClause);
    if (propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  attach(store_clause(std::span<const Lit>(lits.data(), n), false));
  return true;
}

Solver::ClauseRef Solver::propagate() {
  // Literal values are read by code straight from the arena words; the
  // value array never reallocates here (only new_var() grows it).
  const LBool* const vals = lit_vals_.data();
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_propagations_;

    // Binary clauses first: no watch migration, no clause dereference on
    // the satisfied path.
    for (const BinWatch& bw : bin_watches_[p.code()]) {
      const LBool v = vals[bw.other.code()];
      if (v == kTrue) continue;
      if (v == kFalse) {
        qhead_ = trail_.size();
        return bw.cr;
      }
      enqueue(bw.other, bw.cr);
    }

    // New watches always go to other lists (a replacement watch is never
    // false, so it is never ~p), so `ws` stays put while it is walked.
    std::vector<Watch>& ws = watches_[p.code()];
    const auto false_code = static_cast<std::uint32_t>((~p).code());
    Watch* i = ws.data();
    Watch* j = i;
    Watch* const end = i + ws.size();
    while (i != end) {
      // Blocker check: if some other literal of the clause is already true
      // the clause is satisfied; keep the watch and move on.
      if (vals[i->blocker.code()] == kTrue) {
        *j++ = *i++;
        continue;
      }
      const ClauseRef cr = i->cr;
      std::uint32_t* const lits = &arena_[cr + kHeaderWords];
      // Normalize: the falsified watcher (~p) sits at index 1.
      if (lits[0] == false_code) std::swap(lits[0], lits[1]);
      const std::uint32_t first = lits[0];
      const Lit first_lit = Lit::from_code(static_cast<std::int32_t>(first));
      if (vals[first] == kTrue) {
        *j++ = {cr, first_lit};
        ++i;
        continue;
      }
      // Look for a replacement watch.
      const std::uint32_t size = clause_size(cr);
      std::uint32_t k = 2;
      while (k < size && vals[lits[k]] == kFalse) ++k;
      if (k < size) {
        std::swap(lits[1], lits[k]);
        watches_[lits[1] ^ 1].push_back({cr, first_lit});
        ++i;  // moved to another watch list
        continue;
      }
      // Unit or conflicting.
      *j++ = {cr, first_lit};
      ++i;
      if (vals[first] == kFalse) {
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(first_lit, cr);
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return kNoClause;
}

void Solver::backtrack(int target_level, bool save_phases) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Lit p = trail_[i - 1];
    const Var v = p.var();
    if (save_phases) phase_[v] = !p.negated();
    lit_vals_[p.code()] = kUndef;
    lit_vals_[p.code() ^ 1] = kUndef;
    reason_[v] = kNoClause;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  qhead_ = trail_.size();
}

// Recursive (MiniSat-style) redundancy test: a non-asserting learnt literal
// can be dropped when its reason-side ancestry stays inside literals already
// marked `seen_` (i.e. already in the learnt clause). `levels_mask` is the
// abstraction of the decision levels present in the clause; any ancestor on
// a level outside it cannot be dominated, so the walk fails fast.
bool Solver::lit_redundant(Lit l, std::uint32_t levels_mask) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef cr = reason_[q.var()];
    const std::uint32_t size = clause_size(cr);
    for (std::uint32_t k = 0; k < size; ++k) {
      const Lit p = clause_lit(cr, k);
      const Var v = p.var();
      if (v == q.var() || seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoClause || (abstract_level(v) & levels_mask) == 0) {
        // Hit a decision or an unreachable level: not redundant. Unwind the
        // speculative marks added during this walk.
        for (std::size_t k = top; k < analyze_clear_.size(); ++k) {
          seen_[analyze_clear_[k]] = 0;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_clear_.push_back(v);
      analyze_stack_.push_back(p);
    }
  }
  return true;
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& learnt,
                     int& bt_level) {
  learnt.clear();
  learnt.push_back(Lit::undef());  // placeholder for the asserting literal

  const int current = static_cast<int>(trail_lim_.size());
  int counter = 0;
  Lit p = Lit::undef();
  std::size_t index = trail_.size();
  analyze_clear_.clear();

  do {
    if (clause_learnt(confl)) bump_clause(confl);
    const std::uint32_t size = clause_size(confl);
    for (std::uint32_t k = 0; k < size; ++k) {
      const Lit q = clause_lit(confl, k);
      if (p != Lit::undef() && q == p) continue;
      const Var v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        analyze_clear_.push_back(v);
        bump_var(v);
        if (level_[v] >= current) {
          ++counter;
        } else {
          learnt.push_back(q);
        }
      }
    }
    // Walk back to the next marked literal on the trail.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;
  seen_[p.var()] = 1;  // keep the UIP marked for the redundancy walks
  analyze_clear_.push_back(p.var());

  // Recursive clause minimization: drop literals whose reason ancestry is
  // dominated by the rest of the clause.
  std::uint32_t levels_mask = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    levels_mask |= abstract_level(learnt[i].var());
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Var v = learnt[i].var();
    if (reason_[v] == kNoClause || !lit_redundant(learnt[i], levels_mask)) {
      learnt[keep++] = learnt[i];
    }
  }
  learnt.resize(keep);

  // Backtrack level: highest level among the non-asserting literals; put
  // that literal at index 1 so it is watched.
  bt_level = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > bt_level) {
      bt_level = level_[learnt[i].var()];
      std::swap(learnt[1], learnt[i]);
    }
  }

  for (const Var v : analyze_clear_) seen_[v] = 0;
}

Lit Solver::pick_branch() {
  if (config_.random_branch_freq > 0.0 &&
      static_cast<double>(next_random() >> 11) * 0x1.0p-53 <
          config_.random_branch_freq &&
      num_vars() > 0) {
    const Var v = static_cast<Var>(next_random() % num_vars());
    if (lit_value(pos(v)) == kUndef) return Lit(v, !phase_[v]);
  }
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (lit_value(pos(v)) == kUndef) return Lit(v, !phase_[v]);
  }
  return Lit::undef();
}

void Solver::reduce_db() {
  // Only called at decision level 0 (right after a restart), so compacting
  // the arena and rebuilding watches is safe. Candidates are collected in
  // creation (arena) order before the sort, so the unstable sort sees the
  // same sequence on every build. The arena holds no deleted clause here:
  // each collection below removes the ones this call marks.
  std::vector<ClauseRef> learnts;
  for (ClauseRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
    if (clause_learnt(cr) && clause_size(cr) > 2) {
      learnts.push_back(cr);
    }
  }
  std::sort(learnts.begin(), learnts.end(), [this](ClauseRef a, ClauseRef b) {
    return clause_activity(a) < clause_activity(b);
  });
  const std::size_t drop = learnts.size() / 2;
  for (std::size_t i = 0; i < drop; ++i) {
    arena_[learnts[i]] |= kDeletedBit;
    --learnt_count_;
    --live_clauses_;
  }
  ++stats_db_reductions_;
  collect_garbage();
  rebuild_watches();
}

// Order-preserving in-place compaction of the arena. Every clause moves to
// a lower (or the same) offset, so one forward pass suffices. The only refs
// outside the watch lists (which rebuild_watches() regenerates) are the
// reasons of the level-0 trail. Conflict analysis never reads a level-0
// reason, so they are cleared rather than forwarded.
void Solver::collect_garbage() {
  for (const Lit p : trail_) reason_[p.var()] = kNoClause;
  ClauseRef to = 0;
  for (ClauseRef from = 0; from < arena_.size();) {
    const std::uint32_t words = clause_words(from);
    if (!clause_deleted(from)) {
      if (to != from) {
        std::copy(arena_.begin() + from, arena_.begin() + from + words,
                  arena_.begin() + to);
      }
      to += words;
    }
    from += words;
  }
  arena_.resize(to);
}

void Solver::rebuild_watches() {
  for (auto& w : watches_) w.clear();
  for (auto& w : bin_watches_) w.clear();
  for (ClauseRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
    attach(cr);
  }
}

bool Solver::value(Var v) const { return lit_value(pos(v)) == kTrue; }

Result Solver::solve(std::span<const Lit> assumptions) {
  last_stop_ = StopCause::kNone;
  if (!ok_) return Result::kUnsat;
  // The unwound assignments are the previous call's model, whose phases
  // were saved on the way out — re-saving here would clobber any
  // set_phase() hints given between calls.
  backtrack(0, /*save_phases=*/false);
  if (propagate() != kNoClause) {
    ok_ = false;
    return Result::kUnsat;
  }

  const std::int64_t budget_end =
      conflict_budget_ < 0 ? -1 : stats_conflicts_ + conflict_budget_;
  std::int64_t max_learnts = clauses_stored_ / 3 + 2000;
  std::int64_t restart_index = 0;
  std::int64_t restart_limit =
      luby_sequence(restart_index) * config_.restart_unit;
  std::int64_t conflicts_since_restart = 0;
  std::vector<Lit> learnt;

  while (true) {
    const ClauseRef confl = propagate();
    if (confl != kNoClause) {
      ++stats_conflicts_;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        ok_ = false;
        return Result::kUnsat;
      }
      int bt_level = 0;
      analyze(confl, learnt, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoClause);
      } else {
        const ClauseRef cr = store_clause(learnt, true);
        bump_clause(cr);
        attach(cr);
        enqueue(learnt[0], cr);
        ++learnt_count_;
      }
      ++stats_learned_;
      decay_activities();
      if (budget_end >= 0 && stats_conflicts_ >= budget_end) {
        backtrack(0);
        last_stop_ = StopCause::kConflictBudget;
        return Result::kUnknown;
      }
      if ((stats_conflicts_ & kDeadlineCheckMask) == 0 && deadline_expired()) {
        backtrack(0);
        last_stop_ = StopCause::kDeadline;
        return Result::kUnknown;
      }
      continue;
    }

    if (conflicts_since_restart >= restart_limit) {
      backtrack(0);
      ++stats_restarts_;
      ++restart_index;
      restart_limit = luby_sequence(restart_index) * config_.restart_unit;
      conflicts_since_restart = 0;
      if (learnt_count_ > max_learnts) {
        reduce_db();
        max_learnts = max_learnts + max_learnts / 10;
      }
      continue;
    }

    // Assumptions are replayed as forced decisions below the search.
    Lit next = Lit::undef();
    bool unsat_assumption = false;
    while (static_cast<std::size_t>(trail_lim_.size()) < assumptions.size()) {
      const Lit p = assumptions[trail_lim_.size()];
      const LBool v = lit_value(p);
      if (v == kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
      } else if (v == kFalse) {
        unsat_assumption = true;
        break;
      } else {
        next = p;
        break;
      }
    }
    if (unsat_assumption) {
      backtrack(0);
      return Result::kUnsat;
    }
    if (next == Lit::undef()) {
      next = pick_branch();
      if (next == Lit::undef()) {
        // Save the model's phases now: the next solve() unwinds the trail
        // without saving (see the entry backtrack).
        for (const Lit p : trail_) phase_[p.var()] = !p.negated();
        return Result::kSat;  // model in lit_vals_
      }
      ++stats_decisions_;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNoClause);
  }
}

}  // namespace stt::sat
