#include "attack/sat_attack.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/dip_encode.hpp"
#include "attack/encode.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stt {

namespace {

obs::Counter& dip_counter() {
  static obs::Counter& c = obs::Metrics::global().counter("sat.dips");
  return c;
}

// Solver internals as stable counters. Published once per attack, from the
// solvers whose trajectory is --jobs-independent (the canonical member and
// the key-extraction solve), never from the propagation loop.
void publish_solver_stats(const sat::Solver& s) {
  static obs::Counter& conflicts =
      obs::Metrics::global().counter("sat.conflicts");
  static obs::Counter& propagations =
      obs::Metrics::global().counter("sat.propagations");
  static obs::Counter& restarts =
      obs::Metrics::global().counter("sat.restarts");
  static obs::Counter& reductions =
      obs::Metrics::global().counter("sat.db_reductions");
  conflicts.add(static_cast<std::uint64_t>(s.conflicts()));
  propagations.add(static_cast<std::uint64_t>(s.propagations()));
  restarts.add(static_cast<std::uint64_t>(s.restarts()));
  reductions.add(static_cast<std::uint64_t>(s.db_reductions()));
}

double remaining_deadline(const Timer& timer, const SatAttackOptions& opt) {
  return std::max(0.0, opt.time_limit_s - timer.seconds());
}

void extract_key(const sat::Solver& solver,
                 const std::map<std::string, std::vector<sat::Var>>& key_vars,
                 LutKey& key) {
  for (const auto& [name, vars] : key_vars) {
    std::uint64_t mask = 0;
    for (std::size_t row = 0; row < vars.size(); ++row) {
      if (solver.value(vars[row])) mask |= (1ull << row);
    }
    key[name] = mask;
  }
}

/// One portfolio member: a full miter encoding plus its cone-pruned
/// incremental pair encoder. Members differ only in SolverConfig.
struct Member {
  int index = 0;
  sat::Solver solver;
  EncodedCircuit copy_a;
  EncodedCircuit copy_b;
  sat::Var miter = -1;
  std::unique_ptr<DipEncoder> enc;
  sat::Result verdict = sat::Result::kUnknown;
  bool parked = false;  ///< returned a (discarded) SAT model this call
};

sat::SolverConfig member_config(int index, std::uint64_t seed) {
  sat::SolverConfig cfg;
  if (index == 0) return cfg;  // canonical member: pure deterministic VSIDS
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index)));
  cfg.seed = rng();
  static constexpr int kUnits[] = {50, 150, 300, 75};
  cfg.restart_unit = kUnits[(index - 1) % 4];
  cfg.random_branch_freq = 0.02;
  cfg.default_phase = (index % 2) == 1;
  return cfg;
}

/// An oracle pair fed to every member, recorded so the final key solve can
/// replay the exact same constraint set into a fresh solver.
struct RecordedPair {
  std::vector<bool> in;
  std::vector<bool> out;
  bool units_only = false;
};

// The cone-pruned engine with simulation-guided warm-up and the
// deterministic lockstep portfolio (see sat_attack.hpp for the contract).
SatAttackResult run_pruned(const Netlist& hybrid, ScanOracle& oracle,
                           const SatAttackOptions& opt) {
  SatAttackResult result;
  const Timer timer;
  const std::uint64_t queries_before = oracle.queries();
  const int S = std::max(1, opt.portfolio);
  result.stats.portfolio = S;

  std::vector<std::unique_ptr<Member>> members;
  for (int m = 0; m < S; ++m) {
    auto mem = std::make_unique<Member>();
    mem->index = m;
    mem->solver.set_config(member_config(m, opt.seed));
    EncodeOptions symbolic;
    symbolic.symbolic_keys = true;
    mem->copy_a = encode_comb(mem->solver, hybrid, symbolic);
    EncodeOptions opt_b = symbolic;
    opt_b.share_inputs = &mem->copy_a.input_vars;
    // Cone-of-influence sharing: only the key-tainted cone is duplicated
    // in the second copy; key-free logic is encoded once and the miter
    // skips outputs that cannot differ.
    opt_b.share_key_free_cells = &mem->copy_a.cell_var;
    mem->copy_b = encode_comb(mem->solver, hybrid, opt_b);
    mem->miter = add_miter(mem->solver, mem->copy_a, mem->copy_b);
    if (mem->copy_a.key_vars.empty()) {
      throw std::invalid_argument("run_sat_attack: netlist has no LUTs");
    }
    mem->enc = std::make_unique<DipEncoder>(
        mem->solver, hybrid,
        std::vector<const DipEncoder::KeyVars*>{&mem->copy_a.key_vars,
                                                &mem->copy_b.key_vars});
    members.push_back(std::move(mem));
  }
  Member& canon = *members[0];
  std::vector<RecordedPair> recorded;

  // Simulation-guided warm-up: flood the oracle with word-parallel random
  // patterns; outputs that fold to single key-row literals become free unit
  // constraints, and a bounded number of still-complex patterns are cone-
  // encoded to seed the CNF.
  if (opt.warmup_words > 0) {
    STTLOCK_SPAN("attack", "sat_warmup");
    const std::size_t W = static_cast<std::size_t>(opt.warmup_words);
    const std::size_t n_in = oracle.num_inputs();
    const std::size_t n_out = oracle.num_outputs();
    Rng rng(opt.seed ^ 0x57a57a11u);
    std::vector<std::uint64_t> stim(n_in * W);
    std::vector<std::uint64_t> resp(n_out * W);
    for (std::uint64_t& w : stim) w = rng();
    oracle.query_batch(W, stim, resp, opt.parallel);

    int encoded_pairs = 0;
    std::vector<bool> in(n_in);
    std::vector<bool> out(n_out);
    for (std::size_t w = 0; w < W; ++w) {
      for (int b = 0; b < 64; ++b) {
        for (std::size_t i = 0; i < n_in; ++i) {
          in[i] = (stim[i * W + w] >> b) & 1ull;
        }
        for (std::size_t o = 0; o < n_out; ++o) {
          out[o] = (resp[o * W + w] >> b) & 1ull;
        }
        const DipEncodeStats st = canon.enc->add_io_pair(in, out, true);
        for (int h = 1; h < S; ++h) members[h]->enc->add_io_pair(in, out, true);
        recorded.push_back({in, out, true});
        result.stats.key_rows_resolved += st.key_rows_resolved;
        if (st.complex_outputs > 0 && encoded_pairs < opt.warmup_pair_limit) {
          const DipEncodeStats full = canon.enc->add_io_pair(in, out, false);
          for (int h = 1; h < S; ++h) {
            members[h]->enc->add_io_pair(in, out, false);
          }
          recorded.push_back({in, out, false});
          result.stats.key_rows_resolved += full.key_rows_resolved;
          ++encoded_pairs;
        }
      }
    }
    result.stats.warmup_pairs_encoded = encoded_pairs;
  }
  result.stats.cnf_initial_clauses = canon.solver.clauses_added();

  const auto run_slice = [&](Member& m) {
    m.solver.set_conflict_budget(opt.slice_conflicts);
    m.solver.set_deadline(remaining_deadline(timer, opt));
    const sat::Lit assume[] = {sat::pos(m.miter)};
    m.verdict = m.solver.solve(assume);
  };

  // One miter solve in deterministic lockstep rounds. Every SAT verdict is
  // canonical (member 0); helpers join from round 2 and may only land the
  // terminal, model-free UNSAT verdict early.
  const auto solve_portfolio = [&]() -> sat::Result {
    for (auto& m : members) {
      m->verdict = sat::Result::kUnknown;
      m->parked = false;
    }
    const std::int64_t call_start = canon.solver.conflicts();
    bool first_round = true;
    std::vector<Member*> active;
    while (true) {
      active.clear();
      active.push_back(&canon);
      if (!first_round) {
        for (int h = 1; h < S; ++h) {
          if (!members[h]->parked) active.push_back(members[h].get());
        }
      }
      if (opt.parallel && active.size() > 1) {
        opt.parallel->run(active.size(),
                          [&](std::size_t i) { run_slice(*active[i]); });
      } else {
        for (Member* m : active) run_slice(*m);
      }
      // Adoption in member-index order keeps the winner deterministic for a
      // fixed portfolio size regardless of thread interleaving.
      for (const Member* m : active) {
        if (m->verdict == sat::Result::kUnsat) {
          result.stats.unsat_winner = m->index;
          return sat::Result::kUnsat;
        }
      }
      if (canon.verdict == sat::Result::kSat) return sat::Result::kSat;
      for (Member* m : active) {
        if (m->index > 0 && m->verdict == sat::Result::kSat) m->parked = true;
      }
      // The canonical member is still undecided: check its stop cause.
      if (canon.solver.last_stop() == sat::StopCause::kDeadline ||
          timer.seconds() > opt.time_limit_s) {
        result.outcome = attack::Outcome::kTimedOut;
        return sat::Result::kUnknown;
      }
      if (canon.solver.conflicts() - call_start >= opt.work_budget) {
        result.outcome = attack::Outcome::kBudgetExhausted;
        return sat::Result::kUnknown;
      }
      first_round = false;
    }
  };

  bool no_dip_left = false;
  while (true) {
    if (timer.seconds() > opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    if (result.iterations >= opt.max_iterations) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    STTLOCK_SPAN("sat-dip", "dip");
    sat::Result r;
    {
      STTLOCK_SPAN("sat-dip", "solve");
      r = solve_portfolio();
    }
    if (r == sat::Result::kUnknown) break;  // outcome set inside
    if (r == sat::Result::kUnsat) {
      no_dip_left = true;
      break;
    }

    // SAT: read the canonical DIP, query the chip, constrain every member.
    ++result.iterations;
    dip_counter().add(1);
    std::vector<bool> dip(canon.copy_a.input_vars.size());
    for (std::size_t i = 0; i < dip.size(); ++i) {
      dip[i] = canon.solver.value(canon.copy_a.input_vars[i]);
    }
    const std::vector<bool> response = oracle.query(dip);
    STTLOCK_SPAN("sat-dip", "encode");
    const DipEncodeStats st = canon.enc->add_io_pair(dip, response, false);
    for (int h = 1; h < S; ++h) {
      members[h]->enc->add_io_pair(dip, response, false);
    }
    recorded.push_back({dip, response, false});
    result.stats.key_rows_resolved += st.key_rows_resolved;
  }

  // Canonical telemetry (identical across thread counts).
  publish_solver_stats(canon.solver);
  result.conflicts = canon.solver.conflicts();
  result.stats.decisions = canon.solver.decisions();
  result.stats.propagations = canon.solver.propagations();
  result.stats.learned = canon.solver.learned();
  result.stats.peak_clauses = canon.solver.peak_clauses();
  result.stats.cnf_dip_clauses =
      canon.solver.clauses_added() - result.stats.cnf_initial_clauses;
  result.stats.cnf_clauses_per_iter =
      result.iterations > 0 ? static_cast<double>(result.stats.cnf_dip_clauses) /
                                  result.iterations
                            : 0.0;

  if (no_dip_left) {
    // No distinguishing input remains: any key consistent with the observed
    // pairs is correct. Extract it from a fresh deterministic solver that
    // replays the recorded pairs against one symbolic copy, so the key
    // depends only on the (portfolio-independent) DIP set, never on the
    // helper members' internal state.
    sat::Solver fs;
    EncodeOptions symbolic;
    symbolic.symbolic_keys = true;
    const EncodedCircuit single = encode_comb(fs, hybrid, symbolic);
    DipEncoder fenc(fs, hybrid,
                    std::vector<const DipEncoder::KeyVars*>{&single.key_vars});
    for (const RecordedPair& p : recorded) {
      fenc.add_io_pair(p.in, p.out, p.units_only);
    }
    fs.set_conflict_budget(opt.work_budget);
    const sat::Result fr = fs.solve();
    publish_solver_stats(fs);
    result.conflicts += fs.conflicts();
    result.stats.decisions += fs.decisions();
    result.stats.propagations += fs.propagations();
    result.stats.learned += fs.learned();
    result.stats.peak_clauses =
        std::max(result.stats.peak_clauses, fs.peak_clauses());
    if (fr == sat::Result::kSat) {
      extract_key(fs, single.key_vars, result.key);
      result.outcome = attack::Outcome::kSolved;
    } else if (fr == sat::Result::kUnknown) {
      result.outcome = attack::Outcome::kBudgetExhausted;
    }
  }

  result.queries = oracle.queries() - queries_before;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace

SatAttackResult run_sat_attack(const Netlist& hybrid, ScanOracle& oracle,
                               const SatAttackOptions& opt) {
  std::optional<obs::Span> root;
  if (opt.trace) root.emplace("attack", "sat");
  SatAttackResult result = run_pruned(hybrid, oracle, opt);
  result.span_id = root ? root->id() : 0;
  return result;
}

SatAttackResult run_sat_attack(const Netlist& hybrid,
                               const Netlist& configured,
                               const SatAttackOptions& opt) {
  ScanOracle oracle(configured);
  return run_sat_attack(hybrid, oracle, opt);
}

}  // namespace stt
