// Oracle-guided attack-engine throughput: the perf trajectory of the
// cone-pruned incremental DIP encoder, the simulation-guided warm-up, and
// the solver portfolio against the seed's naive re-encoding loop.
//
// Four modes run the *same* attack (same locked circuit, same oracle):
//  * naive      — the seed's engine: two full symbolic copies re-encoded
//                 per DIP (`run_naive` below; this bench is its only home);
//  * pruned     — cone-pruned constant-folded DIP encoding, no warm-up;
//  * pruned_sim — cone pruning plus the word-parallel simulation warm-up;
//  * portfolio  — pruned_sim with a 3-member solver portfolio racing the
//                 UNSAT proofs on the runtime ThreadPool.
//
// Every mode must recover a functionally correct key: each recovered key
// is applied to the attacker's view and the resulting chip is driven with
// one shared random word batch; the folded response checksums must be
// identical across modes and equal to the reference chip's. On top of the
// checksum, pruned_sim and portfolio must report identical iterations,
// queries, and key (the engine's determinism contract). JSON goes to
// BENCH_sat_perf.json (override with --out) so CI can archive the
// trajectory. Each mode row carries props_per_s, the canonical solver's
// propagations per second of attack wall-clock. Two in-binary gates: pruned
// and pruned_sim must each add fewer CNF clauses per DIP than naive, and
// pruned_sim must beat naive on wall-clock by --min-speedup (default 5x,
// the acceptance bar, on the full-size default benchmark; 2x on the
// seconds-scale --smoke configuration).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/encode.hpp"
#include "attack/oracle.hpp"
#include "attack/sat.hpp"
#include "attack/sat_attack.hpp"
#include "core/hybrid.hpp"
#include "core/selection.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace stt;

constexpr std::uint64_t kSeed = 20160605;

struct ModeResult {
  std::string name;
  SatAttackResult attack;
  std::uint64_t checksum = 0;
};

std::uint64_t fold(std::uint64_t acc, std::span<const std::uint64_t> words) {
  for (const std::uint64_t w : words) {
    acc = (acc ^ w) * 0x9e3779b97f4a7c15ull;
    acc ^= acc >> 29;
  }
  return acc;
}

// Functional digest of a configured netlist: responses to a fixed random
// word batch, folded. Two chips agree on the digest iff they agree on
// every one of the 64*words probed patterns.
std::uint64_t functional_checksum(const Netlist& chip, std::size_t words) {
  ScanOracle oracle(chip);
  const std::size_t n_in = oracle.num_inputs();
  const std::size_t n_out = oracle.num_outputs();
  Rng rng(kSeed ^ 0xc0de5eedull);
  std::vector<std::uint64_t> in(n_in * words);
  for (auto& w : in) w = rng();
  std::vector<std::uint64_t> out(n_out * words);
  oracle.query_batch(words, in, out, nullptr);
  return fold(0, out);
}

// Pin an encoded copy's inputs to a concrete pattern and its outputs to the
// oracle's response.
void constrain_io(sat::Solver& solver, const EncodedCircuit& enc,
                  const std::vector<bool>& in, const std::vector<bool>& out) {
  for (std::size_t i = 0; i < enc.input_vars.size(); ++i) {
    solver.add_unit(in[i] ? sat::pos(enc.input_vars[i])
                          : sat::neg(enc.input_vars[i]));
  }
  for (std::size_t i = 0; i < enc.output_vars.size(); ++i) {
    solver.add_unit(out[i] ? sat::pos(enc.output_vars[i])
                           : sat::neg(enc.output_vars[i]));
  }
}

// The seed's SAT-attack engine, the reference the pruned modes are gated
// against: two full symbolic copies, one solver, and two more full copies
// re-encoded per DIP with the observed I/O pinned. The wall-clock limit is
// threaded into the solver as a deadline; warm-up and portfolio options
// are ignored.
SatAttackResult run_naive(const Netlist& hybrid, ScanOracle& oracle,
                          const SatAttackOptions& opt) {
  SatAttackResult result;
  const Timer timer;
  const std::uint64_t queries_before = oracle.queries();

  sat::Solver solver;
  EncodeOptions symbolic;
  symbolic.symbolic_keys = true;
  const EncodedCircuit copy_a = encode_comb(solver, hybrid, symbolic);
  EncodeOptions opt_b = symbolic;
  opt_b.share_inputs = &copy_a.input_vars;
  const EncodedCircuit copy_b = encode_comb(solver, hybrid, opt_b);
  const sat::Var miter = add_miter(solver, copy_a, copy_b);

  if (copy_a.key_vars.empty()) {
    throw std::invalid_argument("run_naive: netlist has no LUTs");
  }
  result.stats.cnf_initial_clauses = solver.clauses_added();

  const auto note_unknown = [&]() {
    result.outcome = solver.last_stop() == sat::StopCause::kDeadline
                         ? attack::Outcome::kTimedOut
                         : attack::Outcome::kBudgetExhausted;
  };

  const sat::Lit assume_diff[] = {sat::pos(miter)};
  while (true) {
    if (timer.seconds() > opt.time_limit_s) {
      result.outcome = attack::Outcome::kTimedOut;
      break;
    }
    if (result.iterations >= opt.max_iterations) {
      result.outcome = attack::Outcome::kBudgetExhausted;
      break;
    }
    solver.set_conflict_budget(opt.work_budget);
    solver.set_deadline(std::max(0.0, opt.time_limit_s - timer.seconds()));
    const sat::Result r = solver.solve(assume_diff);
    if (r == sat::Result::kUnknown) {
      note_unknown();
      break;
    }
    if (r == sat::Result::kUnsat) {
      // No distinguishing input remains: extract any consistent key.
      solver.set_conflict_budget(opt.work_budget);
      const sat::Result final_r = solver.solve();
      if (final_r != sat::Result::kSat) {
        if (final_r == sat::Result::kUnknown) note_unknown();
        break;
      }
      for (const auto& [name, vars] : copy_a.key_vars) {
        std::uint64_t mask = 0;
        for (std::size_t row = 0; row < vars.size(); ++row) {
          if (solver.value(vars[row])) mask |= (1ull << row);
        }
        result.key[name] = mask;
      }
      result.outcome = attack::Outcome::kSolved;
      break;
    }

    // SAT: read the DIP, query the chip, constrain both key sets.
    ++result.iterations;
    std::vector<bool> dip(copy_a.input_vars.size());
    for (std::size_t i = 0; i < dip.size(); ++i) {
      dip[i] = solver.value(copy_a.input_vars[i]);
    }
    const std::vector<bool> response = oracle.query(dip);

    EncodeOptions io_a;
    io_a.symbolic_keys = true;
    io_a.share_keys = &copy_a.key_vars;
    constrain_io(solver, encode_comb(solver, hybrid, io_a), dip, response);
    EncodeOptions io_b;
    io_b.symbolic_keys = true;
    io_b.share_keys = &copy_b.key_vars;
    constrain_io(solver, encode_comb(solver, hybrid, io_b), dip, response);
  }

  result.queries = oracle.queries() - queries_before;
  result.conflicts = solver.conflicts();
  result.stats.decisions = solver.decisions();
  result.stats.propagations = solver.propagations();
  result.stats.learned = solver.learned();
  result.stats.peak_clauses = solver.peak_clauses();
  result.stats.cnf_dip_clauses =
      solver.clauses_added() - result.stats.cnf_initial_clauses;
  result.stats.cnf_clauses_per_iter =
      result.iterations > 0 ? static_cast<double>(result.stats.cnf_dip_clauses) /
                                  result.iterations
                            : 0.0;
  result.elapsed_s = timer.seconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_option("--benchmark",
                  "ISCAS'89 profile name (default s13207; s953 with --smoke)");
  args.add_option("--algorithm", "independent | dependent | parametric",
                  "dependent");
  args.add_option("--time-limit", "per-mode wall-clock cap in seconds", "300");
  args.add_option("--min-speedup",
                  "gate: pruned_sim vs naive (default 5; 2 with --smoke)");
  args.add_option("--jobs", "threads for the portfolio mode (0 = hardware)",
                  "0");
  args.add_option("--out", "output JSON path", "BENCH_sat_perf.json");
  args.add_flag("--smoke", "seconds-scale CI configuration");
  try {
    args.parse({argv + 1, argv + argc});
  } catch (const ArgError& e) {
    std::fprintf(stderr, "bench_sat_perf: %s\n%s", e.what(),
                 args.help().c_str());
    return 2;
  }

  const bool smoke = args.flag("--smoke");
  const std::string bench_name =
      args.get_or("--benchmark", smoke ? "s953" : "s13207");
  const auto profile = find_profile(bench_name);
  if (!profile) {
    std::fprintf(stderr, "bench_sat_perf: unknown benchmark %s\n",
                 bench_name.c_str());
    return 2;
  }
  const std::string alg_name = args.get("--algorithm");
  SelectionAlgorithm alg;
  if (alg_name == "independent") {
    alg = SelectionAlgorithm::kIndependent;
  } else if (alg_name == "dependent") {
    alg = SelectionAlgorithm::kDependent;
  } else if (alg_name == "parametric") {
    alg = SelectionAlgorithm::kParametric;
  } else {
    std::fprintf(stderr, "bench_sat_perf: unknown algorithm %s\n",
                 alg_name.c_str());
    return 2;
  }
  const double time_limit = args.get_double("--time-limit");
  // Small smoke circuits spend proportionally less time in the per-DIP
  // encoding that pruning removes, so the smoke bar sits lower.
  const double min_speedup =
      std::stod(args.get_or("--min-speedup", smoke ? "2" : "5"));

  // The defended chip: generated replica locked with the requested paper
  // algorithm; the attacker sees the redacted foundry view.
  Netlist chip = generate_circuit(*profile, kSeed);
  {
    const TechLibrary lib = TechLibrary::cmos90_stt();
    GateSelector selector(lib);
    SelectionOptions opt;
    opt.seed = kSeed;
    (void)selector.run(chip, alg, opt);
  }
  const Netlist view = foundry_view(chip);
  const std::size_t n_luts = chip.stats().luts;
  const std::size_t n_key_bits = key_bits(chip);
  const std::size_t checksum_words = 16;
  const std::uint64_t reference = functional_checksum(chip, checksum_words);

  const unsigned jobs = static_cast<unsigned>(args.get_int("--jobs"));
  ThreadPool pool(jobs);
  ThreadPoolParallelFor par(pool);

  std::vector<ModeResult> modes;
  const auto run_mode = [&](const std::string& name,
                            const SatAttackOptions& opt, bool naive = false) {
    ScanOracle oracle(chip);
    ModeResult m{name,
                 naive ? run_naive(view, oracle, opt)
                       : run_sat_attack(view, oracle, opt),
                 0};
    if (m.attack.success()) {
      Netlist recovered = view;
      apply_key(recovered, m.attack.key);
      m.checksum = functional_checksum(recovered, checksum_words);
    }
    std::fprintf(stderr,
                 "  %-10s %s: %d DIPs, %llu queries, %lld conflicts, "
                 "%.1f clauses/iter, %.3fs\n",
                 name.c_str(),
                 m.attack.success()
                     ? "ok"
                     : (m.attack.timed_out() ? "TIMEOUT" : "BUDGET"),
                 m.attack.iterations,
                 static_cast<unsigned long long>(m.attack.queries),
                 static_cast<long long>(m.attack.conflicts),
                 m.attack.stats.cnf_clauses_per_iter, m.attack.elapsed_s);
    modes.push_back(m);
  };

  SatAttackOptions base;
  base.time_limit_s = time_limit;
  base.max_iterations = 100000;

  run_mode("naive", base, /*naive=*/true);

  SatAttackOptions pruned = base;
  pruned.warmup_words = 0;
  run_mode("pruned", pruned);

  SatAttackOptions pruned_sim = base;
  run_mode("pruned_sim", pruned_sim);

  SatAttackOptions portfolio = pruned_sim;
  portfolio.portfolio = 3;
  portfolio.parallel = &par;
  run_mode("portfolio", portfolio);

  for (const ModeResult& m : modes) {
    if (!m.attack.success()) {
      std::fprintf(stderr, "bench_sat_perf: mode %s failed to recover a key\n",
                   m.name.c_str());
      return 1;
    }
    if (m.checksum != reference) {
      std::fprintf(stderr,
                   "bench_sat_perf: mode %s recovered a functionally WRONG "
                   "key (checksum %016llx vs %016llx)\n",
                   m.name.c_str(), static_cast<unsigned long long>(m.checksum),
                   static_cast<unsigned long long>(reference));
      return 1;
    }
  }

  // Determinism contract: the portfolio must not change the attack's
  // observable trajectory, only its wall-clock.
  const SatAttackResult& solo = modes[2].attack;
  const SatAttackResult& team = modes[3].attack;
  if (solo.iterations != team.iterations ||
      solo.queries != team.queries || solo.key != team.key) {
    std::fprintf(stderr,
                 "bench_sat_perf: portfolio changed the result "
                 "(%d/%d DIPs, %llu/%llu queries) — determinism broken\n",
                 solo.iterations, team.iterations,
                 static_cast<unsigned long long>(solo.queries),
                 static_cast<unsigned long long>(team.queries));
    return 1;
  }

  // The pruned encoder's reason to exist: per-DIP CNF growth tracks the
  // key cone, not the circuit, so it must stay below the naive engine's.
  const SatAttackResult& naive = modes[0].attack;
  for (std::size_t i = 1; i <= 2; ++i) {
    const SatAttackResult& pruned = modes[i].attack;
    if (pruned.iterations > 0 && naive.iterations > 0 &&
        pruned.stats.cnf_clauses_per_iter >= naive.stats.cnf_clauses_per_iter) {
      std::fprintf(stderr,
                   "bench_sat_perf: mode %s adds %.1f clauses/DIP, not fewer "
                   "than naive's %.1f\n",
                   modes[i].name.c_str(), pruned.stats.cnf_clauses_per_iter,
                   naive.stats.cnf_clauses_per_iter);
      return 1;
    }
  }

  const double naive_s = naive.elapsed_s;
  std::string json = "{\n";
  json += "  \"benchmark\": \"" + profile->name + "\",\n";
  json += "  \"algorithm\": \"" + alg_name + "\",\n";
  json += "  \"luts\": " + std::to_string(n_luts) + ",\n";
  json += "  \"key_bits\": " + std::to_string(n_key_bits) + ",\n";
  json += "  \"threads\": " + std::to_string(pool.size()) + ",\n";
  json += "  \"checksum\": \"" + std::to_string(reference) + "\",\n";
  json += "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"seconds\": %.6f, \"iterations\": %d, "
        "\"queries\": %llu, \"conflicts\": %lld, \"decisions\": %lld, "
        "\"propagations\": %lld, \"learned\": %lld, \"peak_clauses\": %lld, "
        "\"cnf_initial\": %lld, \"cnf_dip\": %lld, "
        "\"cnf_per_iter\": %.2f, \"key_rows_folded\": %d, "
        "\"props_per_s\": %.0f, \"speedup_vs_naive\": %.2f}%s\n",
        m.name.c_str(), m.attack.elapsed_s, m.attack.iterations,
        static_cast<unsigned long long>(m.attack.queries),
        static_cast<long long>(m.attack.conflicts),
        static_cast<long long>(m.attack.stats.decisions),
        static_cast<long long>(m.attack.stats.propagations),
        static_cast<long long>(m.attack.stats.learned),
        static_cast<long long>(m.attack.stats.peak_clauses),
        static_cast<long long>(m.attack.stats.cnf_initial_clauses),
        static_cast<long long>(m.attack.stats.cnf_dip_clauses),
        m.attack.stats.cnf_clauses_per_iter, m.attack.stats.key_rows_resolved,
        m.attack.elapsed_s > 0
            ? static_cast<double>(m.attack.stats.propagations) /
                  m.attack.elapsed_s
            : 0.0,
        m.attack.elapsed_s > 0 ? naive_s / m.attack.elapsed_s : 0.0,
        i + 1 < modes.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  const std::string out_path = args.get("--out");
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_sat_perf: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  // Acceptance gate: cone pruning + simulation warm-up must beat the naive
  // re-encoding loop by the issue's bar on wall-clock.
  const double sim_s = modes[2].attack.elapsed_s;
  if (sim_s > 0 && naive_s / sim_s < min_speedup) {
    std::fprintf(stderr,
                 "bench_sat_perf: pruned_sim speedup %.2fx below the %.1fx "
                 "gate\n",
                 naive_s / sim_s, min_speedup);
    return 1;
  }
  return 0;
}
