// Campaign benchmark harness: the compiled half of campaign_bench/run.py.
//
// Modes (run.py drives them; every mode writes only inside --work):
//   validate  process start -> validated grid: run_campaign on a shard that
//             owns no row, so the campaign resolves and checks the grid
//             (and opens the half-recorded store for flow_resume) and
//             returns. run.py times several of these as `setup_s`.
//   prepare   flow_resume only: record shard 1/2 of the grid into
//             <work>/half.store, the store every timed run resumes.
//   run       the end-to-end measurement: untraced run_campaign reps on
//             `jobs` threads until --seconds is spent.
//   trace     one untraced campaign, then a serial replay of the grid
//             points it executed through each layer's public function
//             under the benchmark's own spans, with the recorder on; then
//             every key a `sat` row claims is proven against the chip.
//             Writes the Chrome trace for run.py's per-layer roll-up.
//
// Each mode prints one JSON object on stdout; CSVs and the trace go to
// --work. The replay mirrors the campaign's seed derivation and stage
// bodies (runtime/campaign.cpp) so its rows can be compared with the
// campaign's row for row; run.py fails the run on any mismatch.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/encode.hpp"
#include "attack/registry.hpp"
#include "core/hybrid.hpp"
#include "defense/registry.hpp"
#include "obs/obs.hpp"
#include "runtime/campaign.hpp"
#include "runtime/report.hpp"
#include "runtime/store.hpp"
#include "sim/compiled.hpp"
#include "synth/generator.hpp"
#include "tech/tech_library.hpp"
#include "verify/finding.hpp"
#include "verify/lint.hpp"

namespace fs = std::filesystem;
using namespace stt;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::vector<std::string> benchmarks;  ///< heaviest first (see README.md)
  std::vector<std::string> defenses;
  std::string attack;
  int trials = 1;
  bool resume = false;  ///< set-up records shard 1/2; the timed run resumes
};

const std::vector<std::string> kAllDefenses = {
    "const", "dependent", "independent", "latch", "parametric", "xor"};

// Grid shapes and the measurements behind them are in README.md. `smoke`
// is a seconds-long variant of each grid for the self-test.
Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  if (name == "flow_resume") {
    w.benchmarks = smoke ? std::vector<std::string>{"s820", "s641"}
                         : std::vector<std::string>{
                               "s38584", "s15850a", "s13207", "s9234a",
                               "s5378a", "s1488", "s1238", "s1196",
                               "s953", "s832", "s820", "s641"};
    w.defenses = smoke ? std::vector<std::string>{"independent", "xor"}
                       : kAllDefenses;
    w.attack = "none";
    w.trials = smoke ? 1 : 6;
    w.resume = true;
  } else if (name == "attack_sat") {
    w.benchmarks = smoke ? std::vector<std::string>{"s641"}
                         : std::vector<std::string>{"s5378a", "s1488"};
    w.defenses = smoke ? std::vector<std::string>{"independent", "xor"}
                       : kAllDefenses;
    w.attack = "sat";
    w.trials = smoke ? 1 : 10;
  } else if (name == "attack_seq") {
    // Five-flip-flop circuits, one lock per circuit, many trials: seq has
    // no work budget in campaigns and its cost follows the circuit, not the
    // lock (README.md, "Hazards").
    w.benchmarks = smoke ? std::vector<std::string>{"s820"}
                         : std::vector<std::string>{"s832", "s820"};
    w.defenses = {"xor"};
    w.attack = "seq";
    w.trials = smoke ? 1 : 32;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

unsigned bench_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, hw));
}

CampaignSpec make_spec(const Workload& w, std::uint64_t seed) {
  CampaignSpec spec;
  spec.benchmarks = w.benchmarks;
  for (const std::string& kind : w.defenses) spec.defenses.push_back({kind, {}});
  spec.attacks = {w.attack};
  spec.trials = w.trials;
  spec.master_seed = seed;
  spec.jobs = bench_jobs();
  return spec;
}

std::size_t grid_rows(const Workload& w) {
  return w.benchmarks.size() * w.defenses.size() *
         static_cast<std::size_t>(w.trials);
}

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string results_csv(const std::vector<TrialRecord>& rows) {
  CampaignReport report;
  report.rows = rows;
  return campaign_results_csv(report);
}

/// Minimal JSON object writer for the one-line result documents.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  Json& arr(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// End-to-end: one untraced campaign
// ---------------------------------------------------------------------------

struct CampaignRun {
  double wall_s = 0;
  double cpu_s = 0;
  unsigned threads = 0;
  std::size_t failed_rows = 0;
  std::vector<double> row_ms;  ///< executed rows' defense + attack time
  double queue_wait_s = 0;
  std::string csv;           ///< every row of the grid
  std::string executed_csv;  ///< the rows this run executed
};

/// Flat grid indices the flow_resume set-up records (shard 1 of 2); the
/// timed run executes the rest.
bool recorded_in_setup(const Workload& w, std::size_t flat_index) {
  return w.resume && flat_index % 2 == 0;
}

CampaignRun run_campaign_once(const Workload& w, std::uint64_t seed,
                              const fs::path& work) {
  CampaignSpec spec = make_spec(w, seed);
  if (w.resume) {
    const fs::path store = work / "rep.store";
    fs::remove(store);
    fs::copy_file(work / "half.store", store);
    spec.store_path = store.string();
    spec.resume = true;
  }
  CampaignRun run;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const CampaignReport report = run_campaign(spec);
  run.wall_s = seconds_since(t0);
  run.cpu_s = process_cpu_seconds() - cpu0;
  run.threads = report.profile.threads;
  run.failed_rows = report.profile.failed_rows;
  std::vector<TrialRecord> executed;
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    if (recorded_in_setup(w, i)) continue;
    executed.push_back(report.rows[i]);
    run.row_ms.push_back(report.rows[i].flow_ms);
    run.queue_wait_s += report.rows[i].queue_ms / 1e3;
  }
  run.csv = campaign_results_csv(report);
  run.executed_csv = results_csv(executed);
  return run;
}

/// Runs fn(i) for every i < n on `threads` workers, each inside a `span`
/// span; rethrows the first exception once all workers have joined.
void parallel_for(std::size_t n, unsigned threads, const char* span,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&]() {
    obs::Span worker_span("bench", span);
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      std::lock_guard lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Replay: the campaign's stages, one layer call at a time
// ---------------------------------------------------------------------------

// Stream tags of campaign_seed (runtime/campaign.cpp).
constexpr int kStageCircuit = 0;
constexpr int kStageSelection = 1;
constexpr int kStageAttack = 2;

struct LayerCounts {
  std::uint64_t synth_cells = 0;
  std::uint64_t defense_attempts = 0;
  std::uint64_t defense_key_bits = 0;
  std::uint64_t verify_findings = 0;
  std::uint64_t sat_dips = 0, sat_conflicts = 0, sat_propagations = 0;
  std::uint64_t sat_peak_clauses = 0;
  std::uint64_t seq_iters = 0;
  std::uint64_t attack_rows = 0, attack_solved = 0;
  std::uint64_t store_appends = 0;

  void merge(const LayerCounts& o) {
    synth_cells += o.synth_cells;
    defense_attempts += o.defense_attempts;
    defense_key_bits += o.defense_key_bits;
    verify_findings += o.verify_findings;
    sat_dips += o.sat_dips;
    sat_conflicts += o.sat_conflicts;
    sat_propagations += o.sat_propagations;
    sat_peak_clauses = std::max(sat_peak_clauses, o.sat_peak_clauses);
    seq_iters += o.seq_iters;
    attack_rows += o.attack_rows;
    attack_solved += o.attack_solved;
    store_appends += o.store_appends;
  }
};

/// A key an attack claims, kept with what is needed to check it.
struct Claim {
  std::size_t row = 0;
  std::string attack;
  std::shared_ptr<const Netlist> view;
  std::shared_ptr<const Netlist> chip;
  LutKey key;
};

/// One replayed grid point.
struct ReplayedRow {
  TrialRecord row;
  LayerCounts counts;
  std::optional<Claim> claim;
};

struct Replay {
  const Workload& w;
  std::uint64_t seed;
  ResultStore* store = nullptr;  ///< appends go here when set
  std::vector<TrialRecord> rows;  ///< replayed rows, in grid order
  std::vector<Claim> claims;
  LayerCounts counts;
  std::vector<std::shared_ptr<const Netlist>> circuits;  ///< per (b, t)

  Replay(const Workload& workload, std::uint64_t master_seed)
      : w(workload), seed(master_seed) {}

  /// Index into `circuits` of grid point g's (benchmark, trial).
  std::size_t circuit_of(std::size_t g) const {
    const std::size_t n_trial = static_cast<std::size_t>(w.trials);
    return g / (w.defenses.size() * n_trial) * n_trial + g % n_trial;
  }

  /// Every grid point the timed campaign executes (for flow_resume, the
  /// half the set-up did not record), spread over `threads` workers like
  /// the campaign's pool; results are collected in grid order.
  void run(unsigned threads) {
    const TechLibrary lib = TechLibrary::cmos90_stt();
    const std::size_t n_trial = static_cast<std::size_t>(w.trials);
    std::vector<std::size_t> todo;
    std::vector<char> circuit_needed(w.benchmarks.size() * n_trial, 0);
    for (std::size_t g = 0; g < grid_rows(w); ++g) {
      if (recorded_in_setup(w, g)) continue;
      todo.push_back(g);
      circuit_needed[circuit_of(g)] = 1;
    }
    // One circuit per (benchmark, trial), shared by its defenses, as the
    // campaign's generation jobs do.
    circuits.assign(circuit_needed.size(), nullptr);
    std::vector<std::size_t> gen;
    for (std::size_t c = 0; c < circuit_needed.size(); ++c) {
      if (circuit_needed[c]) gen.push_back(c);
    }
    parallel_for(gen.size(), threads, "replay.worker", [&](std::size_t i) {
      const std::size_t c = gen[i];
      const std::string& bench = w.benchmarks[c / n_trial];
      STTLOCK_SPAN("bench", "synth.gen");
      circuits[c] = std::make_shared<const Netlist>(generate_circuit(
          *find_profile(bench),
          campaign_seed(seed, bench, kStageCircuit, -1,
                        static_cast<int>(c % n_trial), 0)));
    });
    for (std::size_t c : gen) counts.synth_cells += circuits[c]->size();

    std::vector<ReplayedRow> done(todo.size());
    parallel_for(todo.size(), threads, "replay.worker", [&](std::size_t i) {
      done[i] = run_group(todo[i], lib);
    });
    for (ReplayedRow& r : done) {
      rows.push_back(std::move(r.row));
      counts.merge(r.counts);
      if (r.claim) claims.push_back(std::move(*r.claim));
    }
  }

  /// One (benchmark, defense, trial) group on its shared circuit: defend,
  /// lint, lower, attack. The attack axis has one entry, so a group is one
  /// row and the flat row index equals the group index.
  ReplayedRow run_group(std::size_t g, const TechLibrary& lib) const {
    const std::size_t n_trial = static_cast<std::size_t>(w.trials);
    const std::size_t b = g / (w.defenses.size() * n_trial);
    const std::size_t d = (g / n_trial) % w.defenses.size();
    const int t = static_cast<int>(g % n_trial);
    const std::string& bench = w.benchmarks[b];
    const std::string& kind = w.defenses[d];

    ReplayedRow out;
    TrialRecord& row = out.row;
    LayerCounts& counts = out.counts;
    row.benchmark = bench;
    row.defense = kind;
    if (kind == "independent") row.algorithm = SelectionAlgorithm::kIndependent;
    if (kind == "dependent") row.algorithm = SelectionAlgorithm::kDependent;
    if (kind == "parametric") row.algorithm = SelectionAlgorithm::kParametric;
    row.attack = w.attack;
    row.trial = t;
    row.circuit_seed =
        campaign_seed(seed, bench, kStageCircuit, -1, t, 0);

    const Netlist& circuit = *circuits[circuit_of(g)];
    const CampaignSpec defaults;

    auto locked = std::make_shared<defense::DefenseResult>();
    const RetryOutcome outcome = run_with_seed_backoff(
        defaults.max_attempts,
        [&](int attempt) {
          return campaign_seed(seed, bench, kStageSelection,
                               static_cast<int>(d), t, attempt);
        },
        [&](std::uint64_t sel_seed, int) {
          {
            STTLOCK_SPAN("bench", "defense.apply");
            *locked = defense::registry().apply(
                kind, circuit, lib,
                {sel_seed, defaults.timing_margin, defaults.activity});
          }
          const defense::DefenseResult& r = *locked;
          row.selection_seed = sel_seed;
          row.num_luts = r.overhead.num_stt_luts;
          row.key_cells = r.key_cells;
          row.key_bits = r.key_bits;
          row.cells_added = r.cells_added;
          row.cells_replaced = r.cells_replaced;
          row.perf_pct = r.overhead.perf_degradation_pct();
          row.power_pct = r.overhead.power_overhead_pct();
          row.area_pct = r.overhead.area_overhead_pct();
          row.original_delay_ps = r.overhead.original_delay_ps;
          row.hybrid_delay_ps = r.overhead.hybrid_delay_ps;
          row.n_indep = r.security.n_indep.to_string();
          row.n_dep = r.security.n_dep.to_string();
          row.n_bf = r.security.n_bf.to_string();
          row.paths_considered = r.selection.paths_considered;
          row.timing_retries = r.selection.timing_retries;
          row.usl_replacements = r.selection.usl_replacements;
          const LintReport lint = lint_in_layers(r);
          row.lint_ran = true;
          row.lint_verdict = lint.verdict();
          row.lint_errors = lint.counts.errors;
          row.lint_warnings = lint.counts.warnings;
          row.lint_infos = lint.counts.infos;
          row.audit_log10_drop =
              std::max({lint.audit.log10_drop_indep, lint.audit.log10_drop_dep,
                        lint.audit.log10_drop_bf});
          if (lint.keydep_ran) {
            row.key_bits_static = lint.keydep.key_bits_static;
            row.eff_key_bits = lint.keydep.eff_key_bits;
            row.analyze_verdict = lint.keydep.verdict();
          }
          counts.verify_findings += lint.findings.size();
        });
    row.attempts = outcome.attempts;
    row.ok = outcome.ok;
    row.error = outcome.error;
    counts.defense_attempts += static_cast<std::uint64_t>(outcome.attempts);
    if (outcome.ok) counts.defense_key_bits += static_cast<std::uint64_t>(row.key_bits);

    if (row.ok && w.attack != "none") attack_stage(out, g, d, t, locked);
    if (store != nullptr) append_to_store(out, b, t);
    return out;
  }

  /// run_lint, split into its three layers so each gets its own span.
  static LintReport lint_in_layers(const defense::DefenseResult& r) {
    const Netlist& nl = r.locked;
    LintReport lint;
    lint.netlist = nl.name();
    StructuralLintOptions sopt;
    sopt.defense.merge(r.annotations);
    std::optional<StructuralLintResult> structural;
    {
      STTLOCK_SPAN("bench", "verify.structural");
      structural.emplace(run_structural_lint(nl, sopt));
    }
    lint.findings = structural->findings;
    if (!structural->evaluable) {
      lint.findings.push_back(make_finding(
          nl, LintRule::kAuditSkipped, kNullCell,
          "security audit skipped: structural errors make the netlist "
          "unevaluable"));
    } else {
      StaticAuditOptions aopt;
      aopt.defense.merge(r.annotations);
      {
        STTLOCK_SPAN("bench", "verify.audit");
        lint.audit = run_static_audit(nl, aopt);
      }
      lint.audit_ran = true;
      lint.findings.insert(lint.findings.end(), lint.audit.findings.begin(),
                           lint.audit.findings.end());
      if (nl.stats().luts > 0) {
        KeydepOptions kopt;
        kopt.defense.merge(r.annotations);
        {
          STTLOCK_SPAN("bench", "verify.keydep");
          lint.keydep = analyze_keydep(nl, kopt);
        }
        lint.keydep_ran = true;
        lint.findings.insert(lint.findings.end(),
                             lint.keydep.findings.begin(),
                             lint.keydep.findings.end());
      }
    }
    lint.counts = count_findings(lint.findings);
    return lint;
  }

  void attack_stage(ReplayedRow& out, std::size_t g, std::size_t d, int t,
                    const std::shared_ptr<defense::DefenseResult>& locked) const {
    TrialRecord& row = out.row;
    LayerCounts& counts = out.counts;
    const auto chip = std::shared_ptr<const Netlist>(locked, &locked->locked);
    std::shared_ptr<const Netlist> view;
    std::unique_ptr<CompiledSim> oracle_sim;
    {
      STTLOCK_SPAN("bench", "sim.lower");
      view = std::make_shared<const Netlist>(foundry_view(*chip));
      if (w.attack != "seq") oracle_sim = std::make_unique<CompiledSim>(*chip);
    }
    attack::CommonAttackOptions common;
    common.seed = campaign_seed(seed, row.benchmark, kStageAttack,
                                static_cast<int>(d), t, 0);
    common.time_limit_s = attack::CommonAttackOptions::kNoTimeLimit;
    if (w.attack == "sat") common.work_budget = 2'000'000;
    attack::UnifiedResult r;
    try {
      STTLOCK_SPAN("bench", w.attack == "seq" ? "attack.seq" : "attack.sat");
      r = attack::registry().run(w.attack, *view, *chip, common, {}, nullptr,
                                 oracle_sim.get());
    } catch (const std::exception& e) {
      row.ok = false;
      row.error = "attack: " + std::string(e.what());
      return;
    }
    row.attack_ran = true;
    row.attack_success = r.success();
    row.attack_outcome = attack::outcome_name(r.outcome);
    row.attack_detail = r.detail;
    row.attack_queries = r.queries;
    row.attack_iterations = r.iterations;
    row.attack_conflicts = r.conflicts;
    row.attack_decisions = r.sat.decisions;
    row.attack_propagations = r.sat.propagations;
    row.attack_learned = r.sat.learned;
    row.attack_peak_clauses = r.sat.peak_clauses;
    row.attack_cnf_per_iter = r.sat.cnf_clauses_per_iter;

    ++counts.attack_rows;
    if (r.success()) ++counts.attack_solved;
    if (w.attack == "sat") {
      counts.sat_dips += r.iterations;
      counts.sat_conflicts += static_cast<std::uint64_t>(r.conflicts);
      counts.sat_propagations += static_cast<std::uint64_t>(r.sat.propagations);
      counts.sat_peak_clauses =
          std::max(counts.sat_peak_clauses,
                   static_cast<std::uint64_t>(r.sat.peak_clauses));
    } else {
      counts.seq_iters += r.iterations;
    }
    if (r.success()) out.claim = Claim{g, w.attack, view, chip, r.key};
  }

  void append_to_store(ReplayedRow& out, std::size_t b, int t) const {
    STTLOCK_SPAN("bench", "store.append");
    const TrialRecord& row = out.row;
    const std::string tag = "/t" + std::to_string(t);
    std::uint64_t appended = 0;
    appended += store->append_stage("gen/" + w.benchmarks[b] + tag, {});
    appended += store->append_stage("def/" + w.benchmarks[b] + "/" +
                                        row.defense + tag, {});
    appended += store->append_trial(
        {row.benchmark, row.defense, "", row.attack, row.trial}, row, {});
    out.counts.store_appends += appended;
  }
};

/// Prove each claimed `sat` key: program it into the foundry view and check
/// combinational equivalence with the configured chip. `seq` claims only
/// hold up to the unrolling depth (no sequential check exists yet); they
/// are counted as bounded, not verified.
bool keys_equivalent(const Netlist& view, const LutKey& a, const LutKey& b,
                     bool* proven) {
  sat::Solver solver;
  EncodeOptions symbolic;
  symbolic.symbolic_keys = true;
  const EncodedCircuit ea = encode_comb(solver, view, symbolic);
  EncodeOptions opt_b = symbolic;
  opt_b.share_inputs = &ea.input_vars;
  opt_b.share_key_free_cells = &ea.cell_var;
  const EncodedCircuit eb = encode_comb(solver, view, opt_b);
  for (const auto& [enc, key] : {std::pair{&ea, &a}, std::pair{&eb, &b}}) {
    for (const auto& [name, vars] : enc->key_vars) {
      const std::uint64_t mask = key->at(name);
      for (std::size_t row = 0; row < vars.size(); ++row) {
        solver.add_unit((mask >> row) & 1 ? sat::pos(vars[row])
                                          : sat::neg(vars[row]));
      }
    }
  }
  const sat::Var m = add_miter(solver, ea, eb);
  solver.set_conflict_budget(2'000'000);
  const sat::Lit assume[] = {sat::pos(m)};
  const sat::Result r = solver.solve(assume);
  *proven = r != sat::Result::kUnknown;
  return r == sat::Result::kUnsat;
}

struct KeyCheck {
  std::size_t claimed = 0, verified = 0, bounded = 0, unverified = 0;
};

KeyCheck check_claims(std::vector<Claim>& claims, bool forge,
                      unsigned threads) {
  std::sort(claims.begin(), claims.end(),
            [](const Claim& x, const Claim& y) { return x.row < y.row; });
  KeyCheck out;
  std::vector<char> ok(claims.size(), 0);
  parallel_for(claims.size(), threads, "check.worker", [&](std::size_t i) {
    const Claim& c = claims[i];
    if (c.attack != "sat") return;
    STTLOCK_SPAN("bench", "check.key");
    LutKey key = c.key;
    if (forge && i == 0) {
      for (auto& [name, mask] : key) mask = ~mask;
    }
    bool proven = false;
    ok[i] = keys_equivalent(*c.view, key, extract_key(*c.chip), &proven) &&
            proven;
  });
  for (std::size_t i = 0; i < claims.size(); ++i) {
    ++out.claimed;
    if (claims[i].attack != "sat") {
      ++out.bounded;
    } else if (ok[i]) {
      ++out.verified;
    } else {
      ++out.unverified;
    }
  }
  return out;
}

CampaignGrid grid_of(const Workload& w, std::uint64_t seed) {
  const CampaignSpec spec = make_spec(w, seed);
  CampaignGrid grid;
  grid.master_seed = seed;
  grid.trials = spec.trials;
  grid.max_attempts = spec.max_attempts;
  grid.lint = spec.lint;
  grid.activity = spec.activity;
  grid.timing_margin = spec.timing_margin;
  grid.benchmarks = spec.benchmarks;
  grid.defenses = spec.defenses;
  grid.attacks = spec.attacks;
  return grid;
}

std::string key_check_json(const KeyCheck& k) {
  return Json()
      .num("claimed", static_cast<double>(k.claimed))
      .num("verified", static_cast<double>(k.verified))
      .num("bounded", static_cast<double>(k.bounded))
      .num("unverified", static_cast<double>(k.unverified))
      .text();
}

std::string run_json(const CampaignRun& run) {
  return Json()
      .num("wall_s", run.wall_s)
      .num("cpu_s", run.cpu_s)
      .num("threads", run.threads)
      .num("failed_rows", static_cast<double>(run.failed_rows))
      .num("queue_wait_s", run.queue_wait_s)
      .arr("row_ms", run.row_ms)
      .text();
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string mode, workload;
  std::uint64_t seed = 20160605;
  double seconds = 10;
  fs::path work = ".";
  bool smoke = false;
  bool forge_key = false;
};

int mode_validate(const Args& a, const Workload& w) {
  CampaignSpec spec = make_spec(w, a.seed);
  // A shard index past the last row owns nothing: the campaign resolves,
  // validates and (for a resume) opens its store, then has no job to run.
  spec.shard_count = static_cast<unsigned>(grid_rows(w)) + 1;
  spec.shard_index = spec.shard_count;
  if (w.resume) {
    const fs::path store = a.work / "validate.store";
    fs::remove(store);
    fs::copy_file(a.work / "half.store", store);
    spec.store_path = store.string();
    spec.resume = true;
  }
  run_campaign(spec);
  std::printf("validated\n");
  return 0;
}

int mode_prepare(const Args& a, const Workload& w) {
  CampaignSpec spec = make_spec(w, a.seed);
  const fs::path store = a.work / "half.store";
  fs::remove(store);
  spec.store_path = store.string();
  spec.shard_index = 1;
  spec.shard_count = 2;
  const CampaignReport report = run_campaign(spec);
  std::printf("%s\n", Json()
                          .num("rows", static_cast<double>(report.rows.size()))
                          .num("failed_rows",
                               static_cast<double>(report.profile.failed_rows))
                          .text()
                          .c_str());
  return 0;
}

int mode_run(const Args& a, const Workload& w) {
  std::vector<CampaignRun> reps;
  const Clock::time_point t0 = Clock::now();
  // Stop before a rep would overrun the budget (by the slowest rep so far);
  // always measure at least one.
  double slowest = 0;
  while (reps.empty() || seconds_since(t0) + slowest <= a.seconds) {
    reps.push_back(run_campaign_once(w, a.seed, a.work));
    slowest = std::max(slowest, reps.back().wall_s);
  }
  const double rss = peak_rss_mb();
  bool reps_identical = true;
  for (const CampaignRun& rep : reps) {
    reps_identical = reps_identical && rep.csv == reps.front().csv;
  }
  write_file(a.work / "campaign.csv", reps.front().csv);

  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    reps_json += (i ? "," : "") + run_json(reps[i]);
  }
  reps_json += "]";

  std::printf("%s\n", Json()
                          .num("peak_rss_mb", rss)
                          .raw("reps", reps_json)
                          .raw("reps_identical", reps_identical ? "true" : "false")
                          .text()
                          .c_str());
  return 0;
}

int mode_trace(const Args& a, const Workload& w) {
  const CampaignRun untraced = run_campaign_once(w, a.seed, a.work);
  write_file(a.work / "campaign.csv", untraced.csv);
  write_file(a.work / "campaign_executed.csv", untraced.executed_csv);

  // The store the replay exercises: the half-recorded one for flow_resume
  // (reopened, then appended to), a fresh one otherwise (appended to, then
  // reopened).
  const std::string spec_bytes = campaign_grid_bytes(grid_of(w, a.seed));
  const fs::path store_path = a.work / "replay.store";
  fs::remove(store_path);
  if (w.resume) fs::copy_file(a.work / "half.store", store_path);

  Replay replay(w, a.seed);
  obs::TraceRecorder::global().start();
  const obs::MetricsSnapshot before = obs::Metrics::global().snapshot(false);
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    STTLOCK_SPAN("bench", "replay");
    std::unique_ptr<ResultStore> store;
    if (w.resume) {
      STTLOCK_SPAN("bench", "store.replay");
      store = ResultStore::open(store_path.string(), spec_bytes);
    } else {
      store = ResultStore::create(store_path.string(), spec_bytes);
    }
    replay.store = store.get();
    replay.run(bench_jobs());
    replay.store = nullptr;
    store.reset();
    if (!w.resume) {
      STTLOCK_SPAN("bench", "store.replay");
      store = ResultStore::open(store_path.string(), spec_bytes);
    }
  }
  const double replay_wall = seconds_since(t0);
  const double replay_cpu = process_cpu_seconds() - cpu0;
  const obs::MetricsSnapshot delta = obs::snapshot_diff(
      obs::Metrics::global().snapshot(false), before);
  obs::TraceRecorder::global().stop();
  const KeyCheck keys = check_claims(replay.claims, a.forge_key, bench_jobs());
  write_file(a.work / "trace.json", obs::TraceRecorder::global().chrome_json());
  write_file(a.work / "replay.csv", results_csv(replay.rows));

  const auto counter = [&delta](const char* name) {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const LayerCounts& c = replay.counts;
  Json layers;
  layers.num("synth.cells", static_cast<double>(c.synth_cells))
      .num("defense.attempts", static_cast<double>(c.defense_attempts))
      .num("defense.key_bits", static_cast<double>(c.defense_key_bits))
      .num("verify.findings", static_cast<double>(c.verify_findings))
      .num("sim.words", counter("sim.words"))
      .num("oracle.queries", counter("oracle.queries"))
      .num("sat.dips", static_cast<double>(c.sat_dips))
      .num("sat.conflicts", static_cast<double>(c.sat_conflicts))
      .num("sat.propagations", static_cast<double>(c.sat_propagations))
      .num("sat.peak_clauses", static_cast<double>(c.sat_peak_clauses))
      .num("seq.iters", static_cast<double>(c.seq_iters))
      .num("attack.rows", static_cast<double>(c.attack_rows))
      .num("attack.solved", static_cast<double>(c.attack_solved))
      .num("store.appends", static_cast<double>(c.store_appends))
      .num("store.bytes", static_cast<double>(fs::file_size(store_path)));

  std::printf("%s\n", Json()
                          .raw("campaign", run_json(untraced))
                          .num("replay_wall_s", replay_wall)
                          .num("replay_cpu_s", replay_cpu)
                          .raw("layers", layers.text())
                          .raw("keys", key_check_json(keys))
                          .text()
                          .c_str());
  return 0;
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: campaign_bench <mode> ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--work") {
      a.work = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--forge-key") {
      a.forge_key = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload w = make_workload(a.workload, a.smoke);
    fs::create_directories(a.work);
    if (a.mode == "validate") return mode_validate(a, w);
    if (a.mode == "prepare") return mode_prepare(a, w);
    if (a.mode == "run") return mode_run(a, w);
    if (a.mode == "trace") return mode_trace(a, w);
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
