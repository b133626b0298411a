// Oracle-guided SAT attack (Subramanyan et al. style) against hybrid
// STT-CMOS netlists.
//
// The attacker holds the foundry view (structure known, LUT contents
// unknown) and a configured chip with scan access. Each iteration solves a
// miter of two key-differentiated copies for a distinguishing input
// pattern (DIP), queries the oracle, and constrains both key sets with the
// observed I/O pair; when no DIP remains, any satisfying key is
// functionally correct on the scan view.
//
// Engine: the miter is encoded once; every queried (dip, response) pair is
// then constant-folded in the attacker's view and only the unresolved key
// cones emit clauses (attack/dip_encode.*), so per-iteration CNF growth
// tracks the key cone instead of the circuit.
// Before the DIP loop a simulation-guided warm-up floods the oracle with
// cheap word-parallel random patterns (CompiledSim under ScanOracle::
// query_batch) and harvests the key rows that fold to single literals as
// unit constraints. An optional portfolio of `portfolio` differently-
// configured solvers races the hard UNSAT proofs in deterministic lockstep
// conflict slices:
//  * every SAT verdict (each DIP) comes from member 0 only, so the DIP
//    sequence — and with it iterations, queries, and the recovered key —
//    is identical for any portfolio size and any thread count;
//  * helper members join from the second slice of a call onward and can
//    only contribute a (model-free) UNSAT verdict earlier than member 0;
//  * the final key is extracted by a fresh deterministic solver replaying
//    the recorded I/O pairs against a single symbolic copy.
// The only S-dependent corner is a conflict-budget exhaustion that a larger
// portfolio turns into a completed UNSAT proof — a strictly stronger
// attacker, reported via `stats.unsat_winner`.
//
// This is the strongest practical attack the paper argues against; the
// reproduction uses it to *validate* the paper's security ordering:
// independent selection falls in a handful of iterations, while dependent
// and parametric-aware selections blow up the iteration count / conflict
// budget (see bench/bench_attack_validation, bench/bench_sat_perf).
#pragma once

#include "attack/common.hpp"
#include "attack/oracle.hpp"
#include "core/hybrid.hpp"
#include "netlist/netlist.hpp"

namespace stt {

struct SatAttackOptions : attack::CommonAttackOptions {
  /// Historical defaults: `time_limit_s` is a wall-clock cap honored
  /// *inside* solver calls via the solver deadline (checked every 256
  /// conflicts); `work_budget` is the SAT conflict cap per solver call —
  /// exceeding it aborts the attack with budget_exhausted (the defender
  /// "wins on resources"), counted on the canonical member only so the cap
  /// is portfolio-size independent; `seed` drives warm-up stimulus and
  /// helper-member diversification.
  SatAttackOptions() {
    seed = 0x5a7a11cull;
    time_limit_s = 60.0;
    work_budget = 4'000'000;
  }

  int max_iterations = 512;

  /// Simulation-guided warm-up: 64*warmup_words random oracle patterns are
  /// folded for free key bits before the DIP loop. 0 disables.
  int warmup_words = 4;
  /// Of the warm-up patterns, at most this many with unresolved complex
  /// outputs are fully cone-encoded into the CNF (the rest only contribute
  /// their unit constraints).
  int warmup_pair_limit = 8;
  /// Solver configurations racing the UNSAT proofs (>=1).
  int portfolio = 1;
  /// Lockstep slice granularity (conflicts per member per round).
  std::int64_t slice_conflicts = 20'000;
  /// Fans portfolio slices and the warm-up batch across threads; results
  /// are bit-identical with or without it. Must not be a pool the caller
  /// is itself running inside.
  ParallelFor* parallel = nullptr;
};

/// Deterministic solver telemetry: canonical member (member 0) plus the
/// final key-extraction solve. Identical across thread counts; identical
/// across portfolio sizes up to the terminal UNSAT race (see unsat_winner).
struct SatAttackStats {
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t learned = 0;       ///< clauses learnt from conflicts
  std::int64_t peak_clauses = 0;  ///< live-clause high-water mark
  /// Clauses submitted to the canonical solver: at miter construction +
  /// warm-up, and added by the DIP loop (the per-iteration CNF delta).
  std::int64_t cnf_initial_clauses = 0;
  std::int64_t cnf_dip_clauses = 0;
  double cnf_clauses_per_iter = 0;  ///< cnf_dip_clauses / iterations
  int key_rows_resolved = 0;        ///< unit key bits from folding
  int warmup_pairs_encoded = 0;     ///< complex warm-up pairs in the CNF
  int portfolio = 1;
  int unsat_winner = -1;  ///< member that proved UNSAT (-1: none needed)
};

struct SatAttackResult : attack::AttackBase {
  int iterations = 0;          ///< DIPs generated
  std::int64_t conflicts = 0;  ///< canonical member + key extraction
  SatAttackStats stats;
};

/// `hybrid` is the attacker's netlist (LUT masks ignored / treated unknown);
/// `oracle` wraps the configured chip.
SatAttackResult run_sat_attack(const Netlist& hybrid, ScanOracle& oracle,
                               const SatAttackOptions& opt = {});

/// Convenience: build the oracle from the configured netlist.
SatAttackResult run_sat_attack(const Netlist& hybrid,
                               const Netlist& configured,
                               const SatAttackOptions& opt = {});

}  // namespace stt
