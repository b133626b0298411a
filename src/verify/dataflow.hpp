// Generic dataflow framework over the netlist graph, and the attacker-view
// ternary engine built on it.
//
// Two solvers (forward along fan-in edges, backward along fanout edges)
// parameterized by an abstract domain. The combinational subgraph is a DAG
// (DFF outputs are sources, DFF D pins are sinks), so each solve() is one
// pass in topo order — reverse topo order for the backward solver — that
// visits every cell exactly once. A solver computes the topo order once, at
// construction, and may be re-solved after its domain changes (a new force
// cell, new source values); results are deterministic regardless of
// fanout-list or hash-map iteration order.
//
// The domains:
//  * TernaryDomain — the project's one three-valued (0/1/X) propagator. It
//    models the *attacker view* of a hybrid netlist: a reconfigurable LUT's
//    mask is secret, so its output is X unless the attacker has resolved
//    enough of its rows. The `const` defense, the lint audit, keydep and the
//    sensitization attacks all propagate through it.
//  * SupportDomain — exact Boolean functions over a small cut vocabulary;
//    every constant the ternary domain proves, it proves too (pinned by
//    tests/dataflow_test.cpp).
//  * ObservabilityDomain — backward structural reachability of an
//    observation point.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"

namespace stt {

// ---------------------------------------------------------------------------
// Solvers
// ---------------------------------------------------------------------------

/// Forward analysis: values flow from sources (primary inputs, flip-flop
/// outputs) to sinks. Domain concept:
///
///   struct Domain {
///     using Value = ...;                 // default-constructible
///     // slot: the source's position among PIs, then flip-flops
///     Value source(const Netlist&, CellId, std::size_t slot) const;
///     Value transfer(const Netlist&, CellId, std::span<const Value>) const;
///   };
template <class Domain>
class ForwardDataflow {
 public:
  using Value = typename Domain::Value;

  ForwardDataflow(const Netlist& nl, Domain domain = {})
      : nl_(&nl), domain_(std::move(domain)) {
    for (const CellId id : nl.topo_order()) {
      const CellKind k = nl.cell(id).kind;
      if (k != CellKind::kInput && k != CellKind::kDff) order_.push_back(id);
    }
  }

  const std::vector<Value>& solve() {
    const Netlist& nl = *nl_;
    values_.resize(nl.size());
    std::size_t slot = 0;
    for (const CellId id : nl.inputs()) {
      values_[id] = domain_.source(nl, id, slot++);
    }
    for (const CellId id : nl.dffs()) {
      values_[id] = domain_.source(nl, id, slot++);
    }
    // Edges into a DFF D pin are sequential sinks, not forward edges: the
    // DFF output is seeded by source() above, never by its driver.
    for (const CellId id : order_) {
      fin_.clear();
      for (const CellId f : nl.cell(id).fanins) fin_.push_back(values_[f]);
      values_[id] = domain_.transfer(nl, id, std::span<const Value>(fin_));
    }
    return values_;
  }

  const std::vector<Value>& values() const { return values_; }
  const Value& value(CellId id) const {
    assert(id < values_.size());
    return values_[id];
  }
  const Domain& domain() const { return domain_; }
  Domain& domain() { return domain_; }

 private:
  const Netlist* nl_;
  Domain domain_;
  std::vector<CellId> order_;  ///< topo order without the sources
  std::vector<Value> values_;
  std::vector<Value> fin_;
};

/// Backward analysis: values flow from observation points (primary outputs,
/// flip-flop D pins) back toward sources. A cell's value is the join of its
/// own initial value and one contribution per reader edge. Domain concept:
///
///   struct Domain {
///     using Value = ...;
///     Value init(const Netlist&, CellId) const;      // e.g. observed at POs
///     Value transfer(const Netlist&, CellId reader, int slot,
///                    const Value& reader_value) const;
///     Value join(const Value&, const Value&) const;
///   };
///
/// A flip-flop is a topo source, so its driver may be visited first and see
/// the default Value for it: transfer across a DFF reader must not depend on
/// the reader's value (the D pin is an observation point in its own right).
template <class Domain>
class BackwardDataflow {
 public:
  using Value = typename Domain::Value;

  BackwardDataflow(const Netlist& nl, Domain domain = {})
      : nl_(&nl), domain_(std::move(domain)), order_(nl.topo_order()) {}

  const std::vector<Value>& solve() {
    const Netlist& nl = *nl_;
    values_.assign(nl.size(), Value{});
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const CellId id = *it;
      Value next = domain_.init(nl, id);
      for (const CellId reader : nl.cell(id).fanouts) {
        const Cell& rc = nl.cell(reader);
        for (int slot = 0; slot < rc.fanin_count(); ++slot) {
          if (rc.fanins[static_cast<std::size_t>(slot)] != id) continue;
          next = domain_.join(
              next, domain_.transfer(nl, reader, slot, values_[reader]));
        }
      }
      values_[id] = std::move(next);
    }
    return values_;
  }

  const std::vector<Value>& values() const { return values_; }
  const Value& value(CellId id) const {
    assert(id < values_.size());
    return values_[id];
  }
  const Domain& domain() const { return domain_; }

 private:
  const Netlist* nl_;
  Domain domain_;
  std::vector<CellId> order_;
  std::vector<Value> values_;
};

// ---------------------------------------------------------------------------
// Forward domain: attacker-view ternary values
// ---------------------------------------------------------------------------

/// Kleene propagation over the attacker view. Sources (PIs, then state
/// bits) take `sources`, or X when it is empty, so by default a definite
/// value is a static constant no key and no stimulus can change. A LUT is X
/// when `luts` is null (no mask known); otherwise a LUT the map tracks is
/// evaluated from its resolved rows, and one it does not track as
/// configured. One optional forced cell implements the force probe below.
struct TernaryDomain {
  using Value = Tri;

  const LutKnowledgeMap* luts = nullptr;
  std::span<const Tri> sources = {};
  CellId force_cell = kNullCell;
  Tri force_value = Tri::kX;

  Value source(const Netlist& nl, CellId id, std::size_t slot) const;
  Value transfer(const Netlist& nl, CellId id,
                 std::span<const Value> fanins) const;
};

/// Throws std::runtime_error("<pass>: illegal arity on '<cell>'") or
/// ("<pass>: unresolved fan-in on '<cell>'") unless the netlist meets the
/// structural layer's "evaluable" bar; topo_order() itself rejects cycles.
void require_evaluable(const Netlist& nl, std::string_view pass);

/// Observation points in oracle response order: primary outputs, then each
/// flip-flop's D-pin driver.
std::vector<CellId> observation_points(const Netlist& nl);

/// Truth-table rows of `lut` consistent with its fan-ins' values in `wave`.
std::uint64_t reachable_rows(const Cell& lut, std::span<const Tri> wave);

/// The observation-point values of one force probe.
struct ForceProbe {
  std::vector<Tri> at0;  ///< with the cell forced to 0
  std::vector<Tri> at1;  ///< with the cell forced to 1

  /// Every observation point keeps the same definite value: a sound proof
  /// that the cell's value never reaches the interface.
  bool masked() const;
  /// First observation point whose two values are definite and differ (the
  /// cell is sensitized to it whatever the X's are), or -1.
  int sensitized() const;
};

/// Solve `solver` with `cell` forced to 0 and then to 1, under the domain's
/// knowledge and source values, and read both waves at `obs`. The solver's
/// force fields are cleared again afterwards.
ForceProbe force_probe(ForwardDataflow<TernaryDomain>& solver,
                       std::span<const CellId> obs, CellId cell);

// ---------------------------------------------------------------------------
// Forward domain: small-support functions
// ---------------------------------------------------------------------------

/// Exact Boolean function of a net over at most kMaxLutInputs cut variables
/// (a truth-table mask — a BDD in disguise at this width). Cut variables are
/// primary inputs, state bits, LUT outputs (the mask is secret), and cells
/// whose support outgrew the bound. Functions are normalized (vacuous
/// variables dropped, variables sorted by CellId), so `is_constant` and
/// `depends_on` are exact over the cut vocabulary.
struct SupportFunction {
  std::vector<CellId> vars;  ///< sorted ascending; empty for constants
  std::uint64_t mask = 0;    ///< truth table; row bit i = value of vars[i]

  static SupportFunction constant(bool v);
  static SupportFunction variable(CellId id);
  bool is_constant() const { return vars.empty(); }
  bool constant_value() const { return (mask & 1ull) != 0; }
  bool depends_on(CellId v) const;
  /// Drop variables the mask does not depend on; keeps the form canonical.
  void normalize();

  friend bool operator==(const SupportFunction& a, const SupportFunction& b) {
    return a.vars == b.vars && a.mask == b.mask;
  }
};

struct SupportDomain {
  using Value = SupportFunction;

  /// Cells re-introduced as fresh cut variables because their support
  /// outgrew kMaxLutInputs, and every variable such a cut absorbed. A
  /// client must not conclude a variable is unobservable while it sits
  /// inside an absorbed cut (keydep's KEY008 check). LUT cuts absorb their
  /// fan-in variables for the same reason.
  struct CutState {
    std::vector<char> cut;       ///< by CellId
    std::vector<char> absorbed;  ///< by CellId
  };
  /// Owned by the caller so the domain stays copyable; sized to nl.size().
  CutState* cut_state = nullptr;

  Value source(const Netlist& nl, CellId id, std::size_t slot) const;
  Value transfer(const Netlist& nl, CellId id,
                 std::span<const Value> fanins) const;
};

// ---------------------------------------------------------------------------
// Backward domain: structural observability
// ---------------------------------------------------------------------------

/// Can a change at this net reach any observation point (primary output or
/// flip-flop D pin) along some path? Purely structural (no sensitization),
/// so `false` is a sound proof of unobservability, the same bar as the
/// force probe's masked test but O(V+E) for all cells at once.
struct ObservabilityDomain {
  using Value = char;  ///< 0 = unobservable, 1 = may reach an obs point

  Value init(const Netlist& nl, CellId id) const {
    return nl.cell(id).is_output ? 1 : 0;
  }
  Value transfer(const Netlist& nl, CellId reader, int /*slot*/,
                 const Value& reader_value) const {
    // An edge into a DFF D pin is itself an observation point.
    return nl.cell(reader).kind == CellKind::kDff ? 1 : reader_value;
  }
  Value join(const Value& a, const Value& b) const { return a | b; }
};

}  // namespace stt
