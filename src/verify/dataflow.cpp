#include "verify/dataflow.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace stt {

// ---------------------------------------------------------------------------
// TernaryDomain and the shared attacker-view checks
// ---------------------------------------------------------------------------

Tri TernaryDomain::source(const Netlist& /*nl*/, CellId id,
                          std::size_t slot) const {
  if (id == force_cell) return force_value;
  if (sources.empty()) return Tri::kX;
  assert(slot < sources.size());
  return sources[slot];
}

Tri TernaryDomain::transfer(const Netlist& nl, CellId id,
                            std::span<const Tri> fanins) const {
  if (id == force_cell) return force_value;
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kLut) {
    if (luts == nullptr) return Tri::kX;
    const auto it = luts->find(id);
    if (it != luts->end()) return eval_partial_lut(it->second, fanins);
  }
  return eval_cell_tri(c, fanins);
}

void require_evaluable(const Netlist& nl, std::string_view pass) {
  for (CellId id = 0; id < nl.size(); ++id) {
    const Cell& c = nl.cell(id);
    const FaninRange range = fanin_range(c.kind);
    if (c.fanin_count() < range.min || c.fanin_count() > range.max) {
      throw std::runtime_error(std::string(pass) + ": illegal arity on '" +
                               std::string(c.name) + "'");
    }
    for (const CellId f : c.fanins) {
      if (f == kNullCell || f >= nl.size()) {
        throw std::runtime_error(std::string(pass) +
                                 ": unresolved fan-in on '" +
                                 std::string(c.name) + "'");
      }
    }
  }
}

std::vector<CellId> observation_points(const Netlist& nl) {
  std::vector<CellId> obs(nl.outputs().begin(), nl.outputs().end());
  for (const CellId ff : nl.dffs()) obs.push_back(nl.cell(ff).fanins.at(0));
  return obs;
}

std::uint64_t reachable_rows(const Cell& lut, std::span<const Tri> wave) {
  Tri fin[kMaxLutInputs];
  const int k = lut.fanin_count();
  assert(k <= kMaxLutInputs);
  for (int i = 0; i < k; ++i) fin[i] = wave[lut.fanins[i]];
  return consistent_rows(std::span<const Tri>(fin, k));
}

bool ForceProbe::masked() const {
  for (std::size_t i = 0; i < at0.size(); ++i) {
    if (at0[i] == Tri::kX || at0[i] != at1[i]) return false;
  }
  return true;
}

int ForceProbe::sensitized() const {
  for (std::size_t i = 0; i < at0.size(); ++i) {
    if (at0[i] != Tri::kX && at1[i] != Tri::kX && at0[i] != at1[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

ForceProbe force_probe(ForwardDataflow<TernaryDomain>& solver,
                       std::span<const CellId> obs, CellId cell) {
  ForceProbe probe;
  TernaryDomain& domain = solver.domain();
  domain.force_cell = cell;
  for (const Tri value : {Tri::kZero, Tri::kOne}) {
    domain.force_value = value;
    const std::vector<Tri>& wave = solver.solve();
    std::vector<Tri>& at = value == Tri::kZero ? probe.at0 : probe.at1;
    at.reserve(obs.size());
    for (const CellId p : obs) at.push_back(wave[p]);
  }
  domain.force_cell = kNullCell;
  domain.force_value = Tri::kX;
  return probe;
}

// ---------------------------------------------------------------------------
// SupportFunction / SupportDomain
// ---------------------------------------------------------------------------

SupportFunction SupportFunction::constant(bool v) {
  SupportFunction f;
  f.mask = v ? 1ull : 0ull;
  return f;
}

SupportFunction SupportFunction::variable(CellId id) {
  SupportFunction f;
  f.vars = {id};
  f.mask = 0b10;  // row 0 -> 0, row 1 -> 1
  return f;
}

bool SupportFunction::depends_on(CellId v) const {
  return std::find(vars.begin(), vars.end(), v) != vars.end();
}

void SupportFunction::normalize() {
  for (int i = static_cast<int>(vars.size()) - 1; i >= 0; --i) {
    const int k = static_cast<int>(vars.size());
    bool depends = false;
    for (std::uint32_t row = 0; row < num_rows(k) && !depends; ++row) {
      if (row & (1u << i)) continue;
      const std::uint32_t partner = row | (1u << i);
      depends = ((mask >> row) & 1ull) != ((mask >> partner) & 1ull);
    }
    if (depends) continue;
    // Project variable i out: keep the rows where it is 0, repacked.
    std::uint64_t next = 0;
    std::uint32_t out_row = 0;
    for (std::uint32_t row = 0; row < num_rows(k); ++row) {
      if (row & (1u << i)) continue;
      if ((mask >> row) & 1ull) next |= (1ull << out_row);
      ++out_row;
    }
    mask = next;
    vars.erase(vars.begin() + i);
  }
}

SupportFunction SupportDomain::source(const Netlist& /*nl*/, CellId id,
                                      std::size_t /*slot*/) const {
  return SupportFunction::variable(id);
}

SupportFunction SupportDomain::transfer(
    const Netlist& nl, CellId id,
    std::span<const SupportFunction> fanins) const {
  const Cell& c = nl.cell(id);
  if (c.kind == CellKind::kConst0) return SupportFunction::constant(false);
  if (c.kind == CellKind::kConst1) return SupportFunction::constant(true);

  if (cut_state == nullptr) {
    throw std::logic_error("SupportDomain: cut_state not attached");
  }
  auto cut_here = [&](bool absorbs_fanins) {
    cut_state->cut[id] = 1;
    if (absorbs_fanins) {
      for (const SupportFunction& f : fanins) {
        for (const CellId v : f.vars) cut_state->absorbed[v] = 1;
      }
    }
    return SupportFunction::variable(id);
  };

  // A LUT is a fresh variable by definition — the attacker does not know
  // its function — and conservatively absorbs its fan-in variables (the
  // secret mask may or may not depend on them).
  if (c.kind == CellKind::kLut) return cut_here(true);

  // Merge the fan-in supports; overflow of the mask width cuts this cell.
  std::vector<CellId> merged;
  for (const SupportFunction& f : fanins) {
    for (const CellId v : f.vars) {
      const auto it = std::lower_bound(merged.begin(), merged.end(), v);
      if (it == merged.end() || *it != v) merged.insert(it, v);
    }
  }
  if (static_cast<int>(merged.size()) > kMaxLutInputs) return cut_here(true);

  const int n = c.fanin_count();
  const int k = static_cast<int>(merged.size());

  // Per fan-in: position of each of its variables inside the merged set.
  std::vector<std::vector<int>> positions(fanins.size());
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    for (const CellId v : fanins[i].vars) {
      positions[i].push_back(static_cast<int>(
          std::lower_bound(merged.begin(), merged.end(), v) -
          merged.begin()));
    }
  }

  SupportFunction out;
  out.vars = std::move(merged);
  for (std::uint32_t row = 0; row < num_rows(k); ++row) {
    std::uint32_t packed = 0;
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      std::uint32_t sub_row = 0;
      for (std::size_t j = 0; j < positions[i].size(); ++j) {
        if (row & (1u << positions[i][j])) sub_row |= (1u << j);
      }
      if ((fanins[i].mask >> sub_row) & 1ull) {
        packed |= (1u << i);
      }
    }
    // eval_gate is arity-generic (wide AND/OR trees included); only the LUT
    // needs its mask.
    const bool out_bit = c.kind == CellKind::kLut
                             ? ((c.lut_mask >> packed) & 1ull) != 0
                             : eval_gate(c.kind, packed, n);
    if (out_bit) out.mask |= (1ull << row);
  }
  out.normalize();
  return out;
}

}  // namespace stt
