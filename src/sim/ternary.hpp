// Three-valued (0/1/X) cell evaluation and the attacker's partial knowledge
// of LUT truth tables.
//
// Used where unknowns are semantically meaningful: the attacker's view of a
// hybrid netlist, where an unconfigured LUT's output is X by definition (the
// attacker does not know the configuration) unless enough of its rows have
// been resolved. Whole-netlist propagation lives in verify/dataflow
// (ForwardDataflow<TernaryDomain>).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "netlist/netlist.hpp"

namespace stt {

enum class Tri : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline Tri tri_from_bool(bool b) { return b ? Tri::kOne : Tri::kZero; }
char tri_char(Tri t);

/// Kleene evaluation of one cell as configured: the result is X exactly
/// when both 0 and 1 are achievable over the unknown inputs.
Tri eval_cell_tri(const Cell& cell, std::span<const Tri> fanins);

/// What the attacker knows about one LUT's truth table so far.
struct LutKnowledge {
  std::uint32_t rows = 0;        ///< 2^fanin
  std::uint64_t known_mask = 0;  ///< rows whose value is resolved
  std::uint64_t value_mask = 0;  ///< resolved values

  bool complete() const {
    const std::uint64_t all =
        (rows >= 64) ? ~0ull : ((1ull << rows) - 1ull);
    return known_mask == all;
  }
};

using LutKnowledgeMap = std::unordered_map<CellId, LutKnowledge>;

/// Evaluate a partially known LUT: the output is definite only when every
/// row consistent with the inputs is resolved and all of them agree.
Tri eval_partial_lut(const LutKnowledge& known, std::span<const Tri> fanins);

/// Truth-table rows, over fanins.size() <= kMaxLutInputs inputs, consistent
/// with the definite values among `fanins` (X matches both polarities).
std::uint64_t consistent_rows(std::span<const Tri> fanins);

}  // namespace stt
