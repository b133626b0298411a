#include "sim/ternary.hpp"

#include <cassert>
#include <stdexcept>

namespace stt {

namespace {

// The value a truth mask takes over a non-empty set of rows: definite
// exactly when it agrees on all of them.
Tri agreed_value(std::uint64_t rows, std::uint64_t mask) {
  const std::uint64_t ones = rows & mask;
  if (ones == 0) return Tri::kZero;
  return ones == rows ? Tri::kOne : Tri::kX;
}

}  // namespace

char tri_char(Tri t) {
  switch (t) {
    case Tri::kZero: return '0';
    case Tri::kOne: return '1';
    case Tri::kX: return 'X';
  }
  return '?';
}

Tri eval_cell_tri(const Cell& cell, std::span<const Tri> fanins) {
  if (cell.kind == CellKind::kLut) {
    return agreed_value(consistent_rows(fanins), cell.lut_mask);
  }
  // Every standard gate is symmetric in its inputs, so the Kleene result
  // depends only on how many inputs hold each value, at any width.
  int ones = 0;
  int zeros = 0;
  int unknowns = 0;
  for (const Tri v : fanins) {
    if (v == Tri::kOne) ++ones;
    if (v == Tri::kZero) ++zeros;
    if (v == Tri::kX) ++unknowns;
  }
  switch (cell.kind) {
    case CellKind::kConst0: return Tri::kZero;
    case CellKind::kConst1: return Tri::kOne;
    case CellKind::kBuf:
      return ones ? Tri::kOne : (zeros ? Tri::kZero : Tri::kX);
    case CellKind::kNot:
      return ones ? Tri::kZero : (zeros ? Tri::kOne : Tri::kX);
    case CellKind::kAnd:
      return zeros ? Tri::kZero : (unknowns ? Tri::kX : Tri::kOne);
    case CellKind::kNand:
      return zeros ? Tri::kOne : (unknowns ? Tri::kX : Tri::kZero);
    case CellKind::kOr:
      return ones ? Tri::kOne : (unknowns ? Tri::kX : Tri::kZero);
    case CellKind::kNor:
      return ones ? Tri::kZero : (unknowns ? Tri::kX : Tri::kOne);
    case CellKind::kXor:
      return unknowns ? Tri::kX : ((ones & 1) ? Tri::kOne : Tri::kZero);
    case CellKind::kXnor:
      return unknowns ? Tri::kX : ((ones & 1) ? Tri::kZero : Tri::kOne);
    default:
      throw std::invalid_argument("eval_cell_tri: kind has no gate semantics");
  }
}

std::uint64_t consistent_rows(std::span<const Tri> fanins) {
  // Row r has input i at bit i of r; kInputRows[i] marks the rows where it
  // is 1.
  static constexpr std::uint64_t kInputRows[kMaxLutInputs] = {
      0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
      0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
  assert(fanins.size() <= kMaxLutInputs);
  std::uint64_t rows = full_mask(static_cast<int>(fanins.size()));
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    if (fanins[i] == Tri::kOne) rows &= kInputRows[i];
    if (fanins[i] == Tri::kZero) rows &= ~kInputRows[i];
  }
  return rows;
}

Tri eval_partial_lut(const LutKnowledge& known, std::span<const Tri> fanins) {
  const std::uint64_t rows = consistent_rows(fanins);
  if (rows & ~known.known_mask) return Tri::kX;
  return agreed_value(rows, known.value_mask);
}

}  // namespace stt
