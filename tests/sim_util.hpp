// Test helpers over CompiledSim, the only simulator front-end: single-pattern
// evaluation and one-cell word evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace stt {

/// Evaluate one pattern (`pi` feeds inputs(), `ff` the flip-flop outputs)
/// and return the primary-output bits in outputs() order.
inline std::vector<bool> eval_single(const CompiledSim& csim,
                                     const std::vector<bool>& pi,
                                     const std::vector<bool>& ff) {
  std::vector<std::uint64_t> pi_words(pi.size());
  std::vector<std::uint64_t> ff_words(ff.size());
  for (std::size_t i = 0; i < pi.size(); ++i) pi_words[i] = pi[i] ? ~0ull : 0;
  for (std::size_t j = 0; j < ff.size(); ++j) ff_words[j] = ff[j] ? ~0ull : 0;
  std::vector<std::uint64_t> wave(csim.wave_size());
  csim.eval_word(pi_words, ff_words, wave);
  std::vector<bool> out;
  for (const CellId po : csim.output_cells()) out.push_back(wave[po] & 1ull);
  return out;
}

/// Output word of a lone `kind` cell (LUT mask `mask`) whose fan-in i is
/// driven by `fanin_words[i]`, evaluated through a one-cell CompiledSim.
inline std::uint64_t eval_cell_word(CellKind kind, std::uint64_t mask,
                                    std::span<const std::uint64_t> fanin_words) {
  Netlist nl;
  std::vector<CellId> ins;
  for (std::size_t i = 0; i < fanin_words.size(); ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const CellId out = kind == CellKind::kLut ? nl.add_lut("y", ins, mask)
                                            : nl.add_gate(kind, "y", ins);
  nl.mark_output(out);
  nl.finalize();
  const CompiledSim csim(nl);
  std::vector<std::uint64_t> wave(csim.wave_size());
  csim.eval_word(fanin_words, {}, wave);
  return wave[out];
}

}  // namespace stt
